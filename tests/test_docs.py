"""The README's key table, flags sentence and output-file table name exactly
what the code accepts and writes, every code name it cites exists, and its
library example runs."""

import argparse
import importlib
import re
import subprocess
import sys
from pathlib import Path

from covspec.cli import _build_parser, main
from covspec.config import KEYS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_readme_key_table_names_every_config_key():
    section = README.split("### Config keys", 1)[1].split("\n### ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    named = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(named) == sorted(KEYS)


def test_readme_flags_sentence_names_every_cli_flag():
    sentence = README.split("\nFlags: ", 1)[1].split(". ", 1)[0]
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        flag
        for command in commands.choices.values()
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert set(re.findall(r"`(--[a-z-]+)", sentence)) == flags


def test_readme_output_table_names_every_file_a_full_run_writes(tmp_path):
    section = README.split("### Output files", 1)[1].split("\n### ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    names = [
        name
        for row in rows
        for name in re.findall(r"`([^`]+)`", row.split("|")[2])
        if re.fullmatch(r"[\w<>/]+\.(csv|json|log)", name)
    ]
    patterns = [re.sub(r"<\w+>", "[^/]+", re.escape(name)) for name in names]
    synth = tmp_path / "synth.cfg"
    synth.write_text(
        "ensemble.kind = gaussian-iid\nensemble.assets = 12\nensemble.dates = 150\n"
        f"ensemble.seed = 4\nsynth.path = {tmp_path / 'p.csv'}\n"
    )
    assert main(["synth", str(synth)]) == 0
    run = tmp_path / "run.cfg"
    run.write_text(
        f"input.path = {tmp_path / 'p.csv'}\nkernel.scheme = rectangular\n"
        "kernel.length = 60\nanalyses = spectrum,density,mp-compare,ansatz,"
        "projectors,fluctuation,lagged\nprojectors.ranks = 1,2\nlagged.lags = 0,1\n"
        f"output.dump_matrices = true\noutput.dir = {tmp_path / 'out'}\n"
    )
    assert main(["analyze", str(run)]) == 0
    written = sorted(
        p.relative_to(tmp_path / "out").as_posix()
        for p in (tmp_path / "out").rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )
    assert [f for f in written if not any(re.fullmatch(p, f) for p in patterns)] == []
    assert [p for p in patterns if not any(re.fullmatch(p, f) for f in written)] == []


def test_readme_code_names_resolve():
    cited = sorted(set(re.findall(r"`covspec\.([\w.]+)`", README)))
    assert {"workers", "bundle.format_floats"} <= set(cited)
    missing = []
    for dotted in cited:
        obj = importlib.import_module("covspec")
        for part in dotted.split("."):
            if not hasattr(obj, part):
                missing.append(dotted)
                break
            obj = getattr(obj, part)
    assert missing == []


def test_readme_library_example_runs(tmp_path):
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n{code}"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
