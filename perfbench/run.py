"""Benchmark of ``covspec`` analyses: end-to-end cost and traced per-layer times.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --describe

Run from the root of a checkout. Each analysis runs in a fresh Python
process (perfbench/child.py) that imports covspec from ``src``, so
``ru_maxrss`` and CPU time belong to that run alone. Inputs are made from
``--seed``; every bundle is checked (perfbench/check.py) and a run whose
check fails counts as failed.

``--trace 0`` keeps starting analyses until ``--seconds`` have passed and
reports the end-to-end metrics listed in BENCHMARK.json: the mean analysis
and CPU time over the run's analyses, and medians of peak RSS and setup time.
``--trace 1`` makes one untraced and two traced analyses of the same input
and reports the per-layer metrics, derived from spans recorded around the
calls ``covspec.runner`` makes into the other modules (perfbench/spans.py).
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from check import check_bundle, verify_manifest
from spans import layer_metrics
from workloads import WORKLOADS, Inputs, Workload, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUN_BUDGET_S = 170.0  # a benchmark run must end within 180 s
SETUP_SAMPLES = 5  # setup times per untraced run; setup-only processes make up the rest
TRACED_RUNS = 2


@dataclass
class Run:
    setup_s: float = float("nan")
    analyze_s: float = float("nan")
    cpu_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    spans: list = field(default_factory=list)
    manifest: bytes = b""
    problems: list = field(default_factory=list)


def spawn(inp: Inputs, out: Path, deadline: float, *flags: str) -> Run:
    """Run child.py once, writing into ``out``; kill it at the deadline."""
    result_path = inp.config_path.with_name("result.json")
    result_path.unlink(missing_ok=True)
    run = Run()
    with open(inp.config_path.with_name("child.log"), "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(inp.config_path), str(out),
             str(result_path), *flags],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(deadline - spawned, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.is_file():
        tail = inp.config_path.with_name("child.log").read_text(errors="replace")
        run.problems.append(f"child exited {proc.returncode}: {tail.strip()[-400:]}")
        return run
    result = json.loads(result_path.read_text())
    run.setup_s = result["ready"] - spawned
    run.cpu_s = usage.ru_utime + usage.ru_stime
    run.peak_rss_mb = usage.ru_maxrss / 1024.0
    run.analyze_s = result.get("analyze_s", float("nan"))
    run.spans = result.get("spans", [])
    return run


def analyze(w: Workload, inp: Inputs, deadline: float, reference: Run | None,
            traced: bool = False) -> Run:
    """One checked analysis into a fresh directory. Bundles are deleted only
    when the benchmark run ends, so freeing their disk blocks never overlaps
    a timed analysis. With a reference run, the manifest must match its
    bytes; otherwise the bundle gets the full output check."""
    out = inp.config_path.parent / f"out-{len(list(inp.config_path.parent.glob('out-*')))}"
    run = spawn(inp, out, deadline, *(["--trace"] if traced else []))
    if run.problems:
        return run
    if reference is None:
        problems = check_bundle(w, inp, out)
    else:
        _, problems = verify_manifest(out)
    if (out / "manifest.json").is_file():
        run.manifest = (out / "manifest.json").read_bytes()
        if reference is not None and run.manifest != reference.manifest:
            problems.append("manifest differs from the first run's (same config and seed)")
    run.problems.extend(problems)
    return run


def median(values) -> float:
    """Median of the values measured; failed runs left theirs NaN."""
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    """Mean of the values measured; failed runs left theirs NaN."""
    values = [v for v in values if not math.isnan(v)]
    return statistics.fmean(values) if values else 0.0


def measure(w: Workload, inp: Inputs, seconds: float, deadline: float):
    """Untraced: analyses while another one fits in ``seconds`` (at least
    one), then setup-only processes until there are SETUP_SAMPLES setup times.

    The host's slow spells last 20-30 s, so one run's analysis times fall in
    a fast and a slow cluster. Their median jumps between the clusters from
    run to run; their mean (the run's analysis time over its analyses) moves
    with the share of slow time, so the times are reported as means."""
    start = time.monotonic()
    runs: list[Run] = []
    while True:
        began = time.monotonic()
        run = analyze(w, inp, deadline, runs[0] if runs else None)
        runs.append(run)
        now = time.monotonic()
        took = now - began
        if run.problems or now + took > min(start + seconds, deadline):
            break
    probes = [spawn(inp, inp.config_path.parent / "probe", deadline, "--setup-only")
              for _ in range(max(0, SETUP_SAMPLES - len(runs)))]
    ok = [r for r in runs if not r.problems]
    metrics = {
        "analyze_s": mean(r.analyze_s for r in ok),
        "cpu_s": mean(r.cpu_s for r in ok),
        "peak_rss_mb": median(r.peak_rss_mb for r in ok),
        "setup_s": median(r.setup_s for r in probes + runs),
    }
    problems = [p for r in probes + runs for p in r.problems]
    for i, r in enumerate(runs, start=1):
        status = "ok" if not r.problems else "FAILED"
        print(f"run {i}: analyze {r.analyze_s:.3f} s, cpu {r.cpu_s:.2f} s, "
              f"rss {r.peak_rss_mb:.1f} MB, setup {r.setup_s:.3f} s, check {status}")
    return metrics, len(runs), len(runs) - len(ok), problems


def bundle_counts(manifest: bytes) -> dict[str, float]:
    files = json.loads(manifest)["files"]
    return {
        "runner.files": len(files),
        "runner.bundle_bytes": sum(f["bytes"] for f in files),
        "moments.dump_bytes": sum(f["bytes"] for f in files
                                  if f["name"].startswith("matrices/")),
    }


# Counts that must repeat exactly between the two traced runs.
EXACT = ("spectral.eigensolves", "moments.matrices", "runner.files", "runner.bundle_bytes")


def measure_traced(w: Workload, inp: Inputs, deadline: float, spans_stem: str):
    """One untraced analysis, then traced ones whose manifests must match it.
    The spans of each traced analysis are kept in WORK/<spans_stem>-<i>.json."""
    base = analyze(w, inp, deadline, None)
    runs = [base]
    if not base.problems:
        for i in range(1, TRACED_RUNS + 1):
            runs.append(analyze(w, inp, deadline, base, traced=True))
            (WORK / f"{spans_stem}-{i}.json").write_text(json.dumps(runs[-1].spans))
    problems = [p for r in runs for p in r.problems]
    traced = [r for r in runs[1:] if not r.problems]
    layers = [{**layer_metrics(r.spans), **bundle_counts(r.manifest)} for r in traced]
    for i, m in enumerate(layers, start=1):
        print(f"traced run {i}: analyze {m['analyze_s']:.3f} s, accounted "
              f"{m['accounted_s']:.3f} s, eigensolves {m['spectral.eigensolves']}")
        if abs(m["accounted_s"] - m["analyze_s"]) > 1e-6 * max(m["analyze_s"], 1.0):
            problems.append(f"traced run {i}: layer times do not add up to analyze_s")
    if len(layers) == TRACED_RUNS:
        for name in EXACT:
            if len({m[name] for m in layers}) != 1:
                problems.append(f"{name} differs between traced runs: "
                                f"{[m[name] for m in layers]}")
    metrics = {}
    if layers:
        for name in layers[0]:
            values = [m[name] for m in layers]
            metrics[name] = median(values) if name.endswith(("_s", "_ms")) else values[0]
        metrics["trace.overhead_s"] = metrics["analyze_s"] - base.analyze_s
    return metrics, len(runs), sum(1 for r in runs if r.problems), problems


def environment() -> dict:
    import scipy
    import scipy.__config__

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    scipy_blas = scipy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": f"{blas.get('name')} {blas.get('version')}",
        "openblas_scipy": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def main() -> int:
    # A terminated run raises SystemExit, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the environment and workload shapes, run nothing")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.describe:
        print(json.dumps({
            "environment": environment(),
            "workloads": {n: w.shape() for n, w in WORKLOADS.items()},
            "seed": "each run makes its inputs from --seed and prints it",
        }, indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "covspec" / "__init__.py").is_file():
        print(f"error: no covspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    w = WORKLOADS[args.workload]
    workdir = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    inp = prepare(w, args.seed, workdir)
    print("environment: " + json.dumps({**environment(), "workload": w.name,
                                        **w.shape(), "seed": args.seed}))
    if args.trace:
        metrics, attempted, failed, problems = measure_traced(
            w, inp, deadline, f"spans-{w.name}-{args.seed}")
        wanted = spec["per_layer"]
    else:
        metrics, attempted, failed, problems = measure(w, inp, args.seconds, deadline)
        wanted = spec["end_to_end"]
    for p in problems:
        print(f"problem: {p}")
    out = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
           for m in wanted}
    for name, entry in out.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed}/{attempted} runs failed)")
    correct = not problems and failed == 0
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
    else:
        print(f"kept inputs and outputs in {workdir}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
