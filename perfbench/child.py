"""One covspec run in a fresh process, timed from inside.

    python3 perfbench/child.py CONFIG OUTPUT_DIR RESULT_JSON [--trace] [--setup-only]

Imports covspec from the checkout's ``src``, validates CONFIG with
``output.dir`` set to OUTPUT_DIR (what ``covspec analyze CONFIG --out DIR``
does) and, unless ``--setup-only``, runs the analysis. RESULT_JSON receives
the monotonic time at which the config was validated (the parent subtracts
its spawn time to get setup_s), the analysis wall time and, with
``--trace``, the spans.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> None:
    config_path, output_dir, result_path = argv[:3]
    traced = "--trace" in argv[3:]
    setup_only = "--setup-only" in argv[3:]
    sys.path.insert(0, str(ROOT / "src"))

    import covspec
    import covspec.runner
    import covspec.spectral

    if not Path(covspec.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"covspec imported from {covspec.__file__}, not from the checkout")

    validate, run = covspec.validate_config, covspec.run_analysis
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(covspec.runner, covspec.spectral)
        validate = tracer.wrap("validate_config", "config", validate)
        run = tracer.wrap("run_analysis", "runner", run)

    config = validate(config_path, {"output.dir": output_dir})
    result = {"ready": time.monotonic()}
    if not setup_only:
        start = time.perf_counter()
        run(config)
        result["analyze_s"] = time.perf_counter() - start
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
