"""Spans recorded from outside covspec, and the per-layer figures derived from them.

``Tracer.install`` replaces the names ``covspec.runner`` imports from the
other modules, plus ``covspec.spectral.eigendecompose``, with wrappers that
time each call. Spans stay in memory; the caller writes them when the run
ends. ``layer_metrics`` turns a run's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import threading
import time

# Names covspec.runner imports from other modules and calls during an analysis.
RUNNER_CALLS = (
    "generate_returns",
    "load_panel",
    "map_prices",
    "compute_returns",
    "rolling_covariance",
    "to_correlation",
    "dump_matrices",
    "spectrum_series",
    "log_mean_spectrum",
    "spectral_density",
    "default_density_bins",
    "mp_density",
    "fit_ansatz",
    "fit_mp_q",
    "density_of_states_curve",
    "projector_series",
    "mean_projector",
    "projector_spectrum",
    "fluctuation_index",
    "matrix_lagged_correlation",
)

# Per-layer time metrics: the calls whose spans each one sums. No call in a
# group runs inside another call of the same group.
TIME_GROUPS = {
    "ensembles.generate_s": ("generate_returns",),
    "panel.load_s": ("load_panel", "map_prices", "compute_returns"),
    "moments.covariance_s": ("rolling_covariance",),
    "moments.correlation_s": ("to_correlation",),
    "moments.dump_s": ("dump_matrices",),
    "spectral.spectrum_s": ("spectrum_series",),
    "spectral.density_s": ("log_mean_spectrum", "spectral_density",
                           "default_density_bins", "mp_density"),
    "spectral.fit_s": ("fit_ansatz", "fit_mp_q", "density_of_states_curve"),
    "subspace.projector_s": ("projector_series", "mean_projector",
                             "projector_spectrum", "fluctuation_index"),
    "subspace.lagged_s": ("matrix_lagged_correlation",),
}


def _describe(name, args, kwargs, result) -> dict:
    """Sizes worth keeping on a span: kernel length, rank, matrices built."""
    attrs = {}
    if name == "rolling_covariance":
        kernel = args[1] if len(args) > 1 else kwargs["kernel"]
        attrs["kernel_length"] = int(kernel.length)
    if name in ("projector_series", "mean_projector"):
        attrs["k"] = int(args[1] if len(args) > 1 else kwargs["k"])
    if name in ("rolling_covariance", "to_correlation"):
        t, n, _ = result.matrices.shape
        attrs["matrices"] = int(t)
        attrs["n"] = int(n)
    if name == "load_panel":
        attrs["cells"] = int(result.values.size)
    return attrs


class Tracer:
    """Thread-safe span recorder.

    Calls made on pool worker threads take as parent the innermost span open
    on the thread that created the tracer, which is the call that started
    the pool.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._next_id = 0

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
                if stack:
                    parent = stack[-1]
                else:
                    parent = self._main_stack[-1] if self._main_stack else None
                stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                with self._lock:
                    stack.pop()
                span = {"id": span_id, "name": name, "layer": layer, "parent": parent,
                        "start": start, "end": end, "thread": threading.get_ident()}
                if error is not None:
                    span["error"] = error
                else:
                    span.update(_describe(name, args, kwargs, result))
                with self._lock:
                    self.spans.append(span)
            return result

        return traced

    def install(self, covspec_runner, covspec_spectral) -> None:
        """Wrap the calls the runner makes. A name the runner no longer
        imports is skipped, and the metrics built on it read 0."""
        for name in RUNNER_CALLS:
            fn = getattr(covspec_runner, name, None)
            if fn is not None:
                layer = fn.__module__.rsplit(".", 1)[-1]
                setattr(covspec_runner, name, self.wrap(name, layer, fn))
        if hasattr(covspec_spectral, "eigendecompose"):
            covspec_spectral.eigendecompose = self.wrap(
                "eigendecompose", "spectral", covspec_spectral.eigendecompose
            )


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its other-layer children cover.

    A child in the span's own layer (eigendecompose inside spectrum_series)
    stays part of the span's self time.
    """
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        other = [(c["start"], c["end"]) for c in children.get(s["id"], ())
                 if c["layer"] != s["layer"]]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(other, s["start"], s["end"])
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts of one traced run."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(names) -> float:
        return sum(own[s["id"]] for n in names for s in by_name.get(n, ()))

    out = {"config.validate_s": total(("validate_config",))}
    for metric, names in TIME_GROUPS.items():
        out[metric] = total(names)
    built = by_name.get("rolling_covariance", []) + by_name.get("to_correlation", [])
    out["moments.covariance_calls"] = len(by_name.get("rolling_covariance", []))
    out["moments.matrices"] = sum(s["matrices"] for s in built)
    out["moments.stack_bytes"] = sum(8 * s["matrices"] * s["n"] ** 2 for s in built)
    out["panel.cells"] = sum(s["cells"] for s in by_name.get("load_panel", []))
    solves = by_name.get("eigendecompose", [])
    out["spectral.eigensolves"] = len(solves)
    out["spectral.eigensolve_ms"] = (
        1e3 * sum(s["end"] - s["start"] for s in solves) / len(solves) if solves else 0.0
    )
    out["runner.self_s"] = total(("run_analysis",))
    out["analyze_s"] = sum(s["end"] - s["start"] for s in by_name.get("run_analysis", ()))
    out["accounted_s"] = out["runner.self_s"] + sum(out[m] for m in TIME_GROUPS)
    return out
