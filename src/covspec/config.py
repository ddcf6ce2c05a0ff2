"""Run configuration: flat dotted-key text format, validation, defaults.

The config file is `key = value` lines (blank lines and `#` comment lines
ignored). Every problem is collected and reported together rather than
failing on the first one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ensembles import DEFAULT_STUDENT_NU, ENSEMBLE_KINDS, EnsembleSpec
from .errors import ConfigError
from .kernels import DEFAULT_LENGTH, DEFAULT_TAU0_DAYS, KERNEL_SCHEMES, LONG_MEMORY
from .panel import ASSET_CLASSES, LOG_PRICE, MISSING_POLICIES, IngestConfig
from .spectral import DEFAULT_BIN_COUNT
from .subspace import LAGGED_KERNEL_LENGTH

ANALYSES = (
    "spectrum",
    "density",
    "mp-compare",
    "ansatz",
    "projectors",
    "fluctuation",
    "lagged",
)

FLAVORS = ("covariance", "correlation")
OUTPUT_FORMATS = ("csv", "json")
SYNTH_OUTPUTS = ("prices", "returns")

KNOWN_KEYS = frozenset(
    {
        "input.path",
        "ensemble.kind",
        "ensemble.assets",
        "ensemble.dates",
        "ensemble.nu",
        "ensemble.beta",
        "ensemble.seed",
        "assets.default_class",
        "assets.rate_ids",
        "assets.rate_scale",
        "assets.missing_policy",
        "matrix.flavor",
        "kernel.scheme",
        "kernel.length",
        "kernel.mu",
        "kernel.tau0_days",
        "eval.start",
        "eval.end",
        "analyses",
        "density.bins",
        "density.scale",
        "mp.q",
        "projectors.ranks",
        "lagged.lags",
        "lagged.length",
        "output.dir",
        "output.format",
        "output.dump_matrices",
        "threads",
        "synth.output",
        "synth.path",
    }
)

# Keys echoed into the manifest; where outputs land must not change the
# manifest bytes.
_MANIFEST_EXCLUDED = {"output.dir"}


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved run description with every default applied."""

    input_path: str | None
    ensemble: EnsembleSpec | None
    ingest: IngestConfig
    flavor: str
    kernel_scheme: str
    kernel_length: int
    kernel_mu: float | None
    kernel_tau0_days: float
    eval_start: str | None
    eval_end: str | None
    analyses: tuple[str, ...]
    density_bins: int
    density_scale: str | None
    mp_q: float | None
    projector_ranks: tuple[int, ...]
    lags: tuple[int, ...]
    lagged_length: int
    output_dir: str
    output_format: str
    dump_matrices: bool
    synth_output: str
    synth_path: str | None

    def flat(self) -> dict[str, str]:
        """Canonical dotted-key echo of the resolved config (manifest view)."""
        items: dict[str, str] = {}

        def put(key: str, value) -> None:
            if value is None or key in _MANIFEST_EXCLUDED:
                return
            if isinstance(value, bool):
                items[key] = "true" if value else "false"
            elif isinstance(value, (tuple, list)):
                if value:
                    items[key] = ",".join(str(v) for v in value)
            else:
                items[key] = str(value)

        put("input.path", self.input_path)
        if self.ensemble is not None:
            put("ensemble.kind", self.ensemble.kind)
            put("ensemble.assets", self.ensemble.n_assets)
            put("ensemble.dates", self.ensemble.n_dates)
            if self.ensemble.kind == "student-iid":
                put("ensemble.nu", self.ensemble.nu)
            if self.ensemble.kind == "one-factor":
                put("ensemble.beta", self.ensemble.beta)
            put("ensemble.seed", self.ensemble.seed)
        put("assets.default_class", self.ingest.default_class)
        put("assets.rate_ids", self.ingest.rate_ids)
        put("assets.rate_scale", self.ingest.rate_scale)
        put("assets.missing_policy", self.ingest.missing_policy)
        put("matrix.flavor", self.flavor)
        put("kernel.scheme", self.kernel_scheme)
        put("kernel.length", self.kernel_length)
        put("kernel.mu", self.kernel_mu)
        put("kernel.tau0_days", self.kernel_tau0_days)
        put("eval.start", self.eval_start)
        put("eval.end", self.eval_end)
        put("analyses", self.analyses)
        put("density.bins", self.density_bins)
        put("density.scale", self.density_scale)
        put("mp.q", self.mp_q)
        put("projectors.ranks", self.projector_ranks)
        put("lagged.lags", self.lags)
        put("lagged.length", self.lagged_length)
        put("output.format", self.output_format)
        put("output.dump_matrices", self.dump_matrices)
        put("synth.output", self.synth_output)
        put("synth.path", self.synth_path)
        return dict(sorted(items.items()))


def parse_flat_text(text: str) -> tuple[dict[str, str], list[str]]:
    """Parse `key = value` lines; returns the mapping and collected errors."""
    mapping: dict[str, str] = {}
    errors: list[str] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append(f"line {line_no}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            errors.append(f"line {line_no}: empty key")
            continue
        if key in mapping:
            errors.append(f"line {line_no}: duplicate key {key!r}")
            continue
        mapping[key] = value
    return mapping, errors


def _get_int(mapping, key, errors, default=None, minimum=None):
    raw = mapping.get(key)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        errors.append(f"{key}: expected integer, got {raw!r}")
        return default
    if minimum is not None and value < minimum:
        errors.append(f"{key}: must be >= {minimum}, got {value}")
        return default
    return value


def _get_float(mapping, key, errors, default=None):
    raw = mapping.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        errors.append(f"{key}: expected number, got {raw!r}")
        return default


def _get_enum(mapping, key, errors, allowed, default=None):
    raw = mapping.get(key)
    if raw is None:
        return default
    if raw not in allowed:
        errors.append(f"{key}: expected one of {', '.join(allowed)}; got {raw!r}")
        return default
    return raw


def _get_bool(mapping, key, errors, default=False):
    raw = mapping.get(key)
    if raw is None:
        return default
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    errors.append(f"{key}: expected boolean (true/false), got {raw!r}")
    return default


def _split_list(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _get_int_list(mapping, key, errors, minimum):
    raw = mapping.get(key)
    if raw is None:
        return ()
    out = []
    for tok in _split_list(raw):
        try:
            value = int(tok)
        except ValueError:
            errors.append(f"{key}: expected comma-separated integers, got {tok!r}")
            continue
        if value < minimum:
            errors.append(f"{key}: entries must be >= {minimum}, got {value}")
            continue
        out.append(value)
    return tuple(out)


def config_from_mapping(
    mapping: dict[str, str],
    parse_errors: list[str] | None = None,
    *,
    require_analyses: bool = True,
) -> RunConfig:
    """Validate a flat mapping into a RunConfig; raises ConfigError with
    every collected problem."""
    errors: list[str] = list(parse_errors or [])

    for key in sorted(mapping):
        if key not in KNOWN_KEYS:
            errors.append(f"unknown key {key!r}")

    input_path = mapping.get("input.path") or None
    ensemble_keys = [k for k in mapping if k.startswith("ensemble.")]
    ensemble = None
    if input_path and ensemble_keys:
        errors.append(
            "ambiguous input: both input.path and ensemble.* are set; choose one"
        )
    elif not input_path and not ensemble_keys:
        errors.append("no input: set input.path or ensemble.kind")
    elif ensemble_keys:
        kind = _get_enum(mapping, "ensemble.kind", errors, ENSEMBLE_KINDS)
        if "ensemble.kind" not in mapping:
            errors.append("ensemble.kind is required when ensemble.* keys are set")
        n_assets = _get_int(mapping, "ensemble.assets", errors, minimum=1)
        n_dates = _get_int(mapping, "ensemble.dates", errors, minimum=2)
        if kind and n_assets is None and "ensemble.assets" not in mapping:
            errors.append("ensemble.assets is required for a synthetic input")
        if kind and n_dates is None and "ensemble.dates" not in mapping:
            errors.append("ensemble.dates is required for a synthetic input")
        nu = _get_float(mapping, "ensemble.nu", errors, default=DEFAULT_STUDENT_NU)
        beta = _get_float(mapping, "ensemble.beta", errors, default=0.0)
        seed = _get_int(mapping, "ensemble.seed", errors, default=0)
        if kind and n_assets and n_dates:
            try:
                ensemble = EnsembleSpec(kind, n_assets, n_dates, nu=nu, beta=beta, seed=seed)
            except Exception as exc:
                errors.append(str(exc))

    ingest = IngestConfig()
    default_class = _get_enum(
        mapping, "assets.default_class", errors, ASSET_CLASSES, default=LOG_PRICE
    )
    rate_ids = tuple(_split_list(mapping.get("assets.rate_ids", "")))
    rate_scale = _get_float(mapping, "assets.rate_scale", errors, default=0.04)
    missing_policy = _get_enum(
        mapping, "assets.missing_policy", errors, MISSING_POLICIES, default="reject"
    )
    if rate_scale is not None and rate_scale <= 0:
        errors.append(f"assets.rate_scale: must be > 0, got {rate_scale}")
    else:
        try:
            ingest = IngestConfig(default_class, rate_ids, rate_scale, missing_policy)
        except Exception as exc:
            errors.append(str(exc))

    flavor = _get_enum(mapping, "matrix.flavor", errors, FLAVORS, default="covariance")

    kernel_scheme = _get_enum(
        mapping, "kernel.scheme", errors, KERNEL_SCHEMES, default=LONG_MEMORY
    )
    kernel_length = _get_int(
        mapping, "kernel.length", errors, default=DEFAULT_LENGTH, minimum=1
    )
    kernel_mu = _get_float(mapping, "kernel.mu", errors)
    if kernel_mu is not None and not 0.0 < kernel_mu < 1.0:
        errors.append(f"kernel.mu: mu must be in (0,1), got {kernel_mu}")
    kernel_tau0 = _get_float(
        mapping, "kernel.tau0_days", errors, default=DEFAULT_TAU0_DAYS
    )
    if kernel_tau0 is not None and kernel_tau0 <= 1.0:
        errors.append(f"kernel.tau0_days: must exceed 1, got {kernel_tau0}")
    if kernel_scheme == "exponential" and kernel_mu is None:
        errors.append("kernel.mu is required for the exponential scheme")

    eval_start = mapping.get("eval.start")
    eval_end = mapping.get("eval.end")
    if eval_start and eval_end and eval_start > eval_end:
        errors.append(f"eval.start {eval_start!r} is after eval.end {eval_end!r}")

    analyses_raw = _split_list(mapping.get("analyses", ""))
    analyses = []
    for name in analyses_raw:
        if name not in ANALYSES:
            errors.append(f"analyses: unknown analysis {name!r}")
        elif name not in analyses:
            analyses.append(name)
    if require_analyses and not analyses:
        errors.append("analyses: at least one analysis must be enabled")

    density_bins = _get_int(
        mapping, "density.bins", errors, default=DEFAULT_BIN_COUNT, minimum=1
    )
    density_scale = _get_enum(
        mapping, "density.scale", errors, ("linear", "logarithmic")
    )
    mp_q = _get_float(mapping, "mp.q", errors)
    if mp_q is not None and not 0.0 < mp_q <= 1.0:
        errors.append(f"mp.q: must be in (0, 1], got {mp_q}")

    projector_ranks = _get_int_list(mapping, "projectors.ranks", errors, minimum=1)
    lags = _get_int_list(mapping, "lagged.lags", errors, minimum=0)
    lagged_length = _get_int(
        mapping, "lagged.length", errors, default=LAGGED_KERNEL_LENGTH, minimum=1
    )
    if ("projectors" in analyses or "fluctuation" in analyses) and not projector_ranks:
        errors.append("projectors.ranks is required when projectors or fluctuation is enabled")
    if "lagged" in analyses and not lags:
        errors.append("lagged.lags is required when lagged is enabled")

    output_dir = mapping.get("output.dir", "out")
    output_format = _get_enum(
        mapping, "output.format", errors, OUTPUT_FORMATS, default="csv"
    )
    dump_matrices = _get_bool(mapping, "output.dump_matrices", errors, default=False)
    # Accepted and checked so that existing configs load; selects nothing.
    _get_int(mapping, "threads", errors, default=1, minimum=1)
    synth_output = _get_enum(
        mapping, "synth.output", errors, SYNTH_OUTPUTS, default="prices"
    )
    synth_path = mapping.get("synth.path")

    if errors:
        raise ConfigError(errors)

    return RunConfig(
        input_path=input_path,
        ensemble=ensemble,
        ingest=ingest,
        flavor=flavor,
        kernel_scheme=kernel_scheme,
        kernel_length=kernel_length,
        kernel_mu=kernel_mu,
        kernel_tau0_days=kernel_tau0,
        eval_start=eval_start,
        eval_end=eval_end,
        analyses=tuple(analyses),
        density_bins=density_bins,
        density_scale=density_scale,
        mp_q=mp_q,
        projector_ranks=projector_ranks,
        lags=lags,
        lagged_length=lagged_length,
        output_dir=output_dir,
        output_format=output_format,
        dump_matrices=dump_matrices,
        synth_output=synth_output,
        synth_path=synth_path,
    )


def validate_config(
    path,
    overrides: dict[str, str] | None = None,
    *,
    require_analyses: bool = True,
) -> RunConfig:
    """Load, override, and validate a config file.

    Raises ConfigError carrying every collected error, not just the first.
    """
    with open(path) as fh:
        mapping, parse_errors = parse_flat_text(fh.read())
    for key, value in (overrides or {}).items():
        mapping[key] = value
    return config_from_mapping(mapping, parse_errors, require_analyses=require_analyses)
