"""Run configuration: flat dotted-key text format, validation, defaults.

The config file is `key = value` lines (blank lines and `#` comment lines
ignored). Every problem is collected and reported together rather than
failing on the first one. `KEYS` declares every accepted key once: how its
value is read and checked, and which `RunConfig` attribute holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .ensembles import DEFAULT_STUDENT_NU, ENSEMBLE_KINDS, EnsembleSpec
from .errors import ConfigError, ParameterError
from .kernels import DEFAULT_LENGTH, DEFAULT_TAU0_DAYS, KERNEL_SCHEMES, LONG_MEMORY
from .panel import ASSET_CLASSES, LOG_PRICE, MISSING_POLICIES, IngestConfig, is_iso_date
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

# Keys echoed into the manifest; where outputs land must not change the
# manifest bytes.
_MANIFEST_EXCLUDED = {"output.dir"}
# Ensemble parameters echoed only for the kind that reads them.
_KIND_PARAMS = {"ensemble.nu": "student-iid", "ensemble.beta": "one-factor"}


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
        for key, (_, attr) in sorted(KEYS.items()):
            if attr is None or key in _MANIFEST_EXCLUDED:
                continue
            owner, _, name = attr.rpartition(".")
            holder = getattr(self, owner) if owner else self
            if holder is None or (key in _KIND_PARAMS and _KIND_PARAMS[key] != holder.kind):
                continue
            value = getattr(holder, name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, tuple):
                value = ",".join(str(v) for v in value) or None
            if value is not None:
                items[key] = str(value)
        return items


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


def _get_str(mapping, key, errors, default=None):
    raw = mapping.get(key, default)
    if raw == "":
        errors.append(f"{key}: must not be blank")
    return raw


def _get_path(mapping, key, errors):
    # A blank input.path counts as unset, so an ensemble input is not ambiguous.
    return mapping.get(key) or None


def _get_date(mapping, key, errors):
    raw = mapping.get(key)
    if raw is not None and not is_iso_date(raw):
        errors.append(f"{key}: expected a YYYY-MM-DD date, got {raw!r}")
    return raw


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


def _get_float(mapping, key, errors, default=None, bad=None, rule=""):
    """A finite number; nan, inf or `bad(value)` true appends an error but
    keeps the value, so the cross-key rules see what was given."""
    raw = mapping.get(key)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        errors.append(f"{key}: expected number, got {raw!r}")
        return default
    if not math.isfinite(value):
        errors.append(f"{key}: expected a finite number, got {raw!r}")
    elif bad is not None and bad(value):
        errors.append(f"{key}: {rule}, got {value}")
    return value


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


def _split_list(mapping, key) -> list[str]:
    return [tok.strip() for tok in mapping.get(key, "").split(",") if tok.strip()]


# Every list reader drops repeated entries, keeping first-occurrence order,
# so that no analysis runs twice.
def _get_names(mapping, key, errors):
    return tuple(dict.fromkeys(_split_list(mapping, key)))


def _get_analyses(mapping, key, errors):
    names = _get_names(mapping, key, errors)
    for name in names:
        if name not in ANALYSES:
            errors.append(f"analyses: unknown analysis {name!r}")
    return tuple(name for name in names if name in ANALYSES)


def _get_int_list(mapping, key, errors, minimum):
    out = []
    for tok in _split_list(mapping, key):
        try:
            value = int(tok)
        except ValueError:
            errors.append(f"{key}: expected comma-separated integers, got {tok!r}")
            continue
        if value < minimum:
            errors.append(f"{key}: entries must be >= {minimum}, got {value}")
            continue
        out.append(value)
    return tuple(dict.fromkeys(out))


def _enum(allowed, default=None):
    return partial(_get_enum, allowed=allowed, default=default)


# Every accepted key: its reader (bound to its default and checks) and the
# RunConfig attribute that holds its value, "owner.field" for the fields of
# `ensemble` and `ingest`, or None for a key that selects nothing.
KEYS = {
    "input.path": (_get_path, "input_path"),
    "ensemble.kind": (_enum(ENSEMBLE_KINDS), "ensemble.kind"),
    "ensemble.assets": (partial(_get_int, minimum=1), "ensemble.n_assets"),
    "ensemble.dates": (partial(_get_int, minimum=2), "ensemble.n_dates"),
    "ensemble.nu": (partial(_get_float, default=DEFAULT_STUDENT_NU), "ensemble.nu"),
    "ensemble.beta": (partial(_get_float, default=0.0), "ensemble.beta"),
    "ensemble.seed": (partial(_get_int, default=0), "ensemble.seed"),
    "assets.default_class": (_enum(ASSET_CLASSES, LOG_PRICE), "ingest.default_class"),
    "assets.rate_ids": (_get_names, "ingest.rate_ids"),
    "assets.rate_scale": (
        partial(_get_float, default=0.04, bad=lambda v: v <= 0, rule="must be > 0"),
        "ingest.rate_scale",
    ),
    "assets.missing_policy": (_enum(MISSING_POLICIES, "reject"), "ingest.missing_policy"),
    "matrix.flavor": (_enum(FLAVORS, "covariance"), "flavor"),
    "kernel.scheme": (_enum(KERNEL_SCHEMES, LONG_MEMORY), "kernel_scheme"),
    "kernel.length": (partial(_get_int, default=DEFAULT_LENGTH, minimum=1), "kernel_length"),
    "kernel.mu": (
        partial(_get_float, bad=lambda v: not 0.0 < v < 1.0, rule="mu must be in (0,1)"),
        "kernel_mu",
    ),
    "kernel.tau0_days": (
        partial(_get_float, default=DEFAULT_TAU0_DAYS, bad=lambda v: v <= 1.0,
                rule="must exceed 1"),
        "kernel_tau0_days",
    ),
    "eval.start": (_get_date, "eval_start"),
    "eval.end": (_get_date, "eval_end"),
    "analyses": (_get_analyses, "analyses"),
    "density.bins": (partial(_get_int, default=DEFAULT_BIN_COUNT, minimum=1), "density_bins"),
    "density.scale": (_enum(("linear", "logarithmic")), "density_scale"),
    "mp.q": (
        partial(_get_float, bad=lambda v: not 0.0 < v <= 1.0, rule="must be in (0, 1]"),
        "mp_q",
    ),
    "projectors.ranks": (partial(_get_int_list, minimum=1), "projector_ranks"),
    "lagged.lags": (partial(_get_int_list, minimum=0), "lags"),
    "lagged.length": (
        partial(_get_int, default=LAGGED_KERNEL_LENGTH, minimum=1), "lagged_length"
    ),
    "output.dir": (partial(_get_str, default="out"), "output_dir"),
    "output.format": (_enum(OUTPUT_FORMATS, "csv"), "output_format"),
    "output.dump_matrices": (_get_bool, "dump_matrices"),
    # Accepted and checked so that existing configs load; selects nothing.
    "threads": (partial(_get_int, default=1, minimum=1), None),
    "synth.output": (_enum(SYNTH_OUTPUTS, "prices"), "synth_output"),
    "synth.path": (_get_str, "synth_path"),
}


def config_from_mapping(
    mapping: dict[str, str],
    parse_errors: list[str] | None = None,
    *,
    require_analyses: bool = True,
) -> RunConfig:
    """Validate a flat mapping into a RunConfig; raises ConfigError with
    every collected problem: parse errors, unknown keys, each key's own
    errors in `KEYS` order, then the rules that span keys."""
    errors: list[str] = list(parse_errors or [])
    errors += [f"unknown key {key!r}" for key in sorted(mapping) if key not in KEYS]
    values = {key: read(mapping, key, errors) for key, (read, _) in KEYS.items()}
    fields: dict[str, dict] = {"": {}, "ensemble": {}, "ingest": {}}
    for key, (_, attr) in KEYS.items():
        if attr is not None:
            owner, _, name = attr.rpartition(".")
            fields[owner][name] = values[key]

    ensemble_keys = [k for k in mapping if k.startswith("ensemble.")]
    ensemble = None
    if values["input.path"] and ensemble_keys:
        errors.append(
            f"ambiguous input: input.path and {', '.join(sorted(ensemble_keys))} "
            "are set; choose one"
        )
    elif not values["input.path"] and not ensemble_keys:
        errors.append("no input: set input.path or ensemble.kind")
    elif ensemble_keys:
        if "ensemble.kind" not in mapping:
            errors.append("ensemble.kind is required when ensemble.* keys are set")
        kind = values["ensemble.kind"]
        for key in ("ensemble.assets", "ensemble.dates"):
            if kind and key not in mapping:
                errors.append(f"{key} is required for a synthetic input")
        if kind and values["ensemble.assets"] and values["ensemble.dates"]:
            try:
                ensemble = EnsembleSpec(**fields["ensemble"])
            except ParameterError as exc:
                errors.append(str(exc))

    if values["kernel.scheme"] == "exponential" and values["kernel.mu"] is None:
        errors.append("kernel.mu is required for the exponential scheme")
    start, end = values["eval.start"], values["eval.end"]
    if start and end and start > end:
        errors.append(f"eval.start {start!r} is after eval.end {end!r}")
    analyses = values["analyses"]
    if require_analyses and not analyses:
        errors.append("analyses: at least one analysis must be enabled")
    if {"projectors", "fluctuation"} & set(analyses) and not values["projectors.ranks"]:
        errors.append("projectors.ranks is required when projectors or fluctuation is enabled")
    if "lagged" in analyses and not values["lagged.lags"]:
        errors.append("lagged.lags is required when lagged is enabled")

    if errors:
        raise ConfigError(errors)
    return RunConfig(ensemble=ensemble, ingest=IngestConfig(**fields["ingest"]), **fields[""])


def validate_config(
    path,
    overrides: dict[str, str] | None = None,
    *,
    require_analyses: bool = True,
) -> RunConfig:
    """Load, override, and validate a config file.

    Raises ConfigError carrying every collected error, not just the first.
    """
    with open(path, encoding="utf-8") as fh:
        mapping, parse_errors = parse_flat_text(fh.read())
    for key, value in (overrides or {}).items():
        mapping[key] = value
    return config_from_mapping(mapping, parse_errors, require_analyses=require_analyses)
