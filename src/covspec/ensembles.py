"""Synthetic return generators with known spectral behavior.

Three generators back the test oracles: iid unit-variance Gaussian panels
(whose equal-weight correlation spectra follow Marchenko-Pastur), iid
Student-t panels rescaled to unit variance, and a one-factor market model
r_alpha = beta*f + sqrt(1-beta^2)*eta_alpha whose population correlation
has leading eigenvalue 1 + (N-1)*beta^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .panel import ReturnPanel, make_business_dates

GAUSSIAN_IID = "gaussian-iid"
STUDENT_IID = "student-iid"
ONE_FACTOR = "one-factor"
ENSEMBLE_KINDS = (GAUSSIAN_IID, STUDENT_IID, ONE_FACTOR)

DEFAULT_STUDENT_NU = 5.0


@dataclass(frozen=True)
class EnsembleSpec:
    """Generator kind, panel shape, distribution parameters, and seed."""

    kind: str
    n_assets: int
    n_dates: int
    nu: float = DEFAULT_STUDENT_NU
    beta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ParameterError(f"unknown ensemble kind {self.kind!r}")
        if self.n_assets < 1:
            raise ParameterError(f"need at least 1 asset, got {self.n_assets}")
        if self.n_dates < 2:
            raise ParameterError(f"need at least 2 dates, got {self.n_dates}")
        if self.kind == STUDENT_IID and not self.nu > 2.0:
            raise ParameterError(f"nu must exceed 2 for finite variance, got {self.nu}")
        if self.kind == ONE_FACTOR and not 0.0 <= self.beta < 1.0:
            raise ParameterError(f"beta must be in [0, 1), got {self.beta}")


def generate_returns(spec: EnsembleSpec) -> ReturnPanel:
    """Deterministic N x T return panel for the given spec and seed."""
    rng = np.random.default_rng(spec.seed)
    n, t = spec.n_assets, spec.n_dates
    if spec.kind == GAUSSIAN_IID:
        returns = rng.standard_normal((n, t))
    elif spec.kind == STUDENT_IID:
        returns = rng.standard_t(spec.nu, size=(n, t)) * np.sqrt(
            (spec.nu - 2.0) / spec.nu
        )
    else:
        factor = rng.standard_normal(t)
        noise = rng.standard_normal((n, t))
        returns = spec.beta * factor + np.sqrt(1.0 - spec.beta**2) * noise

    width = max(3, len(str(n - 1)))
    asset_ids = tuple(f"a{i:0{width}d}" for i in range(n))
    return ReturnPanel(asset_ids, make_business_dates(t), returns)


def top_eigenvalue_oracle(spec: EnsembleSpec) -> float:
    """Leading eigenvalue 1 + (N-1)*beta^2 of the one-factor population
    correlation matrix."""
    if spec.kind != ONE_FACTOR:
        raise ParameterError(f"oracle applies to one-factor specs, got {spec.kind!r}")
    return 1.0 + (spec.n_assets - 1) * spec.beta**2
