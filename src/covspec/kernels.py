"""Weight kernels for the rolling covariance estimator.

A kernel is a normalized, non-negative, non-increasing weight sequence
lambda(0..L-1), index 0 being the most recent return. Three shapes are
supported:

* rectangular: equal weights 1/L,
* exponential: lambda(i) proportional to mu**i with 0 < mu < 1,
* long-memory: raw weights 1 - ln((i+1)*dt) / ln(tau0) with dt = 1 day,
  clipped at zero and normalized. The (i+1) offset avoids ln(0) at the most
  recent lag.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import KernelClippingWarning, ParameterError

RECTANGULAR = "rectangular"
EXPONENTIAL = "exponential"
LONG_MEMORY = "long-memory"
KERNEL_SCHEMES = (RECTANGULAR, EXPONENTIAL, LONG_MEMORY)

DEFAULT_LENGTH = 260
DEFAULT_TAU0_DAYS = 1560.0


@dataclass(frozen=True)
class WeightKernel:
    """Normalized weight sequence with its construction parameters."""

    scheme: str
    weights: np.ndarray
    params: dict

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    @property
    def length(self) -> int:
        return self.weights.size

    def __len__(self) -> int:
        return self.weights.size


def build_kernel(
    scheme: str,
    length: int = DEFAULT_LENGTH,
    *,
    mu: float | None = None,
    tau0_days: float | None = None,
) -> WeightKernel:
    """Construct a normalized kernel of ``length`` points.

    ``mu`` applies to the exponential scheme, ``tau0_days`` to long-memory.
    A long-memory tau0 small enough to zero raw weights inside the window is
    accepted with a KernelClippingWarning; the zeroed tail is kept.
    """
    if scheme not in KERNEL_SCHEMES:
        raise ParameterError(f"unknown kernel scheme {scheme!r}")
    if not isinstance(length, (int, np.integer)) or length < 1:
        raise ParameterError(f"kernel length must be a positive integer, got {length!r}")

    params: dict = {"length": int(length)}
    if scheme == RECTANGULAR:
        raw = np.full(length, 1.0 / length)
    elif scheme == EXPONENTIAL:
        if mu is None:
            raise ParameterError("exponential kernel requires mu")
        if not 0.0 < mu < 1.0:
            raise ParameterError(f"mu must be in (0,1), got {mu!r}")
        params["mu"] = float(mu)
        raw = float(mu) ** np.arange(length)
    else:
        tau0 = DEFAULT_TAU0_DAYS if tau0_days is None else float(tau0_days)
        if not tau0 > 1.0:
            raise ParameterError(f"tau0_days must exceed 1 day, got {tau0!r}")
        params["tau0_days"] = tau0
        raw = 1.0 - np.log(np.arange(1, length + 1)) / np.log(tau0)
        if np.any(raw <= 0.0):
            warnings.warn(
                f"tau0_days={tau0} zeroes raw weights inside the {length}-point "
                "window; clipping at zero",
                KernelClippingWarning,
                stacklevel=2,
            )
            raw = np.clip(raw, 0.0, None)
    weights = raw / raw.sum()
    return WeightKernel(scheme, weights, params)


def effective_length(kernel: WeightKernel) -> float:
    """Equivalent flat-window sample size, 1 / sum(lambda(i)**2)."""
    return float(1.0 / np.sum(kernel.weights**2))
