import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covspec import build_kernel, effective_length
from covspec.errors import KernelClippingWarning, ParameterError

# direct evaluation of the raw long-memory weights at the default parameters
LM_RAW_RATIO = 1.0 / (1.0 - math.log(260.0) / math.log(1560.0))


def test_rectangular_equal_weights():
    kernel = build_kernel("rectangular", 4)
    assert kernel.weights == pytest.approx([0.25, 0.25, 0.25, 0.25], abs=1e-15)


def test_exponential_geometric_normalization():
    kernel = build_kernel("exponential", 3, mu=0.5)
    assert kernel.weights == pytest.approx([4 / 7, 2 / 7, 1 / 7], abs=1e-15)


def test_long_memory_default_window():
    kernel = build_kernel("long-memory", 260, tau0_days=1560)
    assert kernel.weights.size == 260
    assert kernel.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(kernel.weights) < 0)
    # normalization cancels in the ratio, exposing the raw formula
    assert kernel.weights[0] / kernel.weights[-1] == pytest.approx(
        LM_RAW_RATIO, rel=1e-12
    )
    assert kernel.weights[0] / kernel.weights[-1] == pytest.approx(
        4.103475509138088, rel=1e-12
    )


def test_effective_length_rectangular_is_window():
    assert effective_length(build_kernel("rectangular", 21)) == pytest.approx(21.0)


def test_effective_length_single_point():
    assert effective_length(build_kernel("rectangular", 1)) == pytest.approx(1.0)


def test_effective_length_exponential_limit():
    # (sum mu^i)^2 / sum mu^(2i) -> (1+mu)/(1-mu) = 3 for mu = 1/2
    assert effective_length(build_kernel("exponential", 50, mu=0.5)) == pytest.approx(
        3.0, abs=1e-6
    )


def test_invalid_length_rejected():
    with pytest.raises(ParameterError):
        build_kernel("rectangular", 0)
    with pytest.raises(ParameterError):
        build_kernel("rectangular", -3)


def test_mu_outside_unit_interval_rejected():
    for mu in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ParameterError, match="mu"):
            build_kernel("exponential", 10, mu=mu)


def test_tau0_nan_or_at_most_one_day_rejected():
    for tau0 in (float("nan"), 1.0, 0.5):
        with pytest.raises(ParameterError, match="tau0_days"):
            build_kernel("long-memory", 10, tau0_days=tau0)


def test_numpy_scalars_print_as_plain_numbers():
    cases = [
        ("rectangular", np.int64(0), {}, "kernel length must be a positive integer, got 0"),
        ("exponential", 10, {"mu": np.float64(1.5)}, "mu must be in (0,1), got 1.5"),
        ("long-memory", 10, {"tau0_days": np.float64(0.5)}, "tau0_days must exceed 1 day, got 0.5"),
    ]
    for scheme, length, kwargs, message in cases:
        with pytest.raises(ParameterError) as err:
            build_kernel(scheme, length, **kwargs)
        assert str(err.value) == message


def test_exponential_requires_mu():
    with pytest.raises(ParameterError, match="mu"):
        build_kernel("exponential", 10)


def test_unknown_scheme_rejected():
    with pytest.raises(ParameterError, match="scheme"):
        build_kernel("triangular", 10)


def test_small_tau0_warns_and_clips():
    with pytest.warns(KernelClippingWarning):
        kernel = build_kernel("long-memory", 260, tau0_days=50.0)
    assert kernel.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert kernel.weights.min() == 0.0
    assert np.all(np.diff(kernel.weights) <= 0)


def test_rectangular_maximizes_effective_length_at_fixed_support():
    length = 260
    t_rect = effective_length(build_kernel("rectangular", length))
    t_exp = effective_length(build_kernel("exponential", length, mu=0.97))
    t_lm = effective_length(build_kernel("long-memory", length, tau0_days=1560))
    assert t_rect >= t_exp
    assert t_rect >= t_lm


@st.composite
def kernel_args(draw):
    scheme = draw(st.sampled_from(["rectangular", "exponential", "long-memory"]))
    length = draw(st.integers(min_value=1, max_value=400))
    kwargs = {}
    if scheme == "exponential":
        kwargs["mu"] = draw(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    if scheme == "long-memory":
        kwargs["tau0_days"] = draw(st.floats(min_value=401.0, max_value=1e5))
    return scheme, length, kwargs


@settings(max_examples=100, deadline=None)
@given(kernel_args())
def test_kernel_invariants_hold_for_all_valid_parameters(args):
    scheme, length, kwargs = args
    kernel = build_kernel(scheme, length, **kwargs)
    assert kernel.weights.size == length
    assert abs(kernel.weights.sum() - 1.0) < 1e-12
    assert np.all(kernel.weights >= 0.0)
    assert np.all(np.diff(kernel.weights) <= 1e-18)
    t_eff = effective_length(kernel)
    assert 1.0 - 1e-9 <= t_eff <= length + 1e-9
