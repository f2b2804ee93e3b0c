"""Finite-difference gradient checks: the input and parameter entry points
share one probe, including its error contract."""

import numpy as np
import pytest

from relattn.gradcheck import GradientCheckError, check_gradients, \
    check_parameter_gradients
from relattn.tensor import Tensor, mul, tsum


def via_input(fn, data):
    return check_gradients(fn, Tensor(data))


def via_parameter(fn, data):
    leaf = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
    return check_parameter_gradients(lambda: fn(leaf), leaf)


ENTRY_POINTS = pytest.mark.parametrize("check", [via_input, via_parameter],
                                       ids=["check_gradients",
                                            "check_parameter_gradients"])


@ENTRY_POINTS
def test_non_finite_expansion_point_raises(check):
    with pytest.raises(GradientCheckError, match="expansion point"):
        check(tsum, [1.0, np.inf])


@ENTRY_POINTS
def test_non_scalar_loss_raises(check):
    with pytest.raises(ValueError, match="scalar"):
        check(lambda t: mul(t, 2.0), [1.0, 2.0, 3.0])


def test_input_is_left_unchanged():
    x = Tensor(np.array([0.25, -0.75]))
    before = x.data.copy()
    check_gradients(lambda t: tsum(mul(t, t)), x)
    np.testing.assert_array_equal(x.data, before)
    assert x.grad is None
