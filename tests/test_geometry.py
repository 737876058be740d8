import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochfeas.geometry import fejer_decrement
from stochfeas.operators import LinearFamily

from conftest import halfspace_proj_oracle


def test_tie_gives_zero_step():
    # <x, a> == b exactly: the clamp leaves <x, a> as it is, with no
    # tolerance, so the member fixes x and the batch is all-fixed
    x = np.array([1.0, 0.0])
    assert LinearFamily([[1.0, 0.0]], [-np.inf], [1.0]).evaluate([0], x) is None
    np.testing.assert_array_equal(x - halfspace_proj_oracle(np.array([1.0, 0.0]), 1.0, x), [0.0, 0.0])


def test_fejer_decrement_examples():
    z = np.zeros(2)
    x = np.array([2.0, 0.0])
    d = x - halfspace_proj_oracle(np.array([1.0, 0.0]), 0.0, x)
    np.testing.assert_array_equal(d, [2.0, 0.0])
    x_next = x - 1.0 * d
    np.testing.assert_allclose(x_next, [0.0, 0.0], atol=0)
    # hand expansion: 4 - 0 - 1*1*4 = 0
    assert fejer_decrement(x, x_next, z, 1.0, d) == pytest.approx(0.0, abs=1e-15)
    # z = (-1, 0): 9 - 1 - 4 = 4
    assert fejer_decrement(x, x_next, np.array([-1.0, 0.0]), 1.0, d) == pytest.approx(4.0, abs=1e-12)
    # degenerate: everything equal, zero step
    assert fejer_decrement(z, z, z, 0.7, np.zeros(2)) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(min_value=1, max_value=6),
    lam=st.floats(min_value=1e-6, max_value=2.0),
)
def test_pathwise_fejer_property(data, dim, lam):
    """For d = x - P(x) with P the projection onto a half-space containing
    z and lam in ]0, 2], the decrement is nonnegative up to
    1e-10 (1 + ||x - z||^2)."""
    finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
    x = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
    t = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
    z = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
    eta_slack = data.draw(st.floats(min_value=0, max_value=5))
    eta = float(z @ t) + eta_slack  # guarantees <z, t> <= eta
    # a half-space needs a normal whose squared norm does not underflow
    assume(float(t @ t) > 1e-300)
    d = x - halfspace_proj_oracle(t, eta, x)
    x_next = x - lam * d
    dec = fejer_decrement(x, x_next, z, lam, d)
    dist_sq = float((x - z) @ (x - z))
    assert dec >= -1e-10 * (1.0 + dist_sq)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(min_value=1, max_value=5),
       lam=st.floats(min_value=0.01, max_value=5.0))
def test_update_identity_with_cross_term(data, dim, lam):
    """Exact algebraic identity
    ||x+ - z||^2 = ||x - z||^2 - lam(2-lam)||d||^2 + 2 lam <z + d - x, d>."""
    finite = st.floats(min_value=-5, max_value=5, allow_nan=False)
    x = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
    t = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
    z = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
    eta = data.draw(finite)
    assume(float(t @ t) > 1e-300)
    d = x - halfspace_proj_oracle(t, eta, x)
    x_next = x - lam * d
    lhs = float((x_next - z) @ (x_next - z))
    rhs = float((x - z) @ (x - z)) - lam * (2 - lam) * float(d @ d) \
        + 2 * lam * float((z + d - x) @ d)
    scale = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) <= 1e-9 * scale
