import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochfeas import relaxation as rx
from stochfeas.exceptions import UsageError
from stochfeas.rngstreams import substream

from conftest import relaxation_cap, scalar_relaxation


def test_constant_moments():
    m = rx.Constant(1.9).moments()
    assert m.mean == pytest.approx(1.9, abs=0)
    assert m.second_moment == pytest.approx(3.61, rel=1e-15)
    assert m.damping == pytest.approx(0.19, rel=1e-12)


def test_two_point_moments():
    m = rx.TwoPoint(2.3, 0.5, 1.5).moments()
    assert m.mean == pytest.approx(1.9, abs=1e-15)
    assert m.second_moment == pytest.approx((2.3 ** 2 + 1.5 ** 2) / 2, abs=0)
    assert m.damping == pytest.approx(0.03, abs=1e-14)


def test_two_point_mean_matches_monte_carlo():
    rng = np.random.default_rng(99)
    draws = rx.TwoPoint(2.3, 0.5, 1.5).sample(rng, 10 ** 6)
    sigma = draws.std() / len(draws) ** 0.5
    assert abs(draws.mean() - 1.9) < 3 * sigma + 1e-4


def test_uniform_moments():
    m = rx.UniformInterval(1.5, 2.3).moments()
    assert m.mean == pytest.approx(1.9, abs=1e-15)
    assert m.second_moment == pytest.approx(10.99 / 3, rel=1e-14)
    assert m.damping == pytest.approx(2 * 1.9 - 10.99 / 3, abs=1e-12)


def test_uniform_moments_match_monte_carlo():
    rng = np.random.default_rng(7)
    draws = rx.UniformInterval(1.5, 2.3).sample(rng, 10 ** 5)
    assert abs(draws.mean() - 1.9) < 0.01 * 1.9
    assert draws.min() >= 1.5 and draws.max() <= 2.3
    sigma2 = (draws ** 2).std() / len(draws) ** 0.5
    assert abs((draws ** 2).mean() - 10.99 / 3) < 4 * sigma2


def test_damping_identity_exact():
    for s in (rx.Constant(0.3), rx.Constant(2.0), rx.TwoPoint(2.3, 0.25, 0.5),
              rx.UniformInterval(0.1, 1.9)):
        m = s.moments()
        assert m.damping == 2.0 * m.mean - m.second_moment  # bitwise, by construction


@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.01, 3.0), p=st.floats(0.0, 1.0), b=st.floats(0.01, 3.0))
def test_two_point_jensen(a, p, b):
    m = rx.TwoPoint(a, p, b).moments()
    assert m.second_moment >= m.mean ** 2 - 1e-12


def test_constant_sampling():
    rng = np.random.default_rng(0)
    assert rx.Constant(1.9).sample(rng, 10).tolist() == [1.9] * 10


@pytest.mark.parametrize("strategy", [
    rx.Constant(1.9), rx.TwoPoint(2.3, 0.3, 1.5), rx.UniformInterval(1.5, 2.3),
], ids=["constant", "two_point", "uniform"])
def test_draws_equal_scalar_transcription(strategy):
    # 2500 draws cross two chunk boundaries of draws()
    chunks = strategy.draws(np.random.default_rng(8))
    chunked = list(itertools.islice(itertools.chain.from_iterable(chunks), 2500))
    rng = np.random.default_rng(8)
    assert chunked == [scalar_relaxation(strategy, rng) for _ in range(2500)]


def test_two_point_sampling_frequency():
    rng = np.random.default_rng(5)
    s = rx.TwoPoint(2.3, 0.5, 1.5)
    draws = s.sample(rng, 10 ** 5)
    frac = float(np.mean(draws == 2.3))
    assert abs(frac - 0.5) < 0.01 * 0.5


def test_bounded_by_two_samples_stay_inside():
    rng = np.random.default_rng(3)
    for s in (rx.Constant(1.0), rx.UniformInterval(0.5, 1.99), rx.TwoPoint(1.9, 0.3, 0.1)):
        v = s.sample(rng, 1000)
        assert np.all((0.0 < v) & (v < 2.0))


def test_invalid_strategies_rejected():
    with pytest.raises(UsageError):
        rx.Constant(0.0)
    with pytest.raises(UsageError):
        rx.Constant(-1.0)
    with pytest.raises(UsageError):
        rx.UniformInterval(2.0, 1.0)
    with pytest.raises(UsageError):
        rx.UniformInterval(0.0, 1.0)
    with pytest.raises(UsageError):
        rx.TwoPoint(1.0, 1.5, 2.0)


def test_cap_defaults_to_at_least_two():
    assert relaxation_cap(rx.Constant(1.0)) == 2.0
    assert relaxation_cap(rx.TwoPoint(2.3, 0.5, 1.5)) == 2.3
    assert relaxation_cap(rx.UniformInterval(1.5, 2.3)) == 2.3


@pytest.mark.parametrize("strategy, label", [
    (rx.Constant(1.0), "const1"),
    (rx.Constant(0.5), "const0.5"),
    (rx.TwoPoint(2.3, 0.5, 1.5), "twopoint2.3-0.5-1.5"),
    (rx.UniformInterval(1.5, 2.3), "uniform1.5-2.3"),
])
def test_strategy_label(strategy, label):
    assert rx.strategy_label(strategy) == label


def test_serialization_round_trip():
    for obj, s in (
        ({"kind": "constant", "value": 1.9}, rx.Constant(1.9)),
        ({"kind": "two_point", "a": 2.3, "p_a": 0.5, "b": 1.5}, rx.TwoPoint(2.3, 0.5, 1.5)),
        ({"kind": "uniform", "lo": 1.5, "hi": 2.3}, rx.UniformInterval(1.5, 2.3)),
    ):
        back = rx.strategy_from_config(obj)
        assert back == s
        assert back.moments() == s.moments()


def test_serialization_example_form():
    s = rx.strategy_from_config({"kind": "two_point", "a": 2.3, "p_a": 0.5, "b": 1.5})
    assert isinstance(s, rx.TwoPoint)
    with pytest.raises(UsageError):
        rx.strategy_from_config({"kind": "bogus"})
    with pytest.raises(UsageError):
        rx.strategy_from_config({"value": 1.0})


def test_stream_separation_isolates_relaxation_draws():
    """Consuming the index stream must not shift the relaxation stream."""
    s = rx.UniformInterval(1.5, 2.3)
    seed = 42
    lam_rng = substream(seed, "relaxation")
    baseline = list(itertools.islice(s.draws(lam_rng), 100))

    idx_rng = substream(seed, "index")
    idx_rng.random(12345)  # heavy, unrelated consumption
    lam_rng2 = substream(seed, "relaxation")
    again = list(itertools.islice(s.draws(lam_rng2), 100))
    assert baseline == again
