import numpy as np
import pytest

from stochfeas import relaxation as rx
from stochfeas.exceptions import ConfigurationError, NumericError
from stochfeas.fixedpoint import (
    DecayingNoise,
    GradientFamily,
    KmConfig,
    SgdConfig,
    quadratic_family,
    run_km,
    run_sgd,
)
from stochfeas.operators import sample_indices

from conftest import halfspace_proj_oracle

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation(x):
    return ROT90 @ x


class TestKm:
    def test_identity_operator_is_stationary(self):
        cfg = KmConfig(rx.UniformInterval(0.2, 0.8), max_iters=50, seed=1, atol=0.0)
        final, trace = run_km(lambda x: x, cfg, [3.0, -2.0])
        np.testing.assert_array_equal(final, [3.0, -2.0])
        assert np.all(trace.residuals() == 0.0)
        assert trace.footer["errors"] == "zero"

    def test_rotation_converges(self):
        cfg = KmConfig(rx.Constant(0.5, cap=2.0), max_iters=200, seed=7, atol=0.0)
        final, trace = run_km(rotation, cfg, [1.0, 0.0])
        assert trace.residuals()[-1] < 1e-6
        # averaged rotation contracts by cos(45 deg) per step
        norms = np.array([np.linalg.norm([1.0, 0.0])])
        x = np.array([1.0, 0.0])
        for _ in range(20):
            x = x + 0.5 * (rotation(x) - x)
            norms = np.append(norms, np.linalg.norm(x))
        ratios = norms[1:] / norms[:-1]
        np.testing.assert_allclose(ratios, np.cos(np.pi / 4), rtol=1e-12)

    def test_composition_of_projections(self):
        def T(x):
            y = halfspace_proj_oracle([0.0, 1.0], 0.0, x)
            return halfspace_proj_oracle([1.0, 0.0], 0.0, y)

        cfg = KmConfig(rx.Constant(0.9, cap=2.0), max_iters=400, seed=3, atol=0.0)
        final, _ = run_km(T, cfg, [1.0, 1.0])
        assert max(final[0], final[1], 0.0) < 1e-8  # membership in both half-spaces

    def test_support_bound_enforced(self):
        with pytest.raises(ConfigurationError, match=r"mu_n in \]0, 1/alpha\[ = \]0, 1\["):
            KmConfig(rx.Constant(1.0, cap=2.0), max_iters=10, seed=0)

    @pytest.mark.parametrize("kwargs, hypothesis", [
        (dict(mu_strategy=rx.UniformInterval(0.5, 1.0)), r"mu_n in \]0, 1/alpha\[ = \]0, 1\["),
        (dict(mu_strategy=rx.Constant(2.0), alpha=0.5), r"mu_n in \]0, 1/alpha\[ = \]0, 2\["),
        (dict(alpha=0.0), r"alpha in \]0, 1\]"),
        (dict(alpha=1.5), r"alpha in \]0, 1\]"),
        (dict(alpha=float("nan")), r"alpha in \]0, 1\]"),
        (dict(error_schedule=DecayingNoise(1.0, 1.0)), "summability certificate"),
    ], ids=["mu-sup-1", "mu-sup-1/alpha", "alpha-0", "alpha-above-1", "alpha-nan",
            "errors-not-summable"])
    def test_violation_names_hypothesis_at_construction(self, kwargs, hypothesis):
        kwargs = {"mu_strategy": rx.Constant(0.5), **kwargs}
        with pytest.raises(ConfigurationError, match=hypothesis):
            KmConfig(max_iters=10, seed=0, **kwargs)

    def test_quasi_fejer_pathwise_error_free(self, rng):
        # for e_n = 0 and mu in ]0,1[, distances to a fixed point never grow
        z = np.zeros(2)
        cfg = KmConfig(rx.UniformInterval(0.05, 0.95), max_iters=300, seed=17, atol=0.0)
        x = np.array([1.0, 0.0])
        from stochfeas.rngstreams import substream
        mu_rng = substream(17, "relaxation")
        prev = np.linalg.norm(x - z)
        for _ in range(300):
            mu = cfg.mu_strategy.sample(mu_rng)
            x = x + mu * (rotation(x) - x)
            dist = np.linalg.norm(x - z)
            assert dist <= prev + 1e-10
            prev = dist

    def test_determinism(self):
        cfg = KmConfig(rx.UniformInterval(0.1, 0.9), max_iters=100, seed=5, atol=0.0,
                       error_schedule=DecayingNoise(0.5, 1.5))
        f1, t1 = run_km(rotation, cfg, [1.0, 0.0])
        f2, t2 = run_km(rotation, cfg, [1.0, 0.0])
        np.testing.assert_array_equal(f1, f2)
        assert [r.residual for r in t1.rows] == [r.residual for r in t2.rows]
        assert [r.lam for r in t1.rows] == [r.lam for r in t2.rows]

    def test_noise_certificate_rejected_when_not_summable(self):
        with pytest.raises(ConfigurationError):
            KmConfig(rx.Constant(0.5, cap=2.0), max_iters=10, seed=0,
                     error_schedule=DecayingNoise(1.0, 0.9))

    def test_noisy_rotation_still_converges(self):
        cfg = KmConfig(rx.Constant(0.5, cap=2.0), max_iters=2000, seed=11,
                       error_schedule=DecayingNoise(1.0, 1.5), atol=0.0)
        final, trace = run_km(rotation, cfg, [1.0, 0.0])
        assert trace.residuals()[-1] < 1e-4

    def test_divergence_guard(self):
        cfg = KmConfig(rx.Constant(0.9, cap=2.0), max_iters=500, seed=0, atol=0.0)
        with pytest.raises(NumericError):
            run_km(lambda x: 3.0 * x, cfg, [1.0, 1.0])  # expansive map blows up


class TestKmAveraged:
    def test_firmly_nonexpansive_projection_with_large_mu(self):
        T = lambda x: halfspace_proj_oracle([1.0, 0.0], 0.0, x)  # 1/2-averaged
        cfg = KmConfig(rx.Constant(1.5, cap=2.0), max_iters=300, seed=2, alpha=0.5, atol=0.0)
        final, _ = run_km(T, cfg, [2.0, 1.0])
        assert final[0] < 1e-8

    def test_support_violation_rejected(self):
        with pytest.raises(ConfigurationError, match=r"mu_n in \]0, 1/alpha\[ = \]0, 2\["):
            KmConfig(rx.Constant(2.5), max_iters=10, seed=0, alpha=0.5)

    def test_identity_stationary(self):
        cfg = KmConfig(rx.Constant(1.2, cap=2.0), max_iters=20, seed=0, alpha=0.7, atol=0.0)
        final, _ = run_km(lambda x: x, cfg, [4.0, -1.0])
        np.testing.assert_array_equal(final, [4.0, -1.0])


class TestSgd:
    def test_zero_variance_quadratic(self):
        family = GradientFamily([lambda x: x], mean_gradient=lambda x: x,
                                variance_bound=0.0)
        cfg = SgdConfig(beta=1.0, nu=1.0, max_iters=10_000, seed=0,
                        gradient_family=family, record_every=100)
        final, trace = run_sgd(cfg, [1.0, 1.0])
        assert np.linalg.norm(final) < 1e-3
        # closed-form cross-check: prod_{j<n} (1 - 2/(j+1)) kills x at n = 2
        x = np.array([1.0, 1.0])
        for j in range(5):
            x = x * (1.0 - 2.0 / (j + 1.0))
        assert np.linalg.norm(x) == 0.0

    def test_step_size_law_exact(self):
        family = GradientFamily([lambda x: x], lambda x: x, 0.0)
        cfg = SgdConfig(beta=0.7, nu=0.8, max_iters=50, seed=1,
                        gradient_family=family)
        _, trace = run_sgd(cfg, [1.0])
        for row in trace.rows:
            n = row.iteration
            assert row.lam == 2.0 * 0.7 / (n + 1.0) ** 0.8  # bitwise equality

    def test_nu_hypothesis_rejected(self):
        family = GradientFamily([lambda x: x], lambda x: x, 0.0)
        for nu in (0.5, 2.0 / 3.0, 1.01, 0.0):
            with pytest.raises(ConfigurationError, match=r"nu in \]2/3, 1\] violated"):
                SgdConfig(beta=1.0, nu=nu, max_iters=10, seed=0, gradient_family=family)

    def test_unbiasedness_spot_check_catches_biased_family(self):
        biased = GradientFamily([lambda x: x + 1.0], mean_gradient=lambda x: x,
                                variance_bound=1e-6)
        cfg = SgdConfig(beta=1.0, nu=0.75, max_iters=10, seed=0,
                        gradient_family=biased)
        with pytest.raises(ConfigurationError):
            run_sgd(cfg, [0.0, 0.0])

    def test_builtin_family_unbiased_on_random_points(self, rng):
        center = rng.normal(size=5)
        offsets = rng.uniform(-0.3, 0.3, size=(12, 5))
        fam = quadratic_family(center, offsets)
        m = 10_000
        sigma = np.sqrt(fam.variance_bound)
        from stochfeas.rngstreams import substream
        indices = fam.draws(substream(123, "validation"))
        for _ in range(10):
            x = rng.normal(size=5) * 2
            acc = np.zeros(5)
            for _ in range(m):
                acc += fam.gradient(next(indices), x)
            acc /= m
            target = fam.mean_gradient(x)
            assert np.linalg.norm(acc - target) <= 4.0 / np.sqrt(m) * sigma

    def test_stochastic_quadratic_gradient_norm_decreases(self):
        rng = np.random.default_rng(0)
        center = rng.uniform(-1, 1, size=4)
        offsets = rng.uniform(-0.25, 0.25, size=(10, 4))
        fam = quadratic_family(center, offsets)
        cfg = SgdConfig(beta=1.0, nu=0.75, max_iters=20_000, seed=42,
                        gradient_family=fam, record_every=100)
        final, trace = run_sgd(cfg, np.zeros(4))
        res = trace.residuals()
        assert res[-1] < 0.05
        assert res[-1] < res[0]

    def test_determinism(self):
        fam = quadratic_family(np.zeros(3), np.array([[0.1, 0, 0], [-0.1, 0, 0]]))
        cfg = SgdConfig(beta=1.0, nu=0.75, max_iters=500, seed=9, gradient_family=fam)
        f1, t1 = run_sgd(cfg, np.ones(3))
        f2, t2 = run_sgd(cfg, np.ones(3))
        np.testing.assert_array_equal(f1, f2)
        assert [r.residual for r in t1.rows] == [r.residual for r in t2.rows]

    def test_indices_equal_scalar_draw_replay(self):
        rng = np.random.default_rng(3)
        fam = quadratic_family(rng.uniform(-1, 1, size=3), rng.uniform(-0.3, 0.3, size=(7, 3)))
        # 2500 steps cross two refills of the bulk index buffer
        cfg = SgdConfig(beta=1.0, nu=0.75, max_iters=2500, seed=17, gradient_family=fam)
        final, _ = run_sgd(cfg, np.zeros(3))
        from stochfeas.rngstreams import substream
        idx_rng = substream(17, "index")
        x = np.zeros(3)
        for n in range(2500):
            k = sample_indices(fam, idx_rng, 1).item()
            x = x - cfg.step_size(n) * fam.gradient(k, x)
        np.testing.assert_array_equal(final, x)


class TestErrorSchedules:
    def test_decaying_bound_honored(self, rng):
        sched = DecayingNoise(2.0, 1.25)
        from stochfeas.rngstreams import substream
        noise_rng = substream(0, "noise")
        for n in range(200):
            e = sched.sample(n, 8, noise_rng)
            assert np.linalg.norm(e) <= 2.0 / (n + 1) ** 1.25 + 1e-15
