import itertools
import warnings

import numpy as np
import pytest

from stochfeas import fixedpoint
from stochfeas import relaxation as rx
from stochfeas.exceptions import ConfigurationError, NumericError, UsageError
from stochfeas.fixedpoint import (
    DIVERGENCE_NORM,
    DecayingNoise,
    GradientFamily,
    KmConfig,
    SgdConfig,
    quadratic_family,
    run_km,
    run_sgd,
)
from stochfeas.rngstreams import substream

from conftest import halfspace_proj_oracle, replay_sgd, scalar_relaxation

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
        cfg = KmConfig(rx.Constant(0.5), max_iters=200, seed=7, atol=0.0)
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

        cfg = KmConfig(rx.Constant(0.9), max_iters=400, seed=3, atol=0.0)
        final, _ = run_km(T, cfg, [1.0, 1.0])
        assert max(final[0], final[1], 0.0) < 1e-8  # membership in both half-spaces

    def test_support_bound_enforced(self):
        with pytest.raises(ConfigurationError, match=r"mu_n in \]0, 1/alpha\[ = \]0, 1\["):
            KmConfig(rx.Constant(1.0), max_iters=10, seed=0)

    @pytest.mark.parametrize("kwargs, hypothesis", [
        (dict(mu_strategy=rx.UniformInterval(0.5, 1.0)), r"mu_n in \]0, 1/alpha\[ = \]0, 1\["),
        (dict(mu_strategy=rx.Constant(2.0), alpha=0.5), r"mu_n in \]0, 1/alpha\[ = \]0, 2\["),
        (dict(alpha=0.0), r"alpha in \]0, 1\]"),
        (dict(alpha=1.5), r"alpha in \]0, 1\]"),
        (dict(alpha=float("nan")), r"alpha in \]0, 1\]"),
        (dict(error_schedule=DecayingNoise(1.0, 1.0)), "summability certificate"),
        (dict(atol=float("nan")), "atol must be a number"),
    ], ids=["mu-sup-1", "mu-sup-1/alpha", "alpha-0", "alpha-above-1", "alpha-nan",
            "errors-not-summable", "atol-nan"])
    def test_violation_names_hypothesis_at_construction(self, kwargs, hypothesis):
        kwargs = {"mu_strategy": rx.Constant(0.5), **kwargs}
        with pytest.raises(ConfigurationError, match=hypothesis):
            KmConfig(max_iters=10, seed=0, **kwargs)

    def test_quasi_fejer_pathwise_error_free(self, rng):
        # for e_n = 0 and mu in ]0,1[, distances to a fixed point never grow
        z = np.zeros(2)
        cfg = KmConfig(rx.UniformInterval(0.05, 0.95), max_iters=300, seed=17, atol=0.0)
        x = np.array([1.0, 0.0])
        mu_rng = substream(17, "relaxation")
        prev = np.linalg.norm(x - z)
        for _ in range(300):
            mu = scalar_relaxation(cfg.mu_strategy, mu_rng)
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
        assert t1.columns["residual"] == t2.columns["residual"]
        assert t1.columns["lambda"] == t2.columns["lambda"]

    def test_noise_certificate_rejected_when_not_summable(self):
        with pytest.raises(ConfigurationError):
            KmConfig(rx.Constant(0.5), max_iters=10, seed=0,
                     error_schedule=DecayingNoise(1.0, 0.9))

    def test_noisy_rotation_still_converges(self):
        cfg = KmConfig(rx.Constant(0.5), max_iters=2000, seed=11,
                       error_schedule=DecayingNoise(1.0, 1.5), atol=0.0)
        final, trace = run_km(rotation, cfg, [1.0, 0.0])
        assert trace.residuals()[-1] < 1e-4

    def test_divergence_guard(self):
        cfg = KmConfig(rx.Constant(0.9), max_iters=500, seed=0, atol=0.0)
        with pytest.raises(NumericError):
            run_km(lambda x: 3.0 * x, cfg, [1.0, 1.0])  # expansive map blows up

    def test_wrong_length_point_of_T_is_a_usage_error(self):
        # x + mu (T x - x) would broadcast x0 = [0] to length 2
        cfg = KmConfig(rx.Constant(0.5), max_iters=5, seed=0)
        with pytest.raises(UsageError, match=r"step 0 and x0: \(2,\) vs \(1,\)"):
            run_km(lambda x: np.ones(2), cfg, np.zeros(1))

    @pytest.mark.parametrize("length", [1, 3])
    def test_T_output_of_another_length_is_a_usage_error(self, length):
        # length 1 would broadcast T x - x to x's length, length 3 would fail in numpy
        cfg = KmConfig(rx.Constant(0.5), max_iters=5, seed=0)
        with pytest.raises(UsageError, match=rf"step 0 and x0: \({length},\) vs \(2,\)"):
            run_km(lambda x: np.ones(length), cfg, np.zeros(2))


class TestDivergenceGuard:
    """From x0 = 0 with mu = 1/2, run_km moves to T x / 2 exactly when T x is
    twice a chosen point, so T can place a chosen iterate at iteration n."""

    @staticmethod
    def run_to(point, n):
        targets = itertools.chain(itertools.repeat(np.zeros(2), n), [2.0 * np.asarray(point)])
        cfg = KmConfig(rx.Constant(0.5), max_iters=n + 1, seed=0, atol=0.0)
        return run_km(lambda x: next(targets), cfg, np.zeros(2))

    @pytest.mark.parametrize("n", [0, 3])
    def test_squared_norm_at_the_limit_passes(self, n):
        point = np.array([DIVERGENCE_NORM, 0.0])
        assert point.dot(point) == DIVERGENCE_NORM ** 2
        final, trace = self.run_to(point, n)
        assert final.tobytes() == point.tobytes()
        assert trace.footer["iterations_run"] == n + 1

    @pytest.mark.parametrize("n", [0, 3])
    def test_next_float_above_the_limit_raises(self, n):
        # 12000^2 = 1.44e8 is 1.07 units in the last place of 1e24, and exact
        point = np.array([DIVERGENCE_NORM, 12000.0])
        assert point.dot(point) == np.nextafter(DIVERGENCE_NORM ** 2, np.inf)
        with pytest.raises(NumericError, match=rf"^iterate diverged at iteration {n}$"):
            self.run_to(point, n)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [0, 3])
    def test_non_finite_iterate_raises_where_it_appears(self, bad, n):
        with pytest.raises(NumericError, match=rf"^iterate diverged at iteration {n}$"):
            self.run_to([bad, 1.0], n)


class TestKmAveraged:
    def test_firmly_nonexpansive_projection_with_large_mu(self):
        T = lambda x: halfspace_proj_oracle([1.0, 0.0], 0.0, x)  # 1/2-averaged
        cfg = KmConfig(rx.Constant(1.5), max_iters=300, seed=2, alpha=0.5, atol=0.0)
        final, _ = run_km(T, cfg, [2.0, 1.0])
        assert final[0] < 1e-8

    def test_support_violation_rejected(self):
        with pytest.raises(ConfigurationError, match=r"mu_n in \]0, 1/alpha\[ = \]0, 2\["):
            KmConfig(rx.Constant(2.5), max_iters=10, seed=0, alpha=0.5)

    def test_identity_stationary(self):
        cfg = KmConfig(rx.Constant(1.2), max_iters=20, seed=0, alpha=0.7, atol=0.0)
        final, _ = run_km(lambda x: x, cfg, [4.0, -1.0])
        np.testing.assert_array_equal(final, [4.0, -1.0])


class TestSgd:
    def test_zero_variance_quadratic(self):
        family = quadratic_family(np.zeros(2), np.zeros((1, 2)))   # gradient x, xi = 0
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
        family = quadratic_family(np.zeros(1), np.zeros((1, 1)))
        cfg = SgdConfig(beta=0.7, nu=0.8, max_iters=50, seed=1,
                        gradient_family=family)
        _, trace = run_sgd(cfg, [1.0])
        for n, lam in zip(trace.columns["iter"], trace.columns["lambda"]):
            assert lam == 2.0 * 0.7 / (n + 1.0) ** 0.8  # bitwise equality

    def test_nu_hypothesis_rejected(self):
        family = quadratic_family(np.zeros(1), np.zeros((1, 1)))
        for nu in (0.5, 2.0 / 3.0, 1.01, 0.0):
            with pytest.raises(ConfigurationError, match=r"nu in \]2/3, 1\] violated"):
                SgdConfig(beta=1.0, nu=nu, max_iters=10, seed=0, gradient_family=family)

    def test_builtin_family_unbiased_on_random_points(self, rng):
        # the uniform law's mean gradient is the plain mean over all K members
        center = rng.normal(size=5)
        offsets = rng.uniform(-0.3, 0.3, size=(12, 5))
        fam = quadratic_family(center, offsets)
        for _ in range(10):
            x = rng.normal(size=5) * 2
            mean = np.mean([fam.gradient(k, x) for k in range(len(fam))], axis=0)
            scale = np.max(np.abs(x) + np.abs(fam.minimizers))
            np.testing.assert_allclose(mean, x - center, rtol=0,
                                       atol=len(fam) * np.finfo(float).eps * scale)

    def test_non_finite_offsets_rejected(self):
        # inf and -inf in one column: recentring them first would compute inf - inf
        for bad in (np.nan, np.inf):
            with pytest.raises(UsageError, match="non-finite"):
                quadratic_family(np.zeros(2), np.array([[1.0, 0.0], [bad, 0.0]]))
        with pytest.raises(UsageError, match="non-finite"):
            quadratic_family(np.zeros(2), np.array([[np.inf, 0.0], [-np.inf, 0.0]]))

    @pytest.mark.parametrize("center, offsets, message", [
        pytest.param([0.0, 0.0], [[0.3, 0.0], [np.nan, 0.0]], "offsets contain non-finite",
                     id="nan-offset"),
        pytest.param([0.0, np.inf], [[0.3, 0.0], [-0.3, 0.0]], "center contains non-finite",
                     id="inf-center"),
        pytest.param([0.0, 0.0], [[0.3, 0.0, 0.0], [-0.3, 0.0, 0.0]], r"\(K, dim\) array",
                     id="wrong-dim"),
        pytest.param([0.0, 0.0], [0.3, -0.3], r"\(K, dim\) array", id="1-d-offsets"),
        pytest.param([0.0, 0.0], np.zeros((0, 2)), "at least one member", id="no-member"),
    ])
    def test_malformed_family_is_a_usage_error_when_built(self, center, offsets, message):
        with pytest.raises(UsageError, match=message):
            GradientFamily(np.array(center), np.array(offsets))

    def test_array_form_spot_check_rejects_offsets_not_recentred(self):
        # a family built directly is not recentred; its config is rejected
        # before the run draws anything, also for the second's small mean,
        # 0.005 = 1.7% of sqrt(xi) = 0.3
        for offsets, mean in (([[5.0, 0.0], [5.5, 0.0]], r"5\.250e\+00"),
                              ([[0.3, 0.0], [-0.29, 0.0]], r"5\.000e-03")):
            fam = GradientFamily(np.zeros(2), np.array(offsets))
            message = (r"^unbiasedness E grad g_k\(x\) = grad f\(x\) violated: "
                       rf"\|\|mean_k w_k\|\| = {mean} > 1e-09 sqrt\(xi\)")
            with pytest.raises(ConfigurationError, match=message):
                SgdConfig(beta=1.0, nu=0.75, max_iters=10, seed=0, gradient_family=fam)

    def test_zero_variance_admits_only_an_exact_zero_mean(self):
        # xi = 1e-400 underflows to 0 while the mean 5e-201 is nonzero
        SgdConfig(beta=1.0, nu=0.75, max_iters=10, seed=0,
                  gradient_family=GradientFamily(np.zeros(2), np.zeros((3, 2))))
        fam = GradientFamily(np.zeros(2), np.array([[1e-200, 0.0], [0.0, 0.0]]))
        assert fam.variance_bound == 0.0
        with pytest.raises(ConfigurationError, match="unbiasedness"):
            SgdConfig(beta=1.0, nu=0.75, max_iters=10, seed=0, gradient_family=fam)

    @pytest.mark.parametrize("scale, xi", [(1e-200, 0.0), (1e200, np.inf)])
    def test_unbiasedness_check_is_scale_free(self, rng, scale, xi):
        # xi underflows to 0 or overflows to inf, but the check divides the
        # offsets by a power of two first: recentred families pass, raw
        # biased ones fail, and no step warns
        def config(fam):
            return SgdConfig(beta=1.0, nu=0.75, max_iters=10, seed=0, gradient_family=fam)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(200):
                k, dim = rng.integers(1, 21), rng.integers(1, 9)
                fam = quadratic_family(rng.normal(size=dim),
                                       scale * rng.uniform(-1.0, 1.0, size=(k, dim)))
                config(fam)
            for offsets in ([[1.0, 0.0], [0.0, 0.0]], rng.uniform(-1.0, 1.0, size=(10, 2)),
                            rng.uniform(0.5, 1.0, size=(10, 2))):
                fam = GradientFamily(np.zeros(2), scale * np.asarray(offsets))
                assert fam.variance_bound == xi
                with pytest.raises(ConfigurationError, match="unbiasedness"):
                    config(fam)

    def test_recentred_offsets_with_a_large_common_shift_pass(self, rng):
        # the shift's rounding in the raw mean is all the recentred mean keeps
        for _ in range(50):
            k, dim = rng.integers(1, 101), rng.integers(1, 65)
            spread = 10.0 ** rng.uniform(-6.0, 6.0)
            shift = rng.normal(size=dim)
            shift *= 1e3 * spread / np.linalg.norm(shift)
            fam = quadratic_family(rng.normal(size=dim),
                                   shift + rng.uniform(-spread, spread, size=(k, dim)))
            SgdConfig(beta=1.0, nu=0.75, max_iters=10, seed=0, gradient_family=fam)

    def test_run_draws_only_from_the_index_stream(self, monkeypatch):
        labels = []

        def recording(seed, label):
            labels.append(label)
            return substream(seed, label)

        monkeypatch.setattr(fixedpoint, "substream", recording)
        fam = quadratic_family(np.zeros(3), np.array([[0.1, 0, 0], [-0.1, 0, 0]]))
        cfg = SgdConfig(beta=1.0, nu=0.75, max_iters=50, seed=9, gradient_family=fam)
        run_sgd(cfg, np.ones(3))
        assert labels == ["index"]

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

    @pytest.mark.parametrize("dim", [1, 3])
    def test_x0_of_another_dimension_is_a_usage_error(self, dim):
        # from zeros(1) the gradients would broadcast x to length 8; from
        # zeros(3) numpy would fail on the shapes
        fam = quadratic_family(np.zeros(8), np.eye(8))
        cfg = SgdConfig(beta=1.0, nu=0.75, max_iters=5, seed=0, gradient_family=fam)
        with pytest.raises(UsageError, match=rf"quadratic family: \({dim},\) vs \(8,\)"):
            run_sgd(cfg, np.zeros(dim))

    @pytest.mark.parametrize("budget", [7, 8])
    def test_last_row_is_the_last_iteration(self, budget):
        # record_every=2: a budget of 7 ends on a recorded row anyway, one of
        # 8 ends on iteration 7, which only the last-iteration rule records
        fam = quadratic_family(np.zeros(3), np.array([[0.1, 0, 0], [-0.1, 0, 0]]))
        cfg = SgdConfig(beta=1.0, nu=0.75, max_iters=budget, seed=9, gradient_family=fam,
                        record_every=2)
        _, trace = run_sgd(cfg, np.ones(3))
        assert trace.footer["iterations_run"] == budget
        assert trace.iterations().tolist() == sorted({*range(0, budget, 2), budget - 1})

    @pytest.mark.parametrize("dim, beta, nu", [(3, 0.7, 0.8), (8, 1.0, 0.75)])
    @pytest.mark.parametrize("record_every", [1, 7, 10])
    @pytest.mark.parametrize("budget", [17, 2033])
    def test_run_equals_the_plain_array_replay(self, dim, beta, nu, record_every, budget):
        # index chunks hold 16, 32, ..., 1024 draws: 17 steps cross the first
        # refill, 2033 the refill after the first chunk of 1024
        gen = np.random.default_rng(dim)
        center = gen.uniform(-1.0, 1.0, size=dim)
        offsets = gen.uniform(-0.25, 0.25, size=(10, dim))
        cfg = SgdConfig(beta=beta, nu=nu, max_iters=budget, seed=5,
                        gradient_family=quadratic_family(center, offsets), record_every=record_every)
        final, trace = run_sgd(cfg, np.zeros(dim))
        x, columns = replay_sgd(center, offsets - offsets.mean(axis=0), beta, nu, budget, 5,
                                np.zeros(dim), record_every)
        assert final.tobytes() == x.tobytes()
        assert {name: trace.columns[name] for name in columns} == columns

    def test_minimizers_are_the_center_plus_the_recentred_offsets(self, rng):
        center = rng.normal(size=5)
        offsets = rng.uniform(-0.3, 0.3, size=(12, 5))
        fam = quadratic_family(center, offsets)
        expected = center + (offsets - offsets.mean(axis=0))
        assert len(fam.minimizers) == 12
        for t, row, w in zip(fam.minimizers, expected, fam.offsets):
            assert t.tobytes() == row.tobytes() == (fam.center + w).tobytes()


class TestErrorSchedules:
    def test_decaying_bound_honored(self, rng):
        sched = DecayingNoise(2.0, 1.25)
        noise_rng = substream(0, "noise")
        for n in range(200):
            e = sched.sample(n, 8, noise_rng)
            assert np.linalg.norm(e) <= 2.0 / (n + 1) ** 1.25 + 1e-15

    @pytest.mark.parametrize("dim", [1, 7, 4096])
    def test_rows_equal_successive_samples(self, dim):
        # one (m, dim) draw per iteration against m draws of one row each,
        # written out with np.linalg.norm: the same bits and stream state
        sched = DecayingNoise(2.0, 1.25)

        def one_row(n, rng):
            g = rng.standard_normal(dim)
            norm = float(np.linalg.norm(g))
            if norm > 1.0:
                g /= norm
            return 2.0 / (n + 1.0) ** 1.25 * g

        rows, ones, oracle = (np.random.default_rng(dim) for _ in range(3))
        capped = held = 0
        for n in range(300 if dim < 4096 else 20):
            m = 1 + n % 4
            block = sched.sample_rows(n, m, dim, rows)
            expected = np.array([one_row(n, oracle) for _ in range(m)])
            assert block.shape == (m, dim)
            assert block.tobytes() == expected.tobytes()
            assert block.tobytes() == np.array([sched.sample(n, dim, ones)
                                                for _ in range(m)]).tobytes()
            unit = np.linalg.norm(block, axis=1) * (n + 1.0) ** 1.25 / 2.0
            capped += int(np.sum(np.isclose(unit, 1.0)))
            held += int(np.sum(unit < 1.0 - 1e-9))
        assert rows.bit_generator.state == oracle.bit_generator.state == ones.bit_generator.state
        assert capped and (held or dim == 4096)
