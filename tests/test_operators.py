import numpy as np
import pytest
from scipy.optimize import minimize

from stochfeas.exceptions import DegenerateConstraintError, UsageError
from stochfeas.operators import (
    InequalityConstraint,
    OperatorFamily,
    project_box,
    project_fourier_support,
    project_hyperslab,
    sample_indices,
    subgradient_projector,
    symmetrize_fourier_mask,
    validate_fourier_mask,
)

from conftest import halfspace_proj_oracle


def unit_ball_constraint():
    return InequalityConstraint(
        value=lambda x: float(x @ x) - 1.0,
        subgradient=lambda x: 2.0 * x,
        name="unit-ball",
    )


class TestSubgradientProjector:
    def test_inside_level_set_is_identity(self):
        out = subgradient_projector(unit_ball_constraint(), [0.5, 0.0])
        np.testing.assert_array_equal(out, [0.5, 0.0])

    def test_hand_evaluation(self):
        # f = 3, s = (4, 0): x - 3/16 * (4, 0) = (1.25, 0)
        out = subgradient_projector(unit_ball_constraint(), [2.0, 0.0])
        np.testing.assert_allclose(out, [1.25, 0.0], atol=0)

    def test_firm_qne_against_fixed_point(self):
        c = unit_ball_constraint()
        x = np.array([2.0, 0.0])
        gx = subgradient_projector(c, x)
        z = np.array([1.0, 0.0])  # f(z) = 0
        lhs = np.sum((gx - z) ** 2) + np.sum((gx - x) ** 2)
        assert lhs <= np.sum((x - z) ** 2) + 1e-12

    def test_distance_function_gives_exact_projection(self, rng):
        # f = d_C for the half-space C = {z : <a, z> <= b}
        a = np.array([3.0, -1.0, 2.0])
        a /= np.linalg.norm(a)
        b = 0.7

        def dist(x):
            return max(float(a @ x) - b, 0.0)

        c = InequalityConstraint(value=dist, subgradient=lambda x: a.copy(), name="d_C")
        for _ in range(100):
            x = rng.normal(size=3) * 4
            out = subgradient_projector(c, x)
            np.testing.assert_allclose(out, halfspace_proj_oracle(a, b, x),
                                       rtol=1e-12, atol=1e-12)

    def test_constraint_value_identity(self, rng):
        # <s(x), x - Gx> equals f(x) exactly when f(x) > 0
        c = unit_ball_constraint()
        for _ in range(50):
            x = rng.normal(size=4) * 3
            fx = c.value(x)
            if fx <= 0:
                continue
            gx = subgradient_projector(c, x)
            s = c.subgradient(x)
            assert float(s @ (x - gx)) == pytest.approx(fx, rel=1e-12)

    def test_degenerate_constraint(self):
        c = InequalityConstraint(value=lambda x: 1.0,
                                 subgradient=lambda x: np.zeros_like(x))
        with pytest.raises(DegenerateConstraintError):
            subgradient_projector(c, [1.0, 2.0])


class TestBoxProjector:
    def test_interior_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(project_box(0.0, 255.0, x), x)

    def test_clamping(self):
        out = project_box(0.0, 255.0, [-3.0, 300.0, 100.0])
        np.testing.assert_array_equal(out, [0.0, 255.0, 100.0])

    def test_optimality_brute(self, rng):
        lo, hi = -1.0, 2.0
        x = rng.normal(size=6) * 5
        proj = project_box(lo, hi, x)
        for _ in range(100):
            y = rng.uniform(lo, hi, size=6)
            assert np.linalg.norm(proj - x) <= np.linalg.norm(y - x) + 1e-12

    def test_bad_bounds(self):
        with pytest.raises(UsageError):
            project_box([0.0, 2.0], [1.0, 1.0], [0.5, 0.5])


class TestHyperslabProjector:
    def test_above_band(self):
        out = project_hyperslab([1.0, 0.0], -1.0, 1.0, [2.0, 5.0])
        np.testing.assert_allclose(out, [1.0, 5.0], atol=0)

    def test_numeric_minimization_cross_check(self, rng):
        a = np.array([1.0, -2.0, 0.5])
        lo, hi = -0.3, 0.9
        x = rng.normal(size=3) * 4
        proj = project_hyperslab(a, lo, hi, x)
        res = minimize(lambda z: np.sum((z - x) ** 2), np.zeros(3), method="SLSQP",
                       constraints=[{"type": "ineq", "fun": lambda z: hi - a @ z},
                                    {"type": "ineq", "fun": lambda z: a @ z - lo}],
                       options={"maxiter": 500, "ftol": 1e-14})
        np.testing.assert_allclose(proj, res.x, atol=1e-6)

    def test_inside_band_identity(self, rng):
        a = np.array([0.0, 1.0])
        for _ in range(20):
            x = rng.normal(size=2)
            v = float(a @ x)
            if -1.0 <= v <= 1.0:
                np.testing.assert_array_equal(project_hyperslab(a, -1.0, 1.0, x), x)

    def test_hyperplane_case(self):
        out = project_hyperslab([0.0, 1.0], 0.0, 0.0, [3.0, -2.0])
        np.testing.assert_allclose(out, [3.0, 0.0], atol=0)

    def test_zero_normal_rejected(self):
        with pytest.raises(UsageError):
            project_hyperslab([0.0, 0.0], -1.0, 1.0, [1.0, 1.0])


def projector_zoo(rng):
    ball = unit_ball_constraint()
    return [
        (lambda x: project_box(-1.0, 1.5, x), lambda: rng.uniform(-1.0, 1.5, size=4), 4),
        (lambda x: project_hyperslab(np.array([1.0, 2.0, -1.0, 0.5]), -0.5, 0.5, x),
         lambda: _slab_point(rng), 4),
    ]


def _slab_point(rng):
    a = np.array([1.0, 2.0, -1.0, 0.5])
    x = rng.normal(size=4)
    v = float(a @ x)
    if v > 0.5:
        x -= (v - 0.5) * a / (a @ a)
    elif v < -0.5:
        x -= (v + 0.5) * a / (a @ a)
    return x


class TestProjectorProperties:
    def test_idempotence_and_firm_nonexpansiveness(self, rng):
        for op, sample_fix, dim in projector_zoo(rng):
            for _ in range(50):
                x = rng.normal(size=dim) * 3
                px = op(x)
                np.testing.assert_allclose(op(px), px, rtol=1e-12, atol=1e-12)
                y = rng.normal(size=dim) * 3
                py = op(y)
                inner = float((x - y) @ (px - py))
                assert inner >= float((px - py) @ (px - py)) - 1e-9

    def test_fqne_inequality_on_fixed_points(self, rng):
        for op, sample_fix, dim in projector_zoo(rng):
            for _ in range(50):
                x = rng.normal(size=dim) * 3
                z = sample_fix()
                px = op(x)
                lhs = np.sum((px - z) ** 2) + np.sum((px - x) ** 2)
                rhs = np.sum((x - z) ** 2)
                assert lhs <= rhs + 1e-9 * (1 + rhs)


class TestFourierSupport:
    def make_case(self, n=8, seed=0):
        rng = np.random.default_rng(seed)
        truth = rng.uniform(0, 10, size=(n, n))
        mask = np.zeros((n, n), dtype=bool)
        mask[: n // 4, : n // 4] = True
        mask = symmetrize_fourier_mask(mask)
        target = np.where(mask, np.fft.fft2(truth), 0)
        return truth, mask, target

    def test_member_of_set_unchanged(self):
        truth, mask, target = self.make_case()
        out = project_fourier_support(target, mask, truth)
        np.testing.assert_allclose(out, truth, atol=1e-9)

    def test_idempotence(self, rng):
        truth, mask, target = self.make_case()
        x = rng.uniform(0, 10, size=truth.shape)
        once = project_fourier_support(target, mask, x)
        twice = project_fourier_support(target, mask, once)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_constrained_and_unconstrained_frequencies(self, rng):
        truth, mask, target = self.make_case()
        x = rng.uniform(0, 10, size=truth.shape)
        out = project_fourier_support(target, mask, x)
        spec_out = np.fft.fft2(out)
        spec_x = np.fft.fft2(x)
        np.testing.assert_allclose(spec_out[mask], target[mask], atol=1e-9)
        np.testing.assert_allclose(spec_out[~mask], spec_x[~mask], atol=1e-9)

    def test_projection_optimality(self, rng):
        # among random members of the set, the projection is closest
        truth, mask, target = self.make_case()
        x = rng.uniform(0, 10, size=truth.shape)
        proj = project_fourier_support(target, mask, x)
        for _ in range(20):
            other = project_fourier_support(target, mask,
                                            rng.uniform(0, 10, size=truth.shape))
            assert np.linalg.norm(proj - x) <= np.linalg.norm(other - x) + 1e-9

    def test_asymmetric_mask_rejected(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[1, 2] = True  # mirror (7, 6) missing
        with pytest.raises(UsageError):
            validate_fourier_mask(mask)

    def test_asymmetric_target_rejected(self):
        truth, mask, target = self.make_case()
        bad = target.copy()
        bad[1, 1] += 1000.0j  # breaks conjugate symmetry on the mask
        with pytest.raises(UsageError):
            project_fourier_support(bad, mask, truth)

    def test_symmetrize_adds_mirrors(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[1, 2] = True
        closed = symmetrize_fourier_mask(mask)
        assert closed[7, 6]
        validate_fourier_mask(closed)


class TestIndexSampling:
    def test_single_member(self, rng):
        fam = OperatorFamily([lambda x: x])
        assert all(sample_indices(fam, rng, 1).item() == 0 for _ in range(10))

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(11)
        fam = OperatorFamily([lambda x: x] * 4)
        draws = sample_indices(fam, rng, 10 ** 5)
        for k in range(4):
            assert abs(np.mean(draws == k) - 0.25) < 0.01 * 0.25 * 4  # 1% of total mass

    def test_weighted_frequencies(self):
        rng = np.random.default_rng(13)
        fam = OperatorFamily([lambda x: x] * 2, weights=[0.9, 0.1])
        draws = sample_indices(fam, rng, 10 ** 5)
        assert abs(np.mean(draws == 0) - 0.9) < 0.01 * 0.9

    def test_bulk_draws_equal_scalar_draws(self):
        fam = OperatorFamily([lambda x: x] * 7, weights=np.arange(1, 8) / 28.0)
        scalar_rng, bulk_rng = np.random.default_rng(5), np.random.default_rng(5)
        scalar = [sample_indices(fam, scalar_rng, 1).item() for _ in range(10 * 16)]
        bulk = np.concatenate([sample_indices(fam, bulk_rng, 16) for _ in range(10)])
        assert bulk.tolist() == scalar
        assert scalar_rng.random() == bulk_rng.random()

    def test_single_member_bulk_draws_consume_nothing(self):
        fam = OperatorFamily([lambda x: x])
        rng = np.random.default_rng(3)
        assert sample_indices(fam, rng, 16).tolist() == [0] * 16
        assert rng.random() == np.random.default_rng(3).random()

    def test_weight_validation(self):
        with pytest.raises(UsageError):
            OperatorFamily([])
        with pytest.raises(UsageError):
            OperatorFamily([lambda x: x], weights=[0.5])
        with pytest.raises(UsageError):
            OperatorFamily([lambda x: x] * 2, weights=[0.7, 0.7])
        with pytest.raises(UsageError):
            OperatorFamily([lambda x: x] * 2, weights=[1.2, -0.2])
        with pytest.raises(UsageError, match="finite"):
            OperatorFamily([lambda x: x] * 2, weights=[float("nan"), 1.0])


class TestEvaluate:
    def test_generic_evaluate_equals_member_steps(self, rng):
        normals = rng.normal(size=(5, 3))
        fam = OperatorFamily([lambda x: project_box(-0.5, 0.5, x)]
                             + [lambda x, a=a: x - 0.3 * a for a in normals])
        x = rng.normal(size=3)
        ks = [0, 3, 3, 1, 5]
        steps, norms = fam.evaluate(ks, x)
        expected = np.array([fam.members[k](x) - x for k in ks])
        np.testing.assert_array_equal(steps, expected)
        np.testing.assert_array_equal(norms, [np.sqrt(d @ d) for d in expected])
        inside = np.zeros(3)
        steps, norms = fam.evaluate([0, 0], inside)
        assert not np.any(steps) and not np.any(norms)
