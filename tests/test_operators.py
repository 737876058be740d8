import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from stochfeas.exceptions import DegenerateConstraintError, NumericError, UsageError
from stochfeas.image import _half_inverse, symmetrize_fourier_mask, validate_fourier_mask
from stochfeas.operators import LinearFamily, OperatorFamily, project_box, sample_indices

from conftest import (
    InequalityConstraint,
    halfspace_proj_oracle,
    project_fourier_support,
    project_hyperslab,
    random_halfspace_problem,
    subgradient_projector,
)


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_raises_naming_the_constraint(self, value):
        c = InequalityConstraint(value=lambda x: value, subgradient=lambda x: 2.0 * x,
                                 name="broken")
        with pytest.raises(NumericError, match=r"constraint broken: f\(x\) = (nan|inf)"):
            subgradient_projector(c, [1.0, 2.0])
        # f = -inf lies in the level set
        satisfied = InequalityConstraint(value=lambda x: -np.inf, subgradient=lambda x: 2.0 * x)
        np.testing.assert_array_equal(subgradient_projector(satisfied, [1.0, 2.0]), [1.0, 2.0])


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

    def test_nan_bound_rejected(self):
        with pytest.raises(UsageError):
            project_box(np.nan, 1.0, [0.5, 0.5])


def slab_projection(a, lo, hi):
    """The map x -> P x of the one-member ``LinearFamily`` of the hyperslab
    {z : lo <= <a, z> <= hi}, through its ``evaluate``."""
    fam = LinearFamily([a], [lo], [hi])

    def project(x):
        x = np.asarray(x, dtype=float)
        out = fam.evaluate([0], x)
        return x if out is None else x + out[0][0]
    return project


class TestHyperslabProjector:
    """The one-member ``LinearFamily`` as the projector onto one hyperslab."""

    def test_above_band(self):
        out = slab_projection([1.0, 0.0], -1.0, 1.0)([2.0, 5.0])
        np.testing.assert_allclose(out, [1.0, 5.0], atol=0)

    def test_numeric_minimization_cross_check(self, rng):
        a = np.array([1.0, -2.0, 0.5])
        lo, hi = -0.3, 0.9
        x = rng.normal(size=3) * 4
        proj = slab_projection(a, lo, hi)(x)
        res = minimize(lambda z: np.sum((z - x) ** 2), np.zeros(3), method="SLSQP",
                       constraints=[{"type": "ineq", "fun": lambda z: hi - a @ z},
                                    {"type": "ineq", "fun": lambda z: a @ z - lo}],
                       options={"maxiter": 500, "ftol": 1e-14})
        np.testing.assert_allclose(proj, res.x, atol=1e-6)

    def test_inside_band_identity(self, rng):
        fam = LinearFamily([[0.0, 1.0]], [-1.0], [1.0])
        for _ in range(20):
            x = rng.normal(size=2)
            v = float(x[1])
            if -1.0 <= v <= 1.0:
                assert fam.evaluate([0], x) is None

    def test_hyperplane_case(self):
        out = slab_projection([0.0, 1.0], 0.0, 0.0)([3.0, -2.0])
        np.testing.assert_allclose(out, [3.0, 0.0], atol=0)

    def test_zero_normal_rejected(self):
        with pytest.raises(UsageError, match="squared norm 0"):
            slab_projection([0.0, 0.0], -1.0, 1.0)

    def test_nan_bounds_rejected(self):
        with pytest.raises(UsageError, match="lo <= hi"):
            slab_projection([1.0, 0.0], np.nan, np.nan)


class TestLinearFamily:
    def test_batch_matches_the_independent_projections(self, rng):
        # half-spaces, slabs and a hyperplane; repeated members get equal rows
        rows = rng.normal(size=(6, 4))
        lo = np.array([-np.inf, -0.5, -1.0, 0.3, -np.inf, -2.0])
        hi = np.array([0.2, 0.5, 1.0, 0.3, 1.5, -1.0])
        fam = LinearFamily(rows, lo, hi)
        ks = [0, 1, 2, 3, 4, 5, 3, 0]
        fixed = 0
        for _ in range(30):
            x = rng.normal(size=4) * 2
            ps = [project_hyperslab(rows[k], lo[k], hi[k], x) for k in ks]
            steps, norms = fam.evaluate(ks, x)   # the hyperplane never holds x
            for d, r, p in zip(steps, norms, ps):
                if p is x:
                    fixed += 1
                    assert not d.any() and r == 0.0
                else:
                    np.testing.assert_allclose(x + d, p, rtol=1e-13, atol=1e-13)
                # each norm is that of its row, summed as run_block sums it
                assert r == math.sqrt(float(d.dot(d)))
        assert fixed

    @pytest.mark.parametrize("rows, lo, hi, match", [
        ([[1.0, 0.0], [0.0, 0.0]], [-1.0, -1.0], [1.0, 1.0], "row 1 has squared norm 0"),
        ([[1e-200, 0.0]], [-1.0], [1.0], "row 0 has squared norm 0"),
        ([[1e200, 0.0]], [-1.0], [1.0], "row 0 has squared norm inf"),
        ([[1.0, np.nan]], [-1.0], [1.0], "rows must be finite"),
        ([[1.0, np.inf]], [-1.0], [1.0], "rows must be finite"),
        ([[1.0, 0.0]], [2.0], [1.0], "lo <= hi"),
        ([[1.0, 0.0]], [-np.inf], [np.nan], "lo <= hi"),
        ([[1.0, 0.0]], [np.inf], [np.inf], "empty"),
        ([[1.0, 0.0]], [-np.inf], [-np.inf], "empty"),
        ([[1.0, 0.0]], [-1.0, -1.0], [1.0, 1.0], "do not match"),
        ([[1.0, 0.0]], -1.0, 1.0, "do not match"),
        ([1.0, 0.0], [-1.0, -1.0], [1.0, 1.0], "2-D"),
        (np.zeros((0, 2)), [], [], "at least one member"),
    ], ids=["zero-row", "underflowing-row", "overflowing-row", "nan-row", "inf-row",
            "lo-above-hi", "nan-hi", "lo-inf", "hi-minus-inf", "lo-too-long",
            "scalar-bounds", "1-D-rows", "no-rows"])
    def test_constructor_rejects(self, rows, lo, hi, match):
        with pytest.raises(UsageError, match=match):
            LinearFamily(rows, lo, hi)

    @pytest.mark.parametrize("kind", ["halfspace", "slab_hyperplane"])
    def test_violation_is_the_largest_distance_of_a_value_to_its_bounds(self, rng, kind):
        normals, offsets, fam, center, _ = random_halfspace_problem(rng)
        lo, hi = np.full(len(normals), -np.inf), offsets
        if kind == "slab_hyperplane":
            # eight slabs around the center, and {z : z_0 = center_0}, exact at the center
            normals = np.vstack([rng.normal(size=(8, center.size)), np.eye(1, center.size)])
            v = normals[:8] @ center
            lo = np.append(v - rng.uniform(0.1, 1.0, size=8), center[0])
            hi = np.append(v + rng.uniform(0.1, 1.0, size=8), center[0])
            fam = LinearFamily(normals, lo, hi)

        def oracle(z):
            # each value an exactly rounded sum, each distance on its own
            values = [math.fsum(a_j * z_j for a_j, z_j in zip(a, z)) for a in normals]
            return max(max(l - v, v - h) for v, l, h in zip(values, lo, hi))

        points = [center, np.zeros(center.size), *(4.0 * rng.normal(size=(6, center.size)))]
        for z in points:
            tol = 1e-14 * max(1.0, float(np.max(np.abs(normals) @ np.abs(z))))
            assert abs(fam.violation(z) - oracle(z)) <= tol
        inside = fam.violation(center)   # the center lies in every set, on the hyperplane exactly
        assert (inside == 0.0) if kind == "slab_hyperplane" else (inside < 0.0)
        assert fam.violation(center + 10.0 * normals[-1]) > 0.0

def projector_zoo(rng):
    return [
        (lambda x: project_box(-1.0, 1.5, x), lambda: rng.uniform(-1.0, 1.5, size=4), 4),
        (slab_projection(np.array([1.0, 2.0, -1.0, 0.5]), -0.5, 0.5),
         lambda: _slab_point(rng), 4),
        (slab_projection(np.array([0.5, -1.0, 0.0, 2.0]), -np.inf, 0.7),
         lambda: _halfspace_point(rng), 4),
    ]


def _halfspace_point(rng):
    return halfspace_proj_oracle(np.array([0.5, -1.0, 0.0, 2.0]), 0.7, rng.normal(size=4))


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

    @pytest.mark.parametrize("shape", [(8, 8), (6, 7)])
    def test_half_inverse_checks_the_residue_it_drops(self, rng, shape):
        # an anti-Hermitian part in the self-conjugate columns (0, and n2 / 2
        # for an even width) is what irfft2 drops; the check compares the
        # imaginary part that ifft2 of the full spectrum would carry with
        # 1e-9 max(1, max|out|)
        n1, n2 = shape
        x = rng.uniform(0.0, 10.0, size=shape)
        cols = [0] if n2 % 2 else [0, n2 // 2]
        g = rng.standard_normal((n1, len(cols)))
        g += g[(-np.arange(n1)) % n1]   # g[-u] = g[u], so i g is anti-Hermitian
        anti = np.zeros(shape, dtype=complex)
        anti[:, cols] = 1j * g
        unit = float(np.abs(np.fft.ifft2(np.fft.fft2(x) + anti).imag).max())
        half = np.fft.rfft2(x)
        tol = 1e-9 * max(1.0, float(np.abs(np.fft.irfft2(half, s=shape)).max()))
        for factor, raises in ((0.9, False), (1.1, True)):
            skewed = half + factor * tol / unit * anti[:, : n2 // 2 + 1]
            if raises:
                with pytest.raises(NumericError, match="imaginary residue"):
                    _half_inverse(skewed, shape)
            else:
                assert np.array_equal(_half_inverse(skewed, shape),
                                      np.fft.irfft2(skewed, s=shape))

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

    @pytest.mark.parametrize("m", [None, 3])
    def test_chunked_draws_equal_scalar_draws(self, m):
        # 1100 draws cross the first five chunks, of 16, 32, 64, 128 and 256 draws
        fam = OperatorFamily([lambda x: x] * 7, weights=np.arange(1, 8) / 28.0)
        chunks = fam.draws(np.random.default_rng(5), m)
        assert [len(next(chunks)) for _ in range(8)] == [16, 32, 64, 128, 256, 512, 1024, 1024]
        chunked = itertools.chain.from_iterable(fam.draws(np.random.default_rng(5), m))
        scalar_rng = np.random.default_rng(5)
        for _ in range(1100):
            scalar = [sample_indices(fam, scalar_rng, 1).item() for _ in range(m or 1)]
            ks = next(chunked)
            assert (ks if m is None else ks.tolist()) == (scalar[0] if m is None else scalar)

    @pytest.mark.parametrize("weights", [
        None,
        np.array([1, 1, 1, 1, 1, 2]) / 7.0,
        np.random.default_rng(21).dirichlet(np.full(500, 0.05)),
        # runs of members with tiny weights, which draws on their cumulative
        # weights cross only after more than two passes of the guide table
        np.concatenate([np.full(40, 1.0), np.full(300, 1e-12), np.full(60, 1.0),
                        np.full(7, 1e-12)]) / (100.0 + 307e-12),
    ], ids=["uniform-2560", "image", "dirichlet", "zero-run"])
    def test_guided_draws_equal_binary_search(self, weights):
        fam = OperatorFamily([lambda x: x] * (2560 if weights is None else len(weights)), weights)
        cum = fam._cum
        expected = np.searchsorted(cum, np.random.default_rng(8).random(10 ** 6), side="right")
        assert np.array_equal(sample_indices(fam, np.random.default_rng(8), 10 ** 6), expected)
        # uniforms on the cumulative weights and on the bucket edges, and
        # one step either side of each
        edges = np.concatenate([cum[cum < 1.0], np.arange(fam._buckets) / fam._buckets])
        us = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        us = us[(us >= 0.0) & (us < 1.0)]

        class Fixed:
            def random(self, m):
                assert m == us.size
                return us.copy()

        assert np.array_equal(sample_indices(fam, Fixed(), us.size),
                              np.searchsorted(cum, us, side="right"))

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

    def test_zero_weight_is_rejected(self):
        # a member drawn with probability 0 is never enforced: over x1 <= 0
        # and x2 <= 0 with weights [1, 0], a run from (1, 1) would stop at (0, 1)
        halfspaces = [lambda x: np.array([min(x[0], 0.0), x[1]]),
                      lambda x: np.array([x[0], min(x[1], 0.0)])]
        with pytest.raises(UsageError, match="positive"):
            OperatorFamily(halfspaces, weights=[1.0, 0.0])
        with pytest.raises(UsageError, match="positive"):
            OperatorFamily(halfspaces, weights=[1.0, -0.0])


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
        assert fam.evaluate([0, 0], inside) is None
        # a mixed batch keeps an exact zero row for its fixed member
        steps, norms = fam.evaluate([0, 1], inside)
        assert not np.any(steps[0]) and norms[0] == 0.0
        np.testing.assert_array_equal(steps[1], -0.3 * normals[0])

    def test_repeated_index_gives_equal_independent_rows(self, rng):
        calls = []

        def counting(a):
            def member(x):
                calls.append(a)
                return x - a
            return member

        normals = rng.normal(size=(3, 4))
        fam = OperatorFamily([counting(a) for a in normals])
        x = rng.normal(size=4)
        for k in range(3):
            calls.clear()
            steps, norms = fam.evaluate([k, k], x)
            assert len(calls) == 1
            assert np.array_equal(steps[0], steps[1]) and norms[0] == norms[1]
            steps[0] += 1.0
            np.testing.assert_array_equal(steps[1], (x - normals[k]) - x)
        calls.clear()
        fam.evaluate(np.array([2, 0, 2, 2, 0]), x)
        assert len(calls) == 2

    def test_underflowing_norm_is_not_all_fixed(self):
        # ||d||^2 = 1e-400 underflows, so the norm reads 0 while the row does not
        fam = OperatorFamily([lambda x: x + np.array([1e-200, 0.0])])
        steps, norms = fam.evaluate([0], np.zeros(2))
        assert norms[0] == 0.0 and steps[0, 0] == 1e-200
