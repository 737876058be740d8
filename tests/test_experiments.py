import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from stochfeas import block, experiments, fixedpoint, image, operators, signal
from stochfeas import relaxation as rx
from stochfeas.block import BlockConfig, run_block
from stochfeas.diagnostics import audit_fejer_step
from stochfeas.exceptions import (
    DegenerateConstraintError,
    NumericError,
    ReferenceSolutionError,
    UsageError,
)
from stochfeas.experiments import canonical_strategies, run_experiment
from stochfeas.image import confidence_radius, generate_image_problem, symmetrize_fourier_mask
from stochfeas.operators import LinearFamily, OperatorFamily, sample_indices
from stochfeas.rngstreams import derive_seed, substream
from stochfeas.signal import circ_conv, generate_signal_problem

from conftest import (
    assert_same_run,
    ball_constraint,
    ball_value,
    circulant_row,
    iterations_to_db,
    project_fourier_support,
    random_halfspace_problem,
    replay_block,
)


def step_of(family, k, x):
    """The step T_k x - x of one member, from a one-index ``evaluate`` call."""
    out = family.evaluate([k], x)
    return np.zeros(np.size(x)) if out is None else out[0][0]


def count_transforms(monkeypatch):
    """Patch every ``numpy.fft`` transform to record its calls by name, the
    1-D ``ifft`` of the exact residue check included; returns the record.
    A transform that numpy calls inside another is not counted again."""
    calls = []
    helpers = {"fftfreq", "rfftfreq", "fftshift", "ifftshift"}
    for name in sorted(set(np.fft.__all__) - helpers):
        def counting(a, *args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _transform(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


def bare_and_spectral(family, x):
    """(evaluate, the point it takes) for the image family's bare evaluate
    at x and for its run state's, which takes x in the state's coordinates."""
    state = family.run_state(x)
    return (family.evaluate, x), (state.evaluate, state.coordinates(x))


class TestCanonicalStrategies:
    def test_labels_and_means(self):
        strategies = canonical_strategies()
        assert set(strategies) == {"const1", "const1.9", "twopoint", "uniform"}
        for label in ("const1.9", "twopoint", "uniform"):
            assert strategies[label].moments().mean == pytest.approx(1.9, abs=1e-12)


class TestSignalProblem:
    def test_full_scale_defaults(self):
        prob = generate_signal_problem(seed=1)
        assert prob.n == 1024 and prob.p == 20
        assert prob.eta == 0.15
        assert prob.stds.min() >= 10.0 and prob.stds.max() <= 30.0
        assert len(prob.build_family()) == 20480

    def test_equal_uniform_families_share_one_read_only_index_law(self):
        first = signal.desk_signal_problem(seed=1).build_family()
        second = signal.desk_signal_problem(seed=2).build_family()
        law = ("weights", "_cum", "_guide")
        for name in law:
            shared = getattr(first, name)
            assert shared is getattr(second, name), name
            assert not shared.flags.writeable, name
            with pytest.raises(ValueError):
                shared[0] = 0.5
        # an explicitly uniform family builds its own law, and draws the same
        own = OperatorFamily([lambda x: x] * len(first), weights=np.full(len(first), 1.0 / 2560))
        assert own._guide is not first._guide
        for name in law:
            assert np.array_equal(getattr(own, name), getattr(first, name)), name
        uniforms = np.random.default_rng(6).random(10 ** 5)
        cum = np.cumsum(np.full(2560, 1.0 / 2560))
        cum[-1] = 1.0
        expected = np.searchsorted(cum, uniforms, side="right")
        for fam in (first, second, own):
            assert np.array_equal(sample_indices(fam, np.random.default_rng(6), 10 ** 5), expected)

    def test_desk_scale_invariants(self):
        prob = generate_signal_problem(n=256, p=10, seed=2)
        assert np.max(np.abs(prob.ground_truth)) == pytest.approx(1.0, rel=1e-12)
        # ground truth is feasible for every hyperslab, by construction
        assert prob.max_violation(prob.ground_truth) <= 1e-12

    def test_feasibility_is_exact_per_constraint(self):
        prob = generate_signal_problem(n=64, p=3, seed=3)
        for k in range(prob.p):
            res = circ_conv(prob.ground_truth, prob.kernels[k]) - prob.observations[k]
            assert np.all(np.abs(res) <= prob.eta)

    def test_max_violation_equals_per_filter_convolutions(self, rng):
        prob = signal.desk_signal_problem(seed=3)

        def oracle(x):
            return max(float(np.max(np.abs(circ_conv(x, kernel) - r) - prob.eta))
                       for kernel, r in zip(prob.kernels, prob.observations))

        for x in (np.zeros(prob.n), prob.ground_truth, rng.uniform(-1.0, 1.0, size=prob.n)):
            assert abs(prob.max_violation(x) - oracle(x)) <= 1e-15
        with pytest.raises(UsageError, match="dimension mismatch"):
            prob.max_violation(np.zeros(prob.n + 1))

    def test_clearance_radii_keep_every_member_fixed(self):
        # the desk kernels are symmetric, so the random problem's are not: a
        # reversed kernel spectrum would go unseen on symmetric ones
        rng = np.random.default_rng(17)
        desk = signal.desk_signal_problem(seed=3)
        desk_rows = np.stack([circulant_row(kernel, j) for kernel in desk.kernels
                              for j in range(desk.n)])
        n, p, eta = 32, 3, 0.15
        kernels = rng.uniform(-1.0, 1.0, size=(p, n))
        truth = rng.uniform(-1.0, 1.0, size=n)
        rows = np.stack([circulant_row(kernel, j) for kernel in kernels for j in range(n)])
        observations = rows @ truth + rng.uniform(-0.6 * eta, 0.6 * eta, size=p * n)
        family = signal.SignalProblem(n, p, eta, np.ones(p), kernels,
                                      observations.reshape(p, n), truth, 0).build_family()
        assert np.array_equal(family._table[family._offsets], rows)
        # half-spaces around a center, and a last member whose bounds are both infinite
        normals, offsets, _, center, margin = random_halfspace_problem(rng)
        whole = rng.normal(size=(1, center.size))
        halfspaces = LinearFamily(np.vstack([normals, whole]), np.full(len(normals) + 1, -np.inf),
                                  np.append(offsets, np.inf))
        mid_run = BlockConfig(batch_size=4, delta=0.1, relaxation=rx.Constant(1.9),
                              max_iters=40, seed=2, atol=0.0)
        cases = [(desk.build_family(), desk_rows, desk.ground_truth, 0.4 * eta),
                 (family, rows, truth, 0.4 * eta),
                 (halfspaces, np.vstack([normals, whole]), center, margin)]
        for fam, a, xbar, inner in cases:
            norms = np.linalg.norm(a, axis=1)
            anchors = [xbar, xbar + 1e-3 * rng.normal(size=xbar.size), np.zeros(xbar.size),
                       run_block(fam, mid_run, np.zeros(xbar.size)).final]
            for z in anchors:
                np.testing.assert_allclose(fam.values(z), a @ z, rtol=0.0, atol=1e-15 * max(
                    1.0, float(norms.max() * np.linalg.norm(z))))
                radii = fam.clearance(z)
                assert not np.isnan(radii).any()
                if fam is halfspaces:
                    assert radii[-1] == np.inf and np.all(np.isfinite(radii[:-1]))
                if z is xbar:
                    # xbar holds every set with a margin of ``inner``
                    assert np.all(radii >= (inner - 1e-8) / norms)
                held = np.flatnonzero(radii > 0.0)
                assert held.size > 0
                directions = rng.normal(size=(held.size, 2, xbar.size))
                failed = []
                for k, random_pair in zip(held, directions):
                    for u in [a[k], -a[k], *random_pair]:
                        x = z + (1.0 - 1e-12) * min(radii[k], 1e6) * (u / np.linalg.norm(u))
                        if fam.evaluate([k], x) is not None:
                            failed.append(int(k))
                assert failed == []

    @pytest.mark.parametrize("field, value, match", [
        # eta < 0 gave slabs with lo > hi, and a run that ended infeasible
        ("eta", -0.15, "eta must be finite and positive"),
        # eta = NaN failed as "iterate diverged at iteration 0"
        ("eta", math.nan, "eta must be finite and positive"),
        ("eta", math.inf, "eta must be finite and positive"),
        # a short observation array failed inside the family with an IndexError
        ("observations", lambda prob: prob.observations[:, :-1],
         r"observations must have shape \(p, n\) = \(10, 256\), got \(10, 255\)"),
        ("observations", lambda prob: np.where(np.eye(10, 256) > 0, np.nan, prob.observations),
         "observations must be finite"),
        ("kernels", lambda prob: prob.kernels[:9], "kernels must have shape"),
        ("kernels", lambda prob: np.where(np.eye(10, 256) > 0, np.inf, prob.kernels),
         "kernels must be finite"),
        ("kernels", lambda prob: prob.kernels * (np.arange(10) > 0)[:, None],
         "kernels must have no zero row"),
        # a short truth failed in max_violation and run_experiment as a
        # dimension mismatch of the point, not of the truth
        ("ground_truth", lambda prob: prob.ground_truth[:-1],
         r"ground_truth must have shape \(n,\) = \(256,\), got \(255,\)"),
    ], ids=["eta-negative", "eta-nan", "eta-inf", "observations-short", "observations-nan",
            "kernels-short", "kernels-inf", "kernels-zero-row", "ground_truth-short"])
    def test_problem_data_are_checked_when_built(self, field, value, match):
        prob = signal.desk_signal_problem(seed=3)
        with pytest.raises(UsageError, match=match):
            replace(prob, **{field: value(prob) if callable(value) else value})

    def test_one_member_batches_extrapolate_by_exactly_one(self):
        # each reported residual is the norm of its step row, summed as the
        # run sums ||p - x||, so M = 1 gives L = r^2 / ||p - x||^2 = 1 exactly;
        # residuals |s| ||a|| gave L != 1 on 546 of these 120,000 rows
        prob = signal.desk_signal_problem(seed=7)
        family = prob.build_family()
        for label, strategy in canonical_strategies().items():
            for rep in range(5):
                cfg = BlockConfig(batch_size=1, delta=0.5, relaxation=strategy, max_iters=6000,
                                  seed=derive_seed(0, label, rep), atol=0.0)
                res = run_block(family, cfg, np.zeros(prob.n))
                assert np.all(res.trace.extrapolations() == 1.0), (label, rep)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(UsageError):
            generate_signal_problem(n=64, p=0, seed=0)
        with pytest.raises(UsageError):
            generate_signal_problem(n=64, p=2, eta=0.0, seed=0)
        with pytest.raises(UsageError):
            generate_signal_problem(n=64, p=2, std_range=(0.0, 10.0), seed=0)
        with pytest.raises(UsageError):
            generate_signal_problem(n=64, p=2, std_range=(10.0, 64.0), seed=0)


class TestImageProblem:
    def test_confidence_radius_formula(self):
        # closed form at n = 256 and n = 64
        assert confidence_radius(256) == pytest.approx(
            65536 * 25.0 / 3.0 + 1.96 * 256 * np.sqrt(500.0 / 9.0), rel=1e-15)
        assert confidence_radius(64) == pytest.approx(
            4096 * 25.0 / 3.0 + 1.96 * 64 * np.sqrt(500.0 / 9.0), rel=1e-15)

    def test_confidence_radius_monte_carlo(self):
        # E u^2 = 25/3 and E u^4 = 125 for u ~ uniform([0, 5]), within 0.1%
        rng = np.random.default_rng(123)
        acc2 = acc4 = 0.0
        total = 10 ** 7
        for _ in range(10):
            u = rng.uniform(0.0, 5.0, size=total // 10)
            acc2 += float(np.sum(u * u))
            acc4 += float(np.sum(u ** 4))
        assert acc2 / total == pytest.approx(25.0 / 3.0, rel=1e-3)
        assert acc4 / total == pytest.approx(125.0, rel=1e-3)

    def test_paper_scale_family_takes_the_uniform_law(self):
        """Weight 1 goes through the weighted law, and gives the uniform law
        of six members bit for bit."""
        fam = generate_image_problem(n=256, seed=0).build_family()
        weights, cum, buckets, guide = operators._uniform_law(6)
        assert fam.weights.tobytes() == weights.tobytes()
        assert fam._cum.tobytes() == cum.tobytes()
        assert fam._buckets == buckets and fam._guide.tobytes() == guide.tobytes()

    def test_mask_size_before_mirroring(self):
        prob = generate_image_problem(n=256, seed=0)
        assert int(np.count_nonzero(prob.mask[:32, :32])) == 1024  # (n/8)^2
        image.validate_fourier_mask(prob.mask)

    def test_observation_model(self):
        prob = generate_image_problem(n=64, seed=5)
        blurred = circ_conv(prob.ground_truth, prob.kernel)
        noise = prob.observations - blurred[None, :, :]
        assert noise.min() >= 0.0 and noise.max() <= 5.0
        assert prob.xi == pytest.approx(confidence_radius(64), abs=0)

    def test_ball_feasibility_recorded(self):
        prob = generate_image_problem(n=64, seed=5)
        truth_flat = prob.ground_truth.ravel()
        for k, inside in enumerate(prob.ball_contains_truth):
            assert inside == (ball_value(prob, k, truth_flat) <= 0.0)

    def test_truth_feasible_for_box_and_fourier(self):
        prob = generate_image_problem(n=64, seed=6)
        flat = prob.ground_truth.ravel()
        assert flat.min() >= 0.0 and flat.max() <= 255.0
        fam = prob.build_family()
        np.testing.assert_allclose(step_of(fam, 5, flat), 0.0, atol=1e-8)

    def test_ball_value_never_increases_under_projector(self, rng):
        prob = generate_image_problem(n=32, seed=7)
        fam = prob.build_family()
        for k in range(4):
            x = rng.uniform(-20, 280, size=prob.dim)
            before = ball_value(prob, k, x)
            after = ball_value(prob, k, x + step_of(fam, k, x))
            assert after <= before + 1e-9 * (1 + abs(before))

    def test_fourier_drift_after_box(self, rng):
        # the terminal order is fourier then box; the box clamp may drift the
        # spectrum, and finalize reports it via the feasibility audit
        prob = generate_image_problem(n=32, seed=8)
        x = rng.uniform(0, 255, size=prob.dim)
        final = prob.finalize(x)
        report = prob.feasibility_report(final)
        assert report["box_violation"] == 0.0
        assert report["fourier_relative_deviation"] >= 0.0

    def test_feasibility_report_transforms_once(self, monkeypatch, rng):
        prob = generate_image_problem(n=32, seed=9)
        x = rng.uniform(0.0, 255.0, size=prob.dim)
        ball_values = [ball_value(prob, k, x) for k in range(4)]
        calls = count_transforms(monkeypatch)
        report = prob.feasibility_report(x)
        assert calls == ["rfft2"]
        # by the weighted half spectrum against the oracle's sum in space:
        # measured, at most 1.9e-15 apart, relative
        assert report["ball_values"] == pytest.approx(ball_values, rel=1e-12)

    def test_divisibility_validation(self):
        with pytest.raises(UsageError):
            generate_image_problem(n=60, seed=0)

    @pytest.mark.parametrize("n, blur_std, match", [
        (0, 1.0, "positive multiple of 8"),
        (-8, 1.0, "positive multiple of 8"),
        (16, 0.0, "blur_std must be finite and positive"),
        (16, -1.0, "blur_std must be finite and positive"),
        (16, math.nan, "blur_std must be finite and positive"),
        (16, math.inf, "blur_std must be finite and positive"),
    ])
    def test_bad_side_or_blur_is_a_usage_error(self, n, blur_std, match):
        # each passed the side check before and failed inside numpy, or built a NaN kernel
        with pytest.raises(UsageError, match=match):
            generate_image_problem(n=n, seed=0, blur_std=blur_std)

    @pytest.mark.parametrize("field, value, match", [
        # xi = -1 ran 400 iterations silently, every ball value above 6e3
        ("xi", -1.0, "xi must be finite and positive"),
        # xi = NaN, a NaN kernel entry or an inf observation raised
        # NumericError ("ball[k]: f(x) = nan") partway through a run
        ("xi", math.nan, "xi must be finite and positive"),
        ("kernel", lambda prob: np.where(np.eye(64) > 0, np.nan, prob.kernel),
         "kernel must be finite"),
        ("observations", lambda prob: np.where(np.eye(64) > 0, np.inf, prob.observations),
         "observations must be finite"),
        # three observations raised an IndexError inside the family
        ("observations", lambda prob: prob.observations[:3],
         r"observations must have shape \(4, 64, 64\), got \(3, 64, 64\)"),
        # a short last axis raised a numpy broadcast ValueError
        ("observations", lambda prob: prob.observations[:, :, :-1],
         r"observations must have shape \(4, 64, 64\), got \(4, 64, 63\)"),
        ("kernel", lambda prob: prob.kernel[:, :-1],
         r"kernel must have shape \(64, 64\), got \(64, 63\)"),
        # a short truth gave "dimension mismatch in image point"
        ("ground_truth", lambda prob: prob.ground_truth[:, :-1],
         r"ground_truth must have shape \(64, 64\), got \(64, 63\)"),
        # a NaN target built, and the report's Fourier deviation read nan
        ("target_spectrum", lambda prob: np.where(np.eye(64) > 0, np.nan, prob.target_spectrum),
         "target_spectrum must be finite"),
        # a mask of another grid was compared with the target only; with a
        # target of its grid it raised an IndexError
        ("mask", lambda prob: prob.mask[:32, :32], r"mask must have shape \(64, 64\)"),
    ], ids=["xi-negative", "xi-nan", "kernel-nan", "observations-inf", "observations-three",
            "observations-short", "kernel-short", "ground-truth-short", "target-nan",
            "mask-short"])
    def test_problem_data_are_checked_when_built(self, field, value, match):
        prob = image.desk_image_problem(seed=4)
        with pytest.raises(UsageError, match=match):
            replace(prob, **{field: value(prob) if callable(value) else value})

    def test_wrong_length_point_is_rejected(self):
        prob = generate_image_problem(n=16, seed=2)
        fam = prob.build_family()
        for check in (prob.finalize, prob.feasibility_report, lambda x: fam.evaluate([4], x)):
            with pytest.raises(UsageError, match="dimension mismatch in image point"):
                check(np.zeros(17))


class TestHalfSpectrumOracles:
    """The half-spectrum norms weigh the self-conjugate columns once and the
    others twice; these space-domain oracles do not use rfft2 at all."""

    @staticmethod
    def problem():
        # n divisible by 8: both self-conjugate columns, 0 and n / 2, are present
        return generate_image_problem(n=32, seed=3, blur_std=1.0)

    def test_ball_value_step_and_norm(self, rng):
        prob = self.problem()
        moved = 0
        for x in (rng.uniform(-20.0, 280.0, size=prob.dim), np.zeros(prob.dim)):
            for k in range(4):
                ball = ball_constraint(prob, k)
                value, s = ball.value(x), ball.subgradient(x)
                assert prob.feasibility_report(x)["ball_values"][k] == pytest.approx(value,
                                                                                      rel=1e-12)
                step = prob._ball_step(k, prob._spectrum(x))
                if value <= 0.0:
                    assert step is None
                    continue
                moved += 1
                spectrum, norm = step
                expected = -(value / float(np.sum(s ** 2))) * s
                np.testing.assert_allclose(prob._inverse(spectrum), expected, rtol=1e-12,
                                           atol=1e-12 * np.abs(expected).max())
                assert norm == pytest.approx(float(np.sqrt(np.sum(expected ** 2))), rel=1e-12)
        assert moved

    def test_fourier_residual(self, rng):
        # the real step of the Fourier member, from the full spectrum: the
        # masked difference made Hermitian, inverted by ifft2
        prob = self.problem()
        fam = prob.build_family()
        mirror = np.ix_(*[(-np.arange(prob.n)) % prob.n] * 2)   # (u, v) -> (-u, -v)
        for x in (rng.uniform(0.0, 255.0, size=prob.dim), prob.ground_truth.ravel() + 0.5):
            diff = np.where(prob.mask, prob.target_spectrum - np.fft.fft2(x.reshape(prob.n, prob.n)),
                            0.0)
            step = np.fft.ifft2(0.5 * (diff + np.conj(diff[mirror]))).real
            state = fam.run_state(x)
            r = state.evaluate([5], state.coordinates(x))
            assert r[0] == pytest.approx(float(np.sqrt(np.sum(step ** 2))), rel=1e-12)

    def test_fourier_support_on_an_odd_width_grid(self, rng):
        # width 7: only column 0 of the half spectrum is self-conjugate
        shape = (8, 7)
        truth = rng.uniform(0.0, 10.0, size=shape)
        low = np.zeros(shape, dtype=bool)
        low[:3, :3] = True
        mask = symmetrize_fourier_mask(low)
        target = np.where(mask, np.fft.fft2(truth), 0.0)
        for x in (rng.uniform(0.0, 10.0, size=shape), truth):
            full = np.fft.fft2(x)
            full[mask] = target[mask]
            expected = np.fft.ifft2(full).real
            np.testing.assert_allclose(project_fourier_support(target, mask, x), expected,
                                       rtol=1e-12, atol=1e-12 * np.abs(expected).max())


class TestImageFamilyEvaluate:
    """The image family's ``evaluate``: its checks, its private copies and
    its transforms.  Its rows against the oracles are checked, with every
    other family's, in tests/test_run_state.py."""

    @staticmethod
    def family():
        prob = generate_image_problem(n=32, seed=1, blur_std=1.0)
        assert all(prob.ball_contains_truth)
        return prob, prob.build_family(fourier_weight=2.0)

    def test_validates_once_and_keeps_private_copies(self, rng):
        prob, fam = self.family()
        bad = prob.target_spectrum.copy()
        bad[1, 1] += 1000.0j  # breaks conjugate symmetry on the mask
        with pytest.raises(UsageError, match="target spectrum"):
            replace(prob, target_spectrum=bad)
        lopsided = prob.mask.copy()
        lopsided[1, 1] = not lopsided[1, 1]
        with pytest.raises(UsageError, match="Fourier mask"):
            replace(prob, mask=lopsided)
        x = rng.uniform(0.0, 255.0, size=prob.dim)
        before, finalized = step_of(fam, 5, x), prob.finalize(x)
        report = prob.feasibility_report(x)
        # the problem's public arrays no longer reach the family, finalize or the report
        prob.target_spectrum[:] = 0.0
        prob.mask[:] = False
        np.testing.assert_array_equal(step_of(fam, 5, x), before)
        np.testing.assert_array_equal(prob.finalize(x), finalized)
        assert prob.feasibility_report(x) == report
        with pytest.raises(UsageError):
            fam.evaluate([5], np.full(prob.dim, np.nan))

    def test_target_at_the_validation_bound_passes_the_inverse_check(self):
        # an anti-Hermitian target part of 0.45e-9 of the target's scale in
        # column 0 passes validation (the mirror mismatch is twice that); the
        # problem and the oracle keep the Hermitian part, so finalize, the
        # bare Fourier member, a run and the oracle never meet it as
        # imaginary residue (finalize raised NumericError, residue 7.3e-07
        # above 2.5e-07, when the problem kept the target as given)
        prob = image.desk_image_problem(seed=4)
        target = prob.target_spectrum.copy()
        scale = max(1.0, float(np.abs(target[prob.mask]).max()))
        column = np.zeros_like(prob.mask)
        column[:, 0] = prob.mask[:, 0]
        target[column] += 0.45e-9 * scale * 1j
        skewed = replace(prob, target_spectrum=target)
        truth = prob.ground_truth.ravel()
        np.testing.assert_array_equal(skewed.finalize(truth), prob.finalize(truth))
        project_fourier_support(target, prob.mask, prob.ground_truth)
        fam = skewed.build_family(fourier_weight=image.DESK_IMAGE_FOURIER_WEIGHT)
        assert fam.evaluate([5], np.zeros(prob.dim)) is not None
        cfg = BlockConfig(batch_size=2, delta=0.25, relaxation=canonical_strategies()["const1"],
                          max_iters=300, seed=11, atol=0.0)
        res = run_block(fam, cfg, np.zeros(prob.dim))
        skewed.finalize(res.final)

    def test_one_forward_transform_per_evaluate(self, monkeypatch, rng):
        prob, fam = self.family()
        x = rng.uniform(-20.0, 280.0, size=prob.dim)
        calls = count_transforms(monkeypatch)
        for ks, expected in (([0, 1, 2, 3, 4, 5], 1), ([5, 5], 1), ([0, 5], 1),
                             ([3, 3], 1), ([4, 4], 0)):
            calls.clear()
            fam.evaluate(ks, x)
            assert calls.count("rfft2") == expected
            assert not {"fft2", "ifft2"} & set(calls)

    def test_checks_survive_batching(self, monkeypatch):
        prob, fam = self.family()
        bad = np.zeros(prob.dim)
        bad[7] = np.nan
        for k in range(6):
            with pytest.raises(UsageError):
                fam.evaluate([k], bad)
        x = np.zeros(prob.dim)
        rfft2 = np.fft.rfft2

        def skewed(a, *args, **kwargs):
            # an anti-Hermitian part in the self-conjugate column 0, off the
            # mask, which irfft2 would drop without a word
            out = rfft2(a, *args, **kwargs)
            out[10, 0] += 1e3j
            return out

        with monkeypatch.context() as m:
            m.setattr(np.fft, "rfft2", skewed)
            for ks in ([0, 5], [1], [5]):
                with pytest.raises(NumericError, match="imaginary residue"):
                    fam.evaluate(ks, x)
            # the spectral path meets the check wherever it maps X back to
            # space: at the box, and at the run's final point
            state = fam.run_state(x)
            with pytest.raises(NumericError, match="imaginary residue"):
                state.evaluate([0, 4], state.coordinates(x))
            cfg = BlockConfig(batch_size=2, delta=0.25, relaxation=rx.Constant(1.0),
                              max_iters=3, seed=0, atol=0.0)
            with pytest.raises(NumericError, match="imaginary residue"):
                run_block(fam, cfg, x)
        # a violated ball whose subgradient vanishes, with and without the state
        monkeypatch.setattr(prob, "_kernel_rfft_conj", np.zeros_like(prob._kernel_rfft_conj))
        for evaluate, point in bare_and_spectral(fam, x):
            for ks in ([4, 0], [0]):
                with pytest.raises(DegenerateConstraintError, match=r"ball\[0\]"):
                    evaluate(ks, point)

    def test_non_finite_ball_value_names_the_ball(self, monkeypatch):
        prob, fam = self.family()
        obs_rfft = prob._obs_rfft.copy()
        obs_rfft[2, 3, 3] = np.nan
        monkeypatch.setattr(prob, "_obs_rfft", obs_rfft)
        for evaluate, point in bare_and_spectral(fam, np.zeros(prob.dim)):
            with pytest.raises(NumericError, match=r"constraint ball\[2\]: f\(x\) = nan"):
                evaluate([0, 2], point)

class TestSpectralState:
    """The half spectrum X = rfft2(x) in which a block run of the image
    family iterates, and the point x that it maps back to where needed."""

    @staticmethod
    def desk():
        prob = image.desk_image_problem(seed=4)
        return prob, prob.build_family(fourier_weight=image.DESK_IMAGE_FOURIER_WEIGHT)

    def test_db_column_is_the_db_of_the_records_points_in_space(self):
        # the run measures dB by v.dot(v) in coordinates; the records give
        # x_n in space, x_{n+1} = x_n + lam_n (a_n - x_n), whose dB against
        # the reference, taken in space, is the same to rounding
        prob, fam = self.desk()
        truth = prob.ground_truth.ravel()
        cfg = BlockConfig(batch_size=2, delta=0.25, relaxation=canonical_strategies()["uniform"],
                          max_iters=300, seed=6, atol=0.0, collect_records=True)
        res = run_block(fam, cfg, np.zeros(prob.dim), reference_solution=truth)
        x = np.zeros(prob.dim)
        expected = []
        for rec in res.records:
            expected.append(20.0 * math.log10(np.linalg.norm(x - truth) / np.linalg.norm(truth)))
            x = x + rec.lam * (rec.a - x)
        db = res.trace.db_column()
        assert len(db) == cfg.max_iters and min(db) < -3.0
        np.testing.assert_allclose(db, expected, rtol=0, atol=1e-9)

    def test_evaluate_and_step_transform_only_for_the_box(self, monkeypatch, rng):
        # the box maps X back once per X, the step transforms the box's share
        # when the box moves x, and no step takes an inverse
        prob, fam = TestImageFamilyEvaluate.family()
        x = rng.uniform(-20.0, 280.0, size=prob.dim)
        calls = count_transforms(monkeypatch)
        for ks, transforms in (([0, 1, 2, 3, 4, 5], (1, 1)), ([5, 5], (0, 0)), ([0, 5], (0, 0)),
                               ([3, 3], (0, 0)), ([4, 4], (1, 1)), ([4, 1], (1, 1))):
            state = fam.run_state(x)
            spectrum = state.coordinates(x)
            calls.clear()
            assert state.evaluate(ks, spectrum) is not None
            assert state.evaluate(ks, spectrum) is not None   # the point is kept for this X
            assert calls == ["irfft2"] * transforms[1]
            calls.clear()
            state.step(np.full(len(ks), 1.0 / len(ks)))
            assert calls == ["rfft2"] * transforms[0]

    def test_run_transforms_counted_by_box_draws_and_moves(self, monkeypatch):
        # rfft2: x0, the reference, and the box's share whenever the box
        # moves x; irfft2: once for each distinct X at which the box is
        # drawn and not certified, and for the final point unless that X was
        # one of them.  The certificate spares most of the inverses: without
        # it this run took 531, 0.21 per iteration
        prob, fam = self.desk()
        drawn, box_moves, mapped, certified = [], [], [], {}
        evaluate, step = image._SpectralState.evaluate, image._SpectralState.step
        point = image._SpectralState.point
        certify = image._SpectralState._box_certified

        def counted_evaluate(state, ks, spectrum):
            if 4 in ks:
                drawn.append(spectrum)   # kept alive, so that ids stay distinct
            return evaluate(state, ks, spectrum)

        def counted_step(state, beta):
            box_moves.append(state._box is not None)
            return step(state, beta)

        def counted_point(state, spectrum):
            mapped.append(spectrum)
            return point(state, spectrum)

        def counted_certify(state, spectrum):
            held = certify(state, spectrum)
            certified.setdefault(id(spectrum), []).append(held)
            return held

        monkeypatch.setattr(image._SpectralState, "evaluate", counted_evaluate)
        monkeypatch.setattr(image._SpectralState, "step", counted_step)
        monkeypatch.setattr(image._SpectralState, "point", counted_point)
        monkeypatch.setattr(image._SpectralState, "_box_certified", counted_certify)
        cfg = BlockConfig(batch_size=2, delta=0.25, relaxation=canonical_strategies()["uniform"],
                          max_iters=2500, seed=3, atol=0.0, record_every=7)
        calls = count_transforms(monkeypatch)
        res = run_block(fam, cfg, np.zeros(prob.dim), reference_solution=prob.ground_truth)
        assert sum(box_moves) > 0 and len(box_moves) > sum(box_moves)
        assert calls.count("rfft2") == 1 + sum(box_moves) + 1
        # without records or audits an X is mapped back before it is drawn
        # again, so the certificate was asked at every distinct X drawn
        assert {id(spectrum) for spectrum in drawn} == set(certified)
        uncertified = {key for key, held in certified.items() if not all(held)}
        assert calls.count("irfft2") == len(uncertified | {id(mapped[-1])}) < len(drawn)
        assert sum(held.count(True) for held in certified.values()) > len(drawn) / 4
        assert calls.count("irfft2") / res.trace.footer["iterations_run"] < 0.15
        assert set(calls) == {"rfft2", "irfft2"}

    @pytest.mark.parametrize("when", [pytest.param("from x0", id="anti-Hermitian"),
                                      pytest.param("while certified",
                                                   id="anti-Hermitian-while-certified")])
    def test_corrupted_spectrum_is_caught(self, monkeypatch, rng, when):
        # an anti-Hermitian error in the self-conjugate columns of X leaves an
        # imaginary residue in the next inverse: the box's, or the final
        # point's.  (An error that keeps X Hermitian is just another iterate.)
        # Entered by a step once the box certificate has an anchor, the error
        # barely moves its bound, so the next box draw passes the bound, and
        # the certificate's residue test sends it to the checked inverse: the
        # run raises at the same iteration as with the certificate switched off
        prob, fam = self.desk()
        error = 1e-3 * np.fft.rfft2(rng.standard_normal((prob.n, prob.n)))
        self_conjugate = error[:, ::prob.n // 2] * 1.0j
        error[:] = 0.0
        error[:, ::prob.n // 2] = self_conjugate
        error = error.reshape(-1).view(np.float64)   # in the state's real coordinates
        run_state = fam.run_state
        evaluated, corrupted_at, tests = [], [], []

        def corrupted(x0):
            state = run_state(x0)
            if when == "from x0":
                coordinates = state.coordinates
                state.coordinates = lambda x: coordinates(x) + error
                return state
            evaluate, step = state.evaluate, state.step

            def counted(ks, v):
                evaluated.append(ks)
                return evaluate(ks, v)

            def corrupting(beta):
                out = step(beta)
                if len(evaluated) > 40 and not corrupted_at:   # the first step after 40
                    corrupted_at.append(len(evaluated))
                    out = out + 1e-2 * error
                return out

            state.evaluate, state.step = counted, corrupting
            return state

        unsettled = image._unsettled_residue

        def residue_test(flat, shape, scale=1.0):
            # only the certificate's tests: the checked inverse's own passes no scale
            anti = unsettled(flat, shape, scale)
            if scale != 1.0:
                tests.append((len(evaluated), anti is None))
            return anti

        cfg = BlockConfig(batch_size=2, delta=0.25, relaxation=canonical_strategies()["uniform"],
                          max_iters=100, seed=3, atol=0.0)
        run_block(fam, cfg, np.zeros(prob.dim))   # the checks pass on a sound run
        monkeypatch.setattr(fam, "run_state", corrupted)
        monkeypatch.setattr(image, "_unsettled_residue", residue_test)
        with pytest.raises(NumericError, match="imaginary residue"):
            run_block(fam, cfg, np.zeros(prob.dim))
        if when == "from x0":
            return
        # the raising box draw passed the bound, and the residue test failed
        at = len(evaluated)
        assert 40 < at < cfg.max_iters and tests[-1] == (at, False)
        evaluated.clear()
        corrupted_at.clear()
        tests.clear()
        monkeypatch.setattr(image._SpectralState, "_box_certified", lambda state, v: False)
        with pytest.raises(NumericError, match="imaginary residue"):
            run_block(fam, cfg, np.zeros(prob.dim))
        assert len(evaluated) == at and not tests

    def test_fourier_step_keeps_only_the_hermitian_part_of_its_difference(self):
        # in the self-conjugate columns X drifts off Hermitian symmetry by
        # rounding: near the Fourier set the anti-Hermitian part of target - X
        # there can dwarf the Hermitian part, whose real step is the whole step
        prob, fam = self.desk()
        x = prob.ground_truth.ravel()
        flat, edge, mirror = prob._mask_flat, prob._mask_edge, prob._mask_mirror
        i = int(np.flatnonzero(mirror != edge)[0])   # an entry u that is not its own mirror
        w = 1.0 / prob.n   # the weight of the self-conjugate columns, sqrt(1 / N)
        for anti, herm, moves in ((1e3, 0.0, False), (1e3, 1e-6, True)):
            state = fam.run_state(x)
            coordinates = state.coordinates(x)
            at = coordinates.view(np.complex128)   # X, flattened
            at[flat] = prob._target_values
            # X[u] = target[u] - w (herm + i anti), X[-u] = target[-u] - w (herm + i anti)
            at[flat[[edge[i], mirror[i]]]] -= w * (herm + 1j * anti)
            r = state.evaluate([5, 5], coordinates)
            assert (r is not None) == moves
            if moves:
                combined = state.step(np.array([0.5, 0.5]))
                d = state.point(combined)
                # the real step of the Hermitian part herm at u and -u (herm is
                # set to about 1e-5 relative, through X's entries of up to 1e5)
                assert r[0] == r[1] == pytest.approx(herm * math.sqrt(2.0 / prob.dim), rel=1e-4)
                # 1e9 times the Hermitian part, the anti-Hermitian one leaves no rounding
                assert math.sqrt(float(d @ d)) == pytest.approx(r[0], rel=1e-12)
                assert math.sqrt(float(combined @ combined)) == pytest.approx(r[0], rel=1e-12)

    def test_run_near_the_fourier_set_keeps_l_at_least_one(self):
        # a run that reached L = 0 when the Fourier step kept its
        # anti-Hermitian part: a batch whose only moving member had a purely
        # anti-Hermitian difference, residual 0, and a real step of 3e-32
        prob = image.desk_image_problem(seed=1765827878)
        fam = prob.build_family(fourier_weight=image.DESK_IMAGE_FOURIER_WEIGHT)
        cfg = BlockConfig(batch_size=2, delta=0.25, relaxation=canonical_strategies()["const1"],
                          max_iters=200, seed=1671239984, atol=0.0, collect_records=True)
        res = run_block(fam, cfg, np.zeros(prob.dim))
        assert min(rec.extrapolation for rec in res.records) >= 1.0 - 1e-9

    @pytest.mark.parametrize("m, rule", [(2, block.UNIFORM_OVER_BATCH),
                                         (3, block.MAX_RESIDUAL_CONCENTRATED)])
    def test_spectral_run_stays_near_the_stateless_member_replay(self, m, rule):
        # the replay takes every row in space, one bare evaluate per member.
        # Measured on these runs: final points 6.0e-12 apart, residual columns
        # 2.3e-15 of their largest value, L 1.4e-12 where both residuals
        # exceed 1e-9.  One row (M = 3, const1) has the Fourier member's
        # residual 0.0 in the run, which put X on the target exactly, and
        # 1.1e-12 in the replay: L, a ratio of rounding errors there, reads 1
        # against 1 / (2 beta).  Such rows are held to residuals below 1e-9.
        prob, fam = self.desk()
        for strategy in canonical_strategies().values():
            cfg = BlockConfig(batch_size=m, delta=0.25 if m == 2 else 0.15, weight_rule=rule,
                              relaxation=strategy, max_iters=300, seed=5, atol=0.0)
            res = run_block(fam, cfg, np.zeros(prob.dim))
            final, trace, _ = replay_block(fam, cfg, np.zeros(prob.dim),
                                           evaluate=partial(step_of, fam))
            np.testing.assert_allclose(res.final, final, rtol=0, atol=5e-11)
            r, replayed = (np.asarray(t.columns["residual"]) for t in (res.trace, trace))
            np.testing.assert_allclose(r, replayed, rtol=0, atol=2e-13 * replayed.max())
            steps = np.minimum(r, replayed) > 1e-9
            assert np.all(np.maximum(r, replayed)[~steps] <= 1e-9)
            np.testing.assert_allclose(np.asarray(res.trace.columns["extrapolation"])[steps],
                                       np.asarray(trace.columns["extrapolation"])[steps],
                                       rtol=0, atol=1e-9)
            assert res.trace.columns["lambda"] == trace.columns["lambda"]

    def test_inverse_residue_stays_bounded_on_a_criterion_8_run(self, monkeypatch):
        # criterion 8's const1 run, the one that uses its whole budget: X
        # keeps the anti-Hermitian rounding of 20,000 updates, and every
        # checked inverse verifies its residue.  Measured: at most 3.2e-17 of
        # max(1, max|x|) over 4,616 inverses (the box certificate spares 237
        # more), with no growth over the run; the check itself allows 1e-9
        prob, fam = self.desk()
        residues = []
        half_inverse = image._half_inverse

        def measured(spectrum, shape):
            out = half_inverse(spectrum, shape)
            at, mirror = image._self_conjugate_entries(shape)
            anti = spectrum.take(at) - np.conj(spectrum.take(mirror))
            residue = float(np.abs(np.fft.ifft(anti, axis=0)).sum(axis=1).max()) / (2 * shape[1])
            residues.append(residue / max(1.0, float(np.abs(out).max())))
            return out

        monkeypatch.setattr(image, "_half_inverse", measured)
        cfg = BlockConfig(batch_size=2, delta=0.25, relaxation=canonical_strategies()["const1"],
                          max_iters=20_000, seed=11, atol=1e-9, stop_patience=50,
                          record_every=100)
        res = run_block(fam, cfg, np.zeros(prob.dim))
        assert res.trace.footer["iterations_run"] == 20_000
        assert len(residues) > 1000
        assert max(residues) <= 1e-15

    def test_non_finite_iterate_is_caught_by_the_run_guard(self, monkeypatch):
        # with a run state, evaluate does not check X again: a NaN that enters
        # an iterate stops the run at the divergence guard, which reads
        # v.dot(v) in the state's coordinates, before any evaluate sees it
        prob, fam = self.desk()
        step, evaluate = image._SpectralState.step, image._SpectralState.evaluate
        seen, steps = [], []

        def poisoned(state, beta):
            combined = step(state, beta)
            steps.append(1)
            if len(steps) == 6:
                combined[14] = np.nan
            return combined

        def watched(state, ks, spectrum):
            seen.append(bool(np.all(np.isfinite(spectrum))))
            return evaluate(state, ks, spectrum)

        monkeypatch.setattr(image._SpectralState, "step", poisoned)
        monkeypatch.setattr(image._SpectralState, "evaluate", watched)
        cfg = BlockConfig(batch_size=2, delta=0.25, relaxation=canonical_strategies()["const1"],
                          max_iters=100, seed=3, atol=0.0)
        with pytest.raises(NumericError, match="iterate diverged at iteration"):
            run_block(fam, cfg, np.zeros(prob.dim))
        assert len(seen) > 5 and all(seen)

    def test_records_observe_without_moving_the_run(self):
        # records map X and each step back to space; the run is the same bits
        prob, fam = self.desk()
        cfg = BlockConfig(batch_size=2, delta=0.25, relaxation=canonical_strategies()["twopoint"],
                          max_iters=400, seed=8, atol=0.0, record_every=3)
        plain = run_block(fam, cfg, np.zeros(prob.dim), reference_solution=prob.ground_truth)
        observed = run_block(fam, replace(cfg, collect_records=True), np.zeros(prob.dim),
                             reference_solution=prob.ground_truth)
        assert plain.records is None and len(observed.records) == cfg.max_iters
        assert_same_run(observed, plain.final, plain.trace)

    def test_fejer_audit_matches_a_spatial_audit_of_the_returned_points(self):
        # the run audits x_n = point(X_n) against the points z; the same audit
        # from the final points of the runs' prefixes and the records' a_n.
        # The origin is no solution, so steps that move away from it fail
        prob, fam = self.desk()
        truth = prob.ground_truth.ravel()
        zs = [truth, np.zeros(prob.dim)]
        cfg = BlockConfig(batch_size=2, delta=0.25, relaxation=canonical_strategies()["uniform"],
                          max_iters=30, seed=2, atol=0.0, collect_records=True)
        res = run_block(fam, cfg, np.zeros(prob.dim), fejer_points=zs)
        points = [np.zeros(prob.dim)] + [
            run_block(fam, replace(cfg, max_iters=n, collect_records=False),
                      np.zeros(prob.dim)).final for n in range(1, cfg.max_iters + 1)]
        violations, worst = 0, 0.0
        for rec, x, x_next in zip(res.records, points, points[1:]):
            count, deficit = audit_fejer_step(x, x_next, rec.lam, x - rec.a, zs)
            violations += count
            worst = max(worst, deficit)
        assert violations > 0
        assert res.fejer_violations == violations
        assert res.worst_fejer_violation == pytest.approx(worst, rel=1e-9)

    def test_family_keeps_no_run_state(self, rng):
        prob, fam = self.desk()
        x = rng.uniform(0.0, 255.0, size=prob.dim)
        before = fam.evaluate([0, 5], x)
        cfgs = [BlockConfig(batch_size=2, delta=0.25, relaxation=strategy, max_iters=300,
                            seed=7, atol=0.0) for strategy in canonical_strategies().values()]
        alone = [run_block(fam, cfg, np.zeros(prob.dim)).final for cfg in cfgs]
        # the same runs in another order, and a bare evaluate, are unmoved
        again = [run_block(fam, cfg, np.zeros(prob.dim)).final for cfg in reversed(cfgs)]
        for a, b in zip(alone, reversed(again)):
            assert a.tobytes() == b.tobytes()
        after = fam.evaluate([0, 5], x)
        assert all(np.array_equal(u, v) for u, v in zip(before, after))


class TestNoOpIterations:
    @pytest.mark.parametrize("kind, m, delta, rule, label, record_every", [
        ("signal", 1, 0.5, block.UNIFORM_OVER_BATCH, "twopoint", 1),
        ("signal", 16, 1 / 32, block.UNIFORM_OVER_BATCH, "const1.9", 3),
        # the weights of M zero residuals are not 1/M in the last bit here
        ("signal", 3, 0.15, block.MAX_RESIDUAL_CONCENTRATED, "uniform", 1),
        ("image", 2, 0.25, block.UNIFORM_OVER_BATCH, "uniform", 2),
    ], ids=["signal-1", "signal-16", "concentrated-3", "image-2"])
    def test_records_and_traces_equal_the_full_replay(self, kind, m, delta, rule, label,
                                                      record_every):
        # run_block takes its no-op shortcut, screen and no-op runs; the replay does not
        if kind == "signal":
            prob = signal.desk_signal_problem(seed=3)
            fam = prob.build_family()
        else:
            prob = image.desk_image_problem(seed=3)
            fam = prob.build_family(fourier_weight=image.DESK_IMAGE_FOURIER_WEIGHT)
        truth = np.ravel(prob.ground_truth)
        x0 = np.zeros(truth.size)
        cfg = BlockConfig(batch_size=m, delta=delta, weight_rule=rule,
                          relaxation=canonical_strategies()[label],
                          max_iters=300 if kind == "signal" else 100, seed=5, atol=0.0,
                          record_every=record_every)
        plain = run_block(fam, cfg, x0, reference_solution=truth)
        observed = run_block(fam, replace(cfg, collect_records=True), x0,
                             reference_solution=truth)
        final, trace, records = replay_block(fam, cfg, x0, reference=truth)
        residuals = plain.trace.residuals()
        assert np.any(residuals == 0.0) and np.any(residuals > 0.0)
        assert_same_run(plain, final, trace)
        assert_same_run(observed, final, trace, records)

    @staticmethod
    def observed_run(monkeypatch, fam, cfg, x0, truth):
        """``run_block`` with the calls of its loop, each as (first iteration,
        length, limit, whether it left x unchanged)."""
        calls = []

        def observed(advance, *args, **kwargs):
            def counted(n, x, limit):
                got = advance(n, x, limit)
                calls.append((n, len(got[1]), limit, got[0] is x))
                return got

            return fixedpoint._iterate(counted, *args, **kwargs)

        monkeypatch.setattr(block, "_iterate", observed)
        res = run_block(fam, cfg, x0, reference_solution=truth)
        monkeypatch.setattr(block, "_iterate", fixedpoint._iterate)
        return res, calls

    @pytest.mark.parametrize("kind, m", [
        *(pytest.param("signal", m, id=str(m)) for m in (1, 4, 16)),
        *(pytest.param("halfspace", m, id=f"halfspace-{m}") for m in (1, 4, 16))])
    def test_screened_runs_equal_the_full_path(self, monkeypatch, kind, m):
        # runs that collect records take the screen and the no-op runs too;
        # the replay takes neither
        if kind == "signal":
            prob = signal.desk_signal_problem(seed=3)
            fam, truth = prob.build_family(), prob.ground_truth
        else:
            _, _, fam, truth, _ = random_halfspace_problem(np.random.default_rng(41))
        moved = []
        evaluate = fam.evaluate

        def counted(ks, x):
            out = evaluate(ks, x)
            moved.append(out is not None)
            return out

        fam.evaluate = counted
        x0 = np.zeros(truth.size)
        recording = BlockConfig(batch_size=m, delta=0.5 / m,
                                relaxation=rx.UniformInterval(1.5, 2.3),
                                max_iters=400, seed=5, atol=0.0, collect_records=True)
        _, calls = self.observed_run(monkeypatch, fam, recording, x0, truth)
        # a budget whose last iteration falls inside the longest call of the full budget
        start, length, _, _ = max(calls, key=lambda c: c[1])
        cases = {
            "recording": (recording, truth),
            "record_every_7": (replace(recording, record_every=7), truth),
            "budget_in_stretch": (replace(recording, max_iters=start + length // 2 + 1), truth),
            # an extended reference pass stops on its own atol rule
            "atol": (replace(recording, max_iters=4000, atol=1e-10), None),
        }
        for case, (cfg, reference) in cases.items():
            moved.clear()
            screened, calls = self.observed_run(monkeypatch, fam, cfg, x0, reference)
            iterations = screened.trace.footer["iterations_run"]
            assert len(moved) < iterations / 2, case   # the screen answered most iterations
            assert sum(length for _, length, _, _ in calls) == iterations, case
            assert all(noop for _, length, _, noop in calls if length > 1), case
            skipped = sum(length - 1 for _, length, _, _ in calls)
            moved.clear()
            final, trace, records = replay_block(fam, cfg, x0, reference=reference)
            assert len(moved) == iterations, case
            noops = iterations - sum(moved)
            assert skipped > noops / 2, case   # and the no-op runs most no-op iterations
            assert trace.footer["stop_reason"] == ("atol" if cfg.atol > 0.0 else "max_iters")
            assert_same_run(screened, final, trace, records)
            if case in ("budget_in_stretch", "atol"):
                # the last call is a no-op run that its limit cut short, and
                # it ends at the last iteration: the end of the budget, or the
                # stop, at the patience-th quiet iteration
                first, length, limit, noop = calls[-1]
                assert noop and length == limit > 1 and first + length == iterations, case
                if case == "budget_in_stretch":
                    assert iterations == cfg.max_iters, case
                else:
                    assert limit <= cfg.stop_patience and iterations < cfg.max_iters, case

    def test_replay_evaluates_every_batch_in_full(self):
        # the oracle shares no screen with the run: one bare evaluate per
        # iteration, no-op iterations included
        prob = signal.desk_signal_problem(seed=3)
        fam = prob.build_family()
        calls = []
        evaluate = fam.evaluate

        def counted(ks, x):
            calls.append(len(ks))
            return evaluate(ks, x)

        fam.evaluate = counted
        cfg = BlockConfig(batch_size=16, delta=1 / 32, relaxation=canonical_strategies()["uniform"],
                          max_iters=300, seed=5, atol=0.0)
        _, trace, _ = replay_block(fam, cfg, np.zeros(prob.n))
        assert np.any(trace.residuals() == 0.0)
        assert calls == [16] * trace.footer["iterations_run"] == [16] * 300

    def test_noop_records_share_one_check(self, monkeypatch):
        # a no-op record holds the weights of M zero residuals and L = 1; the
        # run checks those once, and every evaluated record on its own
        prob = signal.desk_signal_problem(seed=3)
        checked = []
        validate = block.BlockIterationRecord.validate

        def counted(rec, *args):
            checked.append(rec.iteration)
            validate(rec, *args)

        monkeypatch.setattr(block.BlockIterationRecord, "validate", counted)
        cfg = BlockConfig(batch_size=16, delta=1 / 32, relaxation=canonical_strategies()["uniform"],
                          max_iters=300, seed=5, atol=0.0, collect_records=True)
        res = run_block(prob.build_family(), cfg, np.zeros(prob.n))
        evaluated = [rec.iteration for rec in res.records if rec.p is not rec.a]
        assert len(evaluated) < len(res.records) == cfg.max_iters
        assert checked == [-1] + evaluated

class TestRunExperiment:
    def test_repeats_one_averaged_equals_single(self):
        prob = generate_signal_problem(n=64, p=3, seed=10)
        cfg = BlockConfig(batch_size=4, delta=0.1, relaxation=rx.Constant(1.0),
                          max_iters=150, seed=10, record_every=1)
        result = run_experiment(prob, prob.build_family(), cfg, "const1", repeats=1)
        assert len(result.results) == 1
        db = result.results[0].trace.db_column()
        assert db is not None
        np.testing.assert_array_equal(result.averaged.db_column(), db)

    def test_distinct_seeds_per_repeat_and_label(self):
        prob = generate_signal_problem(n=64, p=3, seed=11)
        cfg = BlockConfig(batch_size=2, delta=0.2, relaxation=rx.Constant(1.0),
                          max_iters=40, seed=11)
        family = prob.build_family()
        r1 = run_experiment(prob, family, cfg, "const1", repeats=3)
        assert len(set(r1.seeds)) == 3
        r2 = run_experiment(prob, family, cfg, "const1.9", repeats=3)
        assert set(r1.seeds).isdisjoint(set(r2.seeds))

    def test_iterations_to_db(self):
        from stochfeas.trace import ConvergenceTrace

        t = ConvergenceTrace()
        for i, db in enumerate([0.0, -20.0, -59.0, -61.0, -80.0]):
            t.append(i, 0.0, 1.0, db, 1.0, 1.0)
        assert iterations_to_db(t, -60.0) == 3
        assert iterations_to_db(t, -100.0) is None

    def test_average_kept_when_one_repeat_lacks_a_reference(self, monkeypatch):
        prob = generate_signal_problem(n=64, p=3, seed=10)
        cfg = BlockConfig(batch_size=4, delta=0.1, relaxation=rx.Constant(1.0),
                          max_iters=60, seed=10)
        calls = []
        estimate = experiments.estimate_reference_solution

        def first_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ReferenceSolutionError("no reference")
            return estimate(*args, **kwargs)

        monkeypatch.setattr(experiments, "estimate_reference_solution", first_fails)
        result = run_experiment(prob, prob.build_family(), cfg, "const1", repeats=2)
        assert result.references[0] is None and result.references[1] is not None
        assert result.averaged is not None
        assert result.averaged.db_column() is None
        assert result.averaged.column("db_min") is None
        assert result.averaged.column("db_max") is None

    def test_reference_pass_collects_no_records(self, monkeypatch):
        prob = generate_signal_problem(n=64, p=3, seed=10)
        cfg = BlockConfig(batch_size=4, delta=0.1, relaxation=rx.Constant(1.0),
                          max_iters=60, seed=10, collect_records=True)
        passes = []

        def recorded(*args, **kwargs):
            passes.append(run_block(*args, **kwargs))
            return passes[-1]

        monkeypatch.setattr(experiments, "run_block", recorded)
        result = run_experiment(prob, prob.build_family(), cfg, "const1")
        reference_pass, recording_pass = passes
        assert reference_pass.records is None
        assert recording_pass is result.results[0] and len(recording_pass.records) == 60

    @pytest.mark.parametrize("max_iters, record_every, stops_early",
                             [(60, 1, False), (400, 7, True)])
    def test_recording_pass_is_a_prefix_of_the_reference_pass(self, monkeypatch, max_iters,
                                                               record_every, stops_early):
        # the recording pass replays the reference pass's draws, so on their
        # common rows the residual, lambda and extrapolation columns agree bit
        # for bit, whether the reference pass stops before the budget or not
        prob = generate_signal_problem(n=64, p=3, seed=10)
        cfg = BlockConfig(batch_size=4, delta=0.1, relaxation=rx.UniformInterval(1.5, 2.3),
                          max_iters=max_iters, seed=10, atol=1e-12, record_every=record_every)
        passes = []

        def recorded(family, run_cfg, *args, **kwargs):
            # the reference pass keeps two trace rows; the same pass at
            # record_every=1 ends at the same point (see
            # test_reference_pass_keeps_only_the_rows_it_reads) and keeps them all
            full = run_cfg if run_cfg.atol == 0.0 else replace(run_cfg, record_every=1)
            res = run_block(family, full, *args, **kwargs)
            passes.append((run_cfg, res.trace))
            return res

        monkeypatch.setattr(experiments, "run_block", recorded)
        result = run_experiment(prob, prob.build_family(), cfg, "uniform", repeats=2)
        assert len(passes) == 4
        for rep in range(2):
            (ref_cfg, ref_trace), (rec_cfg, rec_trace) = passes[2 * rep: 2 * rep + 2]
            assert ref_cfg.seed == rec_cfg.seed == result.seeds[rep]
            assert ref_cfg.max_iters == ref_cfg.record_every == 10 * max_iters
            assert rec_cfg.atol == 0.0
            assert rec_trace is result.results[rep].trace
            common, ref_rows, rec_rows = np.intersect1d(
                ref_trace.iterations(), rec_trace.iterations(), return_indices=True)
            assert common.size >= 2
            for column in ("residuals", "lambdas", "extrapolations"):
                ref_col = getattr(ref_trace, column)()[ref_rows]
                rec_col = getattr(rec_trace, column)()[rec_rows]
                assert np.array_equal(ref_col, rec_col), column
            assert (ref_trace.footer["iterations_run"] < max_iters) == stops_early

    @pytest.mark.parametrize("instance", ["signal", "image"])
    def test_reference_pass_keeps_only_the_rows_it_reads(self, monkeypatch, instance):
        # row 0 and the stop (or last) row; the point, the stop iteration and
        # the final residual are those of the same pass recording every row
        if instance == "signal":
            problem = experiments.desk_signal_problem(seed=3)
            family, m = problem.build_family(), 16
        else:
            problem = experiments.desk_image_problem(seed=0)
            family = problem.build_family(fourier_weight=experiments.DESK_IMAGE_FOURIER_WEIGHT)
            m = 2
        max_iters = 300
        x0 = np.zeros(problem.ground_truth.size)
        passes = []

        def recorded(*args, **kwargs):
            passes.append(run_block(*args, **kwargs))
            return passes[-1]

        monkeypatch.setattr(experiments, "run_block", recorded)
        for label, strategy in canonical_strategies().items():
            cfg = BlockConfig(batch_size=m, delta=0.5 / m, relaxation=strategy,
                              max_iters=max_iters, seed=derive_seed(3, label, 0),
                              atol=1e-12, stop_patience=50)
            try:
                ref = experiments.estimate_reference_solution(family, cfg, x0)
            except ReferenceSolutionError:
                ref = None
            kept = passes.pop().trace
            full = run_block(family, replace(cfg, max_iters=10 * max_iters, record_every=1), x0)
            stop = full.trace.footer["iterations_run"]
            assert kept.footer == full.trace.footer, label
            assert kept.iterations().tolist() == [0, stop - 1], label
            assert kept.final_residual() == full.trace.final_residual(), label
            if full.trace.final_residual() >= 1e-12:
                assert ref is None, label
            else:
                assert np.array_equal(ref, full.final), label


class TestFinalNormErrDbFooter:
    """A run with a reference point writes the dB of its final iterate into
    the trace footer; the oracle measures it in space."""

    @staticmethod
    def oracle(final, x0, ref):
        return 20.0 * np.log10(np.linalg.norm(final - ref) / np.linalg.norm(x0 - ref))

    def test_toy_run(self):
        family = LinearFamily(np.eye(2), [-np.inf, -np.inf], [0.0, 0.0])
        x0, ref = np.array([1.0, 1.0]), np.zeros(2)
        cfg = BlockConfig(batch_size=1, delta=0.5, relaxation=rx.Constant(0.5),
                          max_iters=20, seed=3, atol=0.0)
        res = run_block(family, cfg, x0, reference_solution=ref)
        assert np.all(res.final != ref)
        assert res.trace.footer["final_norm_err_db"] == self.oracle(res.final, x0, ref)

    def test_desk_signal_run(self):
        problem = experiments.desk_signal_problem(seed=3)
        truth, x0 = problem.ground_truth, np.zeros(problem.ground_truth.size)
        cfg = BlockConfig(batch_size=16, delta=0.5 / 16, relaxation=rx.Constant(1.9),
                          max_iters=60, seed=0, atol=0.0, record_every=7)
        res = run_block(problem.build_family(), cfg, x0, reference_solution=truth)
        db = res.trace.footer["final_norm_err_db"]
        assert db < res.trace.db_column()[-1]   # the last step moved x
        assert db == self.oracle(res.final, x0, truth)

    def test_desk_image_run(self):
        # the run measures in the isometric coordinates of its state, the
        # oracle in space: they agree to rounding
        problem = experiments.desk_image_problem(seed=0)
        family = problem.build_family(fourier_weight=experiments.DESK_IMAGE_FOURIER_WEIGHT)
        truth = np.ravel(problem.ground_truth)
        x0 = np.zeros(truth.size)
        cfg = BlockConfig(batch_size=2, delta=0.25, relaxation=rx.TwoPoint(2.3, 0.5, 1.5),
                          max_iters=200, seed=5, atol=0.0)
        res = run_block(family, cfg, x0, reference_solution=truth)
        db = res.trace.footer["final_norm_err_db"]
        assert db < -1.0
        assert db == pytest.approx(self.oracle(res.final, x0, truth), abs=1e-9)

    def test_absent_without_a_reference(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        km_cfg = fixedpoint.KmConfig(rx.Constant(0.5), max_iters=50, seed=1)
        sgd_cfg = fixedpoint.SgdConfig(
            beta=1.0, nu=0.75, max_iters=50, seed=1,
            gradient_family=fixedpoint.quadratic_family(np.zeros(2), [[0.1, 0.0], [-0.1, 0.0]]))
        block_cfg = BlockConfig(batch_size=1, delta=0.5, relaxation=rx.Constant(1.0),
                                max_iters=20, seed=3)
        traces = [fixedpoint.run_km(lambda x: rot @ x, km_cfg, [1.0, 0.0])[1],
                  fixedpoint.run_sgd(sgd_cfg, [1.0, 1.0])[1],
                  run_block(LinearFamily(np.eye(2), [-np.inf, -np.inf], [0.0, 0.0]),
                            block_cfg, [1.0, 1.0]).trace]
        for trace in traces:
            assert "final_norm_err_db" not in trace.footer
            assert {"stop_reason", "atol", "iterations_run"} <= set(trace.footer)


class TestIndexStreamCoverage:
    def test_family_draws_cover_all_filters(self):
        prob = generate_signal_problem(n=32, p=4, seed=12)
        family = prob.build_family()
        rng = substream(0, "index")
        draws = sample_indices(family, rng, 2000).tolist()
        filters = {d // prob.n for d in draws}
        assert filters == set(range(4))
