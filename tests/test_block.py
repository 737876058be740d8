from dataclasses import replace

import numpy as np
import pytest

from stochfeas import relaxation as rx
from stochfeas.block import (
    MAX_RESIDUAL_CONCENTRATED,
    UNIFORM_OVER_BATCH,
    BlockConfig,
    BlockIterationRecord,
    RunTape,
    _extrapolation,
    compute_weights,
    run_block,
)
from stochfeas.exceptions import (
    ConfigurationError,
    InvariantViolationError,
    NumericError,
    UsageError,
)
from stochfeas.fixedpoint import DecayingNoise
from stochfeas.operators import LinearFamily, OperatorFamily, sample_indices
from stochfeas.rngstreams import substream

from conftest import (
    assert_same_run,
    dykstra_distance,
    force_indices,
    halfspace_proj_oracle,
    random_halfspace_problem,
    replay_block,
    sample_solution_points,
)


def two_halfspace_family():
    return LinearFamily(np.eye(2), [-np.inf, -np.inf], [0.0, 0.0])


class TestWeights:
    def test_single_member(self):
        np.testing.assert_array_equal(
            compute_weights([2.0], 0.5, UNIFORM_OVER_BATCH), [1.0])
        np.testing.assert_array_equal(
            compute_weights([2.0], 0.5, MAX_RESIDUAL_CONCENTRATED), [1.0])

    def test_concentrated_rule_example(self):
        beta = compute_weights([3.0, 1.0], 0.2, MAX_RESIDUAL_CONCENTRATED)
        np.testing.assert_allclose(beta, [0.6, 0.4], atol=0)
        assert beta.sum() == pytest.approx(1.0, abs=1e-15)
        assert beta[0] >= 0.2

    def test_tie_handling_uniform(self):
        beta = compute_weights([2.0, 2.0], 0.2, UNIFORM_OVER_BATCH)
        np.testing.assert_array_equal(beta, [0.5, 0.5])
        assert all(b >= 0.2 for b in beta)

    def test_tie_handling_concentrated(self):
        beta = compute_weights([2.0, 2.0, 1.0], 0.3, MAX_RESIDUAL_CONCENTRATED)
        assert beta.sum() == pytest.approx(1.0, abs=1e-12)
        assert beta[0] >= 0.3 and beta[1] >= 0.3

    def test_all_zero_residuals(self):
        beta = compute_weights([0.0, 0.0], 0.25, MAX_RESIDUAL_CONCENTRATED)
        assert beta.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(beta >= 0.25)

    def test_near_tie_within_relative_band(self):
        rmax = 5.0
        beta = compute_weights([rmax, rmax * (1 - 5e-13)], 0.3,
                               MAX_RESIDUAL_CONCENTRATED)
        assert np.all(beta >= 0.3)

    def test_delta_range_enforced(self):
        for delta in (0.0, 0.5, 0.6, -0.1):
            with pytest.raises(UsageError):
                compute_weights([1.0, 1.0], delta, UNIFORM_OVER_BATCH)


class TestExtrapolation:
    def test_indicator_branch(self):
        assert _extrapolation(np.zeros(2), np.array([0.5, 0.5]), 0.0) == 1.0

    def test_single_member_is_one(self):
        r = 3.7
        assert _extrapolation(np.array([r]), np.array([1.0]), r) == 1.0

    def test_two_halfspace_hand_value(self):
        # x=(1,1), p1=(0,1), p2=(1,0): sum beta r^2 = 1, ||p - x||^2 = 1/2
        L = _extrapolation(np.ones(2), np.array([0.5, 0.5]), np.sqrt(0.5))
        assert L == pytest.approx(2.0, rel=1e-15)

    def test_convexity_lower_bound(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 6))
            beta = rng.dirichlet(np.ones(m))
            ps = rng.normal(size=(m, 4))
            x = rng.normal(size=4)
            p_bar = beta @ ps
            r = np.linalg.norm(ps - x, axis=1)
            L = _extrapolation(r, beta, float(np.linalg.norm(p_bar - x)))
            assert L >= 1.0 - 1e-12

    def test_record_check_matches_the_loop_slack(self):
        # run_block accepts L down to 1 - 1e-9, so collecting records must too
        rec = BlockIterationRecord(0, (0,), np.array([1.0]), np.zeros(2), 1.0 - 1e-10,
                                   np.zeros(2), 1.0)
        rec.validate(0.5, [1.0])
        rec.extrapolation = 1.0 - 1e-8
        with pytest.raises(InvariantViolationError, match="below 1"):
            rec.validate(0.5, [1.0])


class TestRunBlock:
    def test_hand_oracle_two_halfspaces_one_step(self, monkeypatch):
        family = two_halfspace_family()
        force_indices(monkeypatch, family, [0, 1])
        cfg = BlockConfig(batch_size=2, delta=0.4, relaxation=rx.Constant(1.0),
                          max_iters=1, seed=0, collect_records=True)
        res = run_block(family, cfg, [1.0, 1.0])
        assert res.records[0].indices == (0, 1)
        np.testing.assert_allclose(res.final, [0.0, 0.0], atol=1e-15)
        assert res.trace.extrapolations()[0] == pytest.approx(2.0, rel=1e-15)

    def test_matches_straight_line_reference(self, rng):
        """Full trajectory equals an independent transcription of the update."""
        normals, offsets, family, center, margin = random_halfspace_problem(rng, dim=6,
                                                                            count=8)
        cfg = BlockConfig(batch_size=3, delta=0.2, relaxation=rx.TwoPoint(2.3, 0.5, 1.5),
                          max_iters=40, seed=99, atol=0.0)
        res = run_block(family, cfg, np.zeros(6))
        x, _, _ = replay_block(family, cfg, np.zeros(6), evaluate=lambda k, x: (
            halfspace_proj_oracle(normals[k], offsets[k], x) - x))
        np.testing.assert_allclose(res.final, x, rtol=1e-12, atol=1e-12)

    def test_example1_reduction_single_projection(self, rng):
        """M=1, lam=1, exact projectors: the update is x+ = proj_{C_k} x."""
        normals, offsets, family, center, margin = random_halfspace_problem(rng, dim=4,
                                                                            count=5)
        cfg = BlockConfig(batch_size=1, delta=0.5, relaxation=rx.Constant(1.0),
                          max_iters=30, seed=4, atol=0.0)
        res = run_block(family, cfg, np.zeros(4))
        idx_rng = substream(4, "index")
        x = np.zeros(4)
        for n in range(30):
            k = sample_indices(family, idx_rng, 1).item()
            x = halfspace_proj_oracle(normals[k], offsets[k], x)
        np.testing.assert_allclose(res.final, x, rtol=1e-13, atol=1e-13)
        assert np.all(res.trace.extrapolations() == 1.0)

    def test_feasibility_monte_carlo_with_dz_oracle(self, rng):
        """20 half-spaces in R^10: pathwise Fejer clean and d_Z -> 0."""
        failures = 0
        for trial in range(50):
            prng = np.random.default_rng(1000 + trial)
            normals, offsets, family, center, margin = random_halfspace_problem(prng)
            zs = sample_solution_points(prng, center, margin)
            cfg = BlockConfig(batch_size=4, delta=0.1,
                              relaxation=rx.TwoPoint(2.3, 0.5, 1.5),
                              max_iters=5000, seed=2000 + trial, atol=1e-14)
            res = run_block(family, cfg, np.zeros(10), fejer_points=zs)
            assert res.fejer_violations == 0
            d = dykstra_distance(normals, offsets, res.final)
            if d >= 1e-6:
                failures += 1
        assert failures == 0

    def test_dz_oracle_early_exit_equals_full_sweeps(self):
        prng = np.random.default_rng(19)
        normals, offsets, _, center, _ = random_halfspace_problem(prng, dim=4, count=5)
        x = center + prng.normal(size=4)
        # x lies outside one half-space, and its projection onto that one
        # leaves another, so the oracle runs several sweeps before it exits
        assert np.count_nonzero(normals @ x > offsets) == 1
        # the 4,000 sweeps transcribed without the early exit
        y = x.copy()
        corrections = np.zeros((5, 4))
        for _ in range(4000):
            for i in range(5):
                w = y + corrections[i]
                y = halfspace_proj_oracle(normals[i], offsets[i], w)
                corrections[i] = w - y
        d = dykstra_distance(normals, offsets, x)
        assert d > 0.0 and d == float(np.linalg.norm(y - x))

    def test_lambda_stream_independent_of_batch_size(self, rng):
        normals, offsets, family, center, margin = random_halfspace_problem(rng)
        lam_seqs = []
        for m in (1, 4):
            cfg = BlockConfig(batch_size=m, delta=0.1 if m == 4 else 0.5,
                              relaxation=rx.UniformInterval(1.5, 2.3),
                              max_iters=25, seed=77, atol=0.0)
            res = run_block(family, cfg, np.zeros(10))
            lam_seqs.append(list(res.trace.lambdas()))
        assert lam_seqs[0] == lam_seqs[1]

    def test_extrapolation_always_at_least_one(self, rng):
        normals, offsets, family, center, margin = random_halfspace_problem(rng)
        cfg = BlockConfig(batch_size=4, delta=0.2, relaxation=rx.Constant(1.9),
                          max_iters=500, seed=5, atol=0.0)
        res = run_block(family, cfg, np.zeros(10))
        assert res.trace.extrapolations().min() >= 1.0 - 1e-12

    def test_records_validate_and_convexity(self, rng):
        normals, offsets, family, center, margin = random_halfspace_problem(rng)
        cfg = BlockConfig(batch_size=3, delta=0.2, relaxation=rx.Constant(1.0),
                          max_iters=200, seed=6, atol=0.0, collect_records=True)
        res = run_block(family, cfg, np.zeros(10))
        assert_same_run(res, *replay_block(family, cfg, np.zeros(10)))
        # convexity: sum_i beta_i ||p_i - x||^2 >= ||p - x||^2 is exactly L >= 1
        assert min(rec.extrapolation for rec in res.records) >= 1.0 - 1e-12

    @pytest.mark.parametrize("budget", [7, 8])
    def test_last_row_is_the_last_iteration(self, rng, budget):
        normals, offsets, family, center, margin = random_halfspace_problem(rng)
        cfg = BlockConfig(batch_size=2, delta=0.3, relaxation=rx.Constant(1.0),
                          max_iters=budget, seed=3, atol=0.0, record_every=2)
        res = run_block(family, cfg, np.zeros(10))
        assert res.trace.footer["iterations_run"] == budget
        assert res.trace.iterations().tolist() == sorted({*range(0, budget, 2), budget - 1})

    def test_reference_solution_enables_db_column(self, monkeypatch):
        family = two_halfspace_family()
        force_indices(monkeypatch, family, [0, 1])
        cfg = BlockConfig(batch_size=2, delta=0.4, relaxation=rx.Constant(1.0),
                          max_iters=5, seed=0, atol=0.0, collect_records=True)
        res = run_block(family, cfg, [1.0, 1.0], reference_solution=np.zeros(2))
        assert [rec.indices for rec in res.records] == [(0, 1)] * 5
        db = res.trace.db_column()
        assert db is not None
        assert db[0] == 0.0           # at x0
        assert db[1] == -300.0        # x1 is exactly the reference

    @pytest.mark.parametrize("point", ["reference_solution", "fejer_points"])
    def test_length_one_point_does_not_broadcast(self, point):
        cfg = BlockConfig(batch_size=2, delta=0.4, relaxation=rx.Constant(1.0),
                          max_iters=5, seed=0, atol=0.0)
        value = [0.5] if point == "reference_solution" else [[0.5]]
        with pytest.raises(UsageError, match="dimension mismatch"):
            run_block(two_halfspace_family(), cfg, [1.0, 1.0], **{point: value})

    @pytest.mark.parametrize("point", ["reference_solution", "fejer_points"])
    def test_wrong_length_point_is_a_usage_error(self, point):
        cfg = BlockConfig(batch_size=2, delta=0.4, relaxation=rx.Constant(1.0),
                          max_iters=5, seed=0, atol=0.0)
        value = np.zeros(3) if point == "reference_solution" else [np.zeros(3)]
        with pytest.raises(UsageError, match="dimension mismatch"):
            run_block(two_halfspace_family(), cfg, [1.0, 1.0], **{point: value})


    @pytest.mark.parametrize("length", [1, 4])
    def test_member_point_of_another_length_is_a_usage_error(self, length):
        # a length-1 point would broadcast into the row, a length-4 one fail inside numpy
        family = OperatorFamily([lambda x: np.full(length, 5.0)])
        cfg = BlockConfig(batch_size=1, delta=0.5, relaxation=rx.Constant(1.0),
                          max_iters=5, seed=0)
        with pytest.raises(UsageError, match=rf"shape \(3,\) to \({length},\)"):
            run_block(family, cfg, np.zeros(3))


class TestNoOpIterations:
    """An iteration whose drawn steps are all zero returns x itself; the
    replay takes the full arithmetic on every iteration."""

    @staticmethod
    def both_paths(family, x0):
        cfg = BlockConfig(batch_size=1, delta=0.5, relaxation=rx.Constant(1.5),
                          max_iters=6, seed=4, atol=0.0, collect_records=True)
        res = run_block(family, cfg, x0)
        assert_same_run(res, *replay_block(family, cfg, x0))
        return res

    @pytest.mark.parametrize("x0", [[-0.0, -1.0], [-0.0, 1.0]], ids=["all-noop", "mixed"])
    def test_negative_zero_x0_matches_full_path(self, x0):
        res = self.both_paths(two_halfspace_family(), np.array(x0))
        assert not np.signbit(res.final[0])

    def test_nonzero_step_with_underflowing_norm_is_applied(self):
        # ||d||^2 = 1e-400 underflows, so the norm reads 0 while the row does not
        family = OperatorFamily([lambda x: x + np.array([1e-200, 0.0])])
        assert self.both_paths(family, np.zeros(2)).final[0] > 0.0

    def test_noop_iteration_zero_beyond_divergence_limit_raises(self):
        # (-1e13, -1e13) lies in both half-spaces, so iteration 0 leaves x0 as is
        cfg = BlockConfig(batch_size=2, delta=0.3, relaxation=rx.Constant(1.0),
                          max_iters=5, seed=0)
        with pytest.raises(NumericError, match="iteration 0"):
            run_block(two_halfspace_family(), cfg, [-1e13, -1e13])

    def test_step_whose_squares_overflow_raises_without_a_warning(self):
        # RuntimeWarnings are errors here.  Member 1 fixes 0, and member 0
        # steps to (1e200, 0), whose squares in the step norm and in the
        # guard overflow silently: the guard names the first iteration to draw it
        family = LinearFamily(np.eye(2), [1e200, -np.inf], [1e200, 0.0])
        cfg = BlockConfig(batch_size=1, delta=0.5, relaxation=rx.Constant(1.0),
                          max_iters=50, seed=4, atol=0.0)
        first = sample_indices(family, substream(cfg.seed, "index"), 50).tolist().index(0)
        assert first > 0   # the run takes no-op iterations first
        with pytest.raises(NumericError, match=rf"^iterate diverged at iteration {first}$"):
            run_block(family, cfg, np.zeros(2))


class TestErrorTolerantVariant:
    def test_update_uses_average_without_extrapolation(self, rng):
        normals, offsets, family, center, margin = random_halfspace_problem(rng)
        cfg = BlockConfig(batch_size=3, delta=0.2, relaxation=rx.Constant(1.0),
                          max_iters=50, seed=31, atol=0.0,
                          error_schedule=DecayingNoise(0.1, 1.5))
        res = run_block(family, cfg, np.zeros(10))
        assert np.all(res.trace.extrapolations() == 1.0)

    def test_relaxation_support_must_stay_below_two(self):
        with pytest.raises(ConfigurationError):
            BlockConfig(batch_size=2, delta=0.3, relaxation=rx.TwoPoint(2.3, 0.5, 1.5),
                        max_iters=10, seed=0, error_schedule=DecayingNoise(0.1, 1.5))

    def test_noise_certificate_required(self):
        with pytest.raises(ConfigurationError):
            BlockConfig(batch_size=2, delta=0.3, relaxation=rx.Constant(1.0),
                        max_iters=10, seed=0, error_schedule=DecayingNoise(0.1, 0.8))

    def test_converges_despite_noise(self, rng):
        normals, offsets, family, center, margin = random_halfspace_problem(rng)
        cfg = BlockConfig(batch_size=4, delta=0.1, relaxation=rx.Constant(1.0),
                          max_iters=3000, seed=8, atol=0.0,
                          error_schedule=DecayingNoise(0.5, 1.5))
        res = run_block(family, cfg, np.zeros(10))
        assert dykstra_distance(normals, offsets, res.final) < 1e-3


class TestConfigValidation:
    def test_delta_bounds(self):
        with pytest.raises(ConfigurationError):
            BlockConfig(batch_size=4, delta=0.25, relaxation=rx.Constant(1.0),
                        max_iters=10, seed=0)
        with pytest.raises(ConfigurationError):
            BlockConfig(batch_size=2, delta=0.0, relaxation=rx.Constant(1.0),
                        max_iters=10, seed=0)

    def test_negative_damping_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockConfig(batch_size=2, delta=0.3, relaxation=rx.Constant(2.5),
                        max_iters=10, seed=0)

    def test_zero_damping_rejected_for_super_relaxed(self):
        with pytest.raises(ConfigurationError):
            BlockConfig(batch_size=2, delta=0.3, relaxation=rx.Constant(2.0),
                        max_iters=10, seed=0)

    @pytest.mark.parametrize("kwargs, hypothesis", [
        (dict(relaxation=rx.Constant(2.0)), r"E\[lam\(2-lam\)\] > 0 violated: got 0$"),
        (dict(relaxation=rx.Constant(2.5)), r"E\[lam\(2-lam\)\] > 0 violated: got -1\.25$"),
        (dict(relaxation=rx.Constant(2.5), error_schedule=DecayingNoise(0.1, 1.5)),
         r"E\[lam\(2-lam\)\] > 0 violated"),
        (dict(relaxation=rx.TwoPoint(2.3, 0.5, 1.5), error_schedule=DecayingNoise(0.1, 1.5)),
         r"lam_n in \]0, 2\[ violated"),
        (dict(error_schedule=DecayingNoise(0.1, 1.0)), "summability certificate"),
        (dict(delta=0.5), r"delta in \]0, 1/M\[ violated"),
        (dict(delta=0.0), r"delta in \]0, 1/M\[ violated"),
        (dict(atol=float("nan")), "atol must be a number"),
    ], ids=["damping-zero", "damping-negative", "error-tolerant-damping",
            "error-tolerant-sup-2", "errors-not-summable", "delta-1/M", "delta-0", "atol-nan"])
    def test_violation_names_hypothesis_at_construction(self, kwargs, hypothesis):
        kwargs = {"relaxation": rx.Constant(1.0), "delta": 0.3, **kwargs}
        with pytest.raises(ConfigurationError, match=hypothesis):
            BlockConfig(batch_size=2, max_iters=10, seed=0, **kwargs)


class TestRunTape:
    """A run given an empty tape fills it; a run given the filled tape plays
    back the taped calls and goes on with the taped run's driver, with the
    bits of a run from x0."""

    X0 = np.array([-1.0, -1.0])

    @staticmethod
    def family():
        # x0 lies in the first 15 half-spaces and not in the last, so a run
        # starts with a no-op run of several iterations
        rows = [[1.0, 0.0]] * 15 + [[1.0, 1.0]]
        return LinearFamily(rows, [-np.inf] * 16, [0.0] * 15 + [-3.0])

    @staticmethod
    def config(variant):
        if variant == "error-tolerant":
            return BlockConfig(batch_size=1, delta=0.5, relaxation=rx.Constant(1.0),
                               max_iters=40, seed=0, atol=0.0,
                               error_schedule=DecayingNoise(0.1, 2.0))
        return BlockConfig(batch_size=1, delta=0.5, relaxation=rx.UniformInterval(1.5, 2.3),
                           max_iters=40, seed=0, atol=0.0)

    @pytest.mark.parametrize("taped_iters", [1, 3, 25, 40, 100])
    @pytest.mark.parametrize("variant", ["screened", "error-tolerant"])
    def test_playback_equals_the_run_from_x0(self, variant, taped_iters, monkeypatch):
        # the taped run stops before the playing run's budget (1, 3, 25),
        # at it (40) or past it (100), with a no-op call that crosses it
        family, cfg = self.family(), self.config(variant)
        reference = [-2.0, -2.0]
        plain = run_block(family, cfg, self.X0, reference_solution=reference)
        if variant == "screened":
            assert plain.trace.residuals()[:3].tolist() == [0.0, 0.0, 0.0]
        tape = RunTape(cfg.max_iters)
        run_block(family, replace(cfg, max_iters=taped_iters, record_every=taped_iters),
                  self.X0, tape=tape)
        evaluations = []
        evaluate = family.evaluate
        monkeypatch.setattr(family, "evaluate",
                            lambda ks, x: evaluations.append(1) or evaluate(ks, x))
        played = run_block(family, replace(cfg, record_every=3), self.X0,
                           reference_solution=reference, tape=tape)
        # the playing run evaluates nothing itself: the taped run's driver
        # goes on in the taped run's state
        assert evaluations == []
        rerun = run_block(family, replace(cfg, record_every=3), self.X0,
                          reference_solution=reference)
        assert_same_run(played, rerun.final, rerun.trace)
        assert played.final.tobytes() == plain.final.tobytes()

    @pytest.mark.parametrize("change", ["seed", "x0", "fejer_points", "records", "budget",
                                        "played"])
    def test_a_tape_plays_once_and_only_to_its_own_run(self, change):
        family, cfg = self.family(), self.config("screened")
        x0, kwargs = self.X0, {}
        tape = RunTape(cfg.max_iters)
        run_block(family, cfg, x0, tape=tape)
        if change == "seed":
            cfg = replace(cfg, seed=5)
        elif change == "x0":
            x0 = x0 - 0.5
        elif change == "fejer_points":
            kwargs["fejer_points"] = [np.array([-2.0, -2.0])]
        elif change == "records":
            cfg = replace(cfg, collect_records=True)
        elif change == "budget":
            cfg = replace(cfg, max_iters=cfg.max_iters + 1)
        else:
            run_block(family, cfg, x0, tape=tape)
        with pytest.raises(UsageError):
            run_block(family, cfg, x0, tape=tape, **kwargs)


def test_records_correct_with_simultaneous_fejer_points(rng):
    """Records must hold the true averaged point even when the audit hook
    runs in the same iteration."""
    normals, offsets, family, center, margin = random_halfspace_problem(rng)
    zs = sample_solution_points(rng, center, margin)
    cfg = BlockConfig(batch_size=3, delta=0.2, relaxation=rx.Constant(1.0),
                      max_iters=50, seed=61, atol=0.0, collect_records=True)
    with_audit = run_block(family, cfg, np.zeros(10), fejer_points=zs)
    assert with_audit.fejer_violations == 0
    assert_same_run(with_audit, *replay_block(family, cfg, np.zeros(10)))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(min_value=1, max_value=8),
       rule=st.sampled_from([UNIFORM_OVER_BATCH, MAX_RESIDUAL_CONCENTRATED]))
def test_weight_rule_properties(data, m, rule):
    """Any residual vector: weights sum to 1, are nonnegative, and every
    argmax index receives at least delta."""
    residuals = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=m, max_size=m)))
    delta = data.draw(st.floats(min_value=1e-6, max_value=0.999 / m))
    beta = compute_weights(residuals, delta, rule)
    assert abs(beta.sum() - 1.0) <= 1e-12
    assert np.all(beta >= -1e-15)
    rmax = residuals.max()
    ties = residuals >= rmax * (1 - 1e-12)
    assert np.all(beta[ties] >= delta - 1e-12)
