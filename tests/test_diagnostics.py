import numpy as np
import pytest

from stochfeas import relaxation as rx
from stochfeas.block import BlockConfig, run_block
from stochfeas.diagnostics import aggregate_runs, audit_fejer_step
from stochfeas.exceptions import ReferenceSolutionError, UsageError
from stochfeas.experiments import estimate_reference_solution
from stochfeas.fixedpoint import _iterate
from stochfeas.operators import LinearFamily, OperatorFamily
from stochfeas.trace import ConvergenceTrace

from conftest import random_halfspace_problem, sample_solution_points


def make_trace(db_values, lam=1.0):
    t = ConvergenceTrace()
    for i, db in enumerate(db_values):
        t.append(i, 0.001 * i, 1.0 / (i + 1), db, lam, 1.0)
    return t


def final_db(x0, x_inf, *points):
    """The footer's ``final_norm_err_db`` of a loop whose step n moves to
    ``points[n]``; with no points, every step leaves x0 in place."""
    points = [np.asarray(p, dtype=float) for p in points]

    def step(n, x, want):
        return (points[n] if points else x), 0.0, 1.0, 1.0

    _, trace = _iterate(step, x0, len(points) or 3, 0.0, 1, reference=x_inf)
    return trace.footer["final_norm_err_db"]


class TestNormalizedErrorDb:
    """The normalized error of a run's final iterate, 20 log10(||x_N - x_inf||
    / ||x0 - x_inf||) clamped at -300 dB: ``final_norm_err_db`` in the footer
    of a trace with a reference point."""

    def test_at_start_zero_db(self):
        # every step returns x itself, so the final value is the cached row's
        assert final_db([1.0, 1.0], [0.0, 0.0]) == 0.0

    def test_log_identity(self):
        db = final_db([1.0, 0.0], [0.0, 0.0], [0.5, 0.0], [1e-3, 0.0])
        assert db == pytest.approx(-60.0, abs=1e-12)

    def test_clamp_at_limit(self):
        assert final_db([1.0, 1.0], [0.0, 0.0], [0.5, 0.0], [0.0, 0.0]) == -300.0

    def test_x0_equal_x_inf_rejected(self):
        with pytest.raises(UsageError, match="x0 equals the reference"):
            final_db([2.0], [2.0], [1.0])

    def test_translation_and_scaling_covariance(self, rng):
        for _ in range(20):
            x_n, x0, x_inf = rng.normal(size=(3, 4))
            base = final_db(x0, x_inf, x_n)
            shift = rng.normal(size=4)
            gamma = rng.uniform(0.1, 10.0)
            moved = final_db(gamma * (x0 + shift), gamma * (x_inf + shift),
                             gamma * (x_n + shift))
            assert moved == pytest.approx(base, abs=1e-9)


class TestAggregateRuns:
    def test_single_trace_is_itself(self):
        t = make_trace([0.0, -10.0, -20.0])
        avg = aggregate_runs([t])
        np.testing.assert_array_equal(avg.db_column(), [0.0, -10.0, -20.0])
        np.testing.assert_array_equal(avg.column("db_min"), avg.column("db_max"))

    def test_symmetric_traces_cancel(self):
        c = np.array([0.0, -5.0, -12.5])
        avg = aggregate_runs([make_trace(c), make_trace(-c)])
        np.testing.assert_allclose(avg.db_column(), np.zeros(3), atol=0)
        np.testing.assert_array_equal(avg.column("db_min"), -np.abs(c))
        np.testing.assert_array_equal(avg.column("db_max"), np.abs(c))

    def test_mean_matches_manual_recompute(self, rng):
        cols = rng.normal(size=(10, 7))
        traces = [make_trace(list(cols[i])) for i in range(10)]
        avg = aggregate_runs(traces)
        np.testing.assert_allclose(avg.db_column(), cols.mean(axis=0), atol=1e-12)

    def test_permutation_invariance(self, rng):
        cols = rng.normal(size=(5, 4))
        traces = [make_trace(list(c)) for c in cols]
        a = aggregate_runs(traces)
        b = aggregate_runs(traces[::-1])
        np.testing.assert_array_equal(a.db_column(), b.db_column())

    def test_mismatched_grids_rejected(self):
        t1 = make_trace([0.0, -1.0])
        t2 = ConvergenceTrace()
        t2.append(0, 0.0, 1.0, 0.0, 1.0, 1.0)
        t2.append(2, 0.0, 0.5, -1.0, 1.0, 1.0)
        with pytest.raises(UsageError):
            aggregate_runs([t1, t2])

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            aggregate_runs([])


def _toy_config(max_iters, seed):
    return BlockConfig(batch_size=2, delta=0.4, relaxation=rx.Constant(1.0),
                       max_iters=max_iters, seed=seed, atol=1e-12)


class TestEstimateReferenceSolution:
    def test_two_halfspace_toy(self):
        family = LinearFamily(np.eye(2), [-np.inf, -np.inf], [0.0, 0.0])
        ref = estimate_reference_solution(family, _toy_config(100, seed=3), [1.0, 1.0])
        np.testing.assert_allclose(ref, [0.0, 0.0], atol=1e-12)

    def test_consistent_linear_system_matches_direct_solve(self, rng):
        # hyperplanes <a_i, x> = b_i with a unique solution: block iteration
        # must land on the same point as the linear solve
        a = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        x_true = rng.normal(size=4)
        b = a @ x_true
        family = LinearFamily(a, b, b)
        ref = estimate_reference_solution(family, _toy_config(4000, seed=11), np.zeros(4))
        np.testing.assert_allclose(ref, np.linalg.solve(a, b), atol=1e-8)

    def test_infeasible_configuration_raises(self):
        # two parallel hyperplanes: no common point, residual never vanishes
        family = LinearFamily([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ReferenceSolutionError):
            estimate_reference_solution(family, _toy_config(50, seed=5), [0.3, 0.0])


class TestFejerAudit:
    def test_zero_violations_for_exact_runs(self, rng):
        normals, offsets, family, center, margin = random_halfspace_problem(rng)
        zs = sample_solution_points(rng, center, margin)
        for lam in (rx.Constant(1.0), rx.Constant(1.9)):
            cfg = BlockConfig(batch_size=4, delta=0.1, relaxation=lam,
                              max_iters=400, seed=17, atol=0.0)
            res = run_block(family, cfg, np.zeros(10), fejer_points=zs)
            assert res.fejer_violations == 0
            assert res.worst_fejer_violation == 0.0

    def test_detects_fabricated_violation(self):
        # a step from (1, 0) to a = (5, 0) that expands the distance to z = 0
        # without any damping term
        x, a = np.array([1.0, 0.0]), np.array([5.0, 0.0])
        count, worst = audit_fejer_step(x, a, 1.0, x - a, [np.zeros(2)])
        assert count == 1
        assert worst > 0
        # T x = 2 x fixes 0 but is not quasinonexpansive: each step from
        # (1, 0) doubles the distance to 0, and run_block counts each one
        cfg = BlockConfig(batch_size=1, delta=0.5, relaxation=rx.Constant(1.0),
                          max_iters=3, seed=0, atol=0.0)
        res = run_block(OperatorFamily([lambda x: 2.0 * x]), cfg, x, fejer_points=[np.zeros(2)])
        assert res.fejer_violations == 3
        assert res.worst_fejer_violation > 0
