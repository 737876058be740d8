"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
pass/fail line per criterion (pytest -v itself shows one line per test).
Wall-clock limits are asserted where the criterion states them.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from stochfeas import relaxation as rx
from stochfeas.block import BlockConfig, run_block
from stochfeas.cli import main as cli_main
from stochfeas.experiments import (
    DESK_IMAGE_FOURIER_WEIGHT,
    canonical_strategies,
    desk_image_problem,
    desk_signal_problem,
    run_experiment,
)
from stochfeas.fixedpoint import DecayingNoise, KmConfig, SgdConfig, quadratic_family, run_km, run_sgd
from stochfeas.operators import LinearFamily

from conftest import (
    force_indices,
    iterations_to_db,
    random_halfspace_problem,
    relaxation_cap,
    sample_solution_points,
    timing_free_text,
)

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


# ---------------------------------------------------------------------------
# Criteria 1 + 2 share one suite of 400 runs.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fejer_suite():
    t0 = time.perf_counter()
    runs = []
    for trial in range(100):
        prng = np.random.default_rng(5000 + trial)
        normals, offsets, family, center, margin = random_halfspace_problem(prng)
        zs = sample_solution_points(prng, center, margin, count=5)
        for lam in (1.0, 1.9):
            for m in (1, 4):
                cfg = BlockConfig(
                    batch_size=m, delta=0.5 / m if m == 1 else 0.1,
                    relaxation=rx.Constant(lam), max_iters=300,
                    seed=9000 + trial, atol=1e-13, stop_patience=25, record_every=1,
                )
                res = run_block(family, cfg, np.zeros(10), fejer_points=zs)
                runs.append((m, lam, res))
    return runs, time.perf_counter() - t0


def test_criterion_01_pathwise_fejer_suite(fejer_suite):
    """100 random feasibility problems, lam in {1.0, 1.9}, M in {1, 4}:
    zero violations of the descent inequality for 5 solution points per
    problem at every iteration, within 60 s."""
    runs, elapsed = fejer_suite
    assert len(runs) == 400
    total_violations = sum(res.fejer_violations for _, _, res in runs)
    worst = max(res.worst_fejer_violation for _, _, res in runs)
    assert total_violations == 0, f"{total_violations} violations, worst {worst}"
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    _report(1, f"0 violations over 400 runs in {elapsed:.1f}s")


def test_criterion_02_extrapolation_bound(fejer_suite):
    """min L_n >= 1 - 1e-12 on every run; L_n == 1 exactly when M = 1."""
    runs, _ = fejer_suite
    global_min = min(res.trace.extrapolations().min() for _, _, res in runs)
    assert global_min >= 1.0 - 1e-12
    for m, lam, res in runs:
        if m == 1:
            assert np.all(res.trace.extrapolations() == 1.0)
    _report(2, f"global min L = {global_min!r}, M=1 runs exactly 1")


def test_criterion_03_hand_oracle_one_step(monkeypatch):
    """Two half-spaces from (1, 1), both indices active, uniform weights,
    lam = 1: the extrapolated step lands on (0, 0) within 1e-15."""
    family = LinearFamily(np.eye(2), [-np.inf, -np.inf], [0.0, 0.0])
    force_indices(monkeypatch, family, [0, 1])
    cfg = BlockConfig(batch_size=2, delta=0.4, relaxation=rx.Constant(1.0),
                      max_iters=1, seed=0, collect_records=True)
    res = run_block(family, cfg, [1.0, 1.0])
    assert res.records[0].indices == (0, 1)
    err = float(np.max(np.abs(res.final)))
    assert err <= 1e-15
    _report(3, f"one-step error {err:.2e} <= 1e-15")


def test_criterion_04_km_residual():
    """Rotation toy with mu = 1/2: residual < 1e-6 within 200 iterations;
    with the decaying error schedule, residual < 1e-4 within 2000
    iterations on 20/20 seeds."""
    T = lambda x: ROT90 @ x
    cfg = KmConfig(rx.Constant(0.5), max_iters=200, seed=1, atol=0.0)
    _, trace = run_km(T, cfg, [1.0, 0.0])
    assert trace.residuals()[-1] < 1e-6

    passed = 0
    for seed in range(20):
        noisy = KmConfig(rx.Constant(0.5), max_iters=2000, seed=seed,
                         error_schedule=DecayingNoise(1.0, 1.5), atol=0.0)
        _, tr = run_km(T, noisy, [1.0, 0.0])
        if tr.residuals()[-1] < 1e-4:
            passed += 1
    assert passed == 20, f"only {passed}/20 noisy seeds under 1e-4"
    _report(4, "clean run < 1e-6 in 200 iters; noisy < 1e-4 on 20/20 seeds")


def test_criterion_05_sgd_quadratic():
    """Stochastic quadratic family, beta=1, nu=0.75, 20 seeds: median
    gradient norm at n = 1e5 below 1e-2 and a decreasing running minimum.
    Runtime < 2 min."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(77)
    center = gen.uniform(-1.0, 1.0, size=8)
    offsets = gen.uniform(-0.25, 0.25, size=(10, 8))
    checkpoints = (100, 1_000, 10_000, 100_000)
    finals = []
    running_mins = {c: [] for c in checkpoints}
    for seed in range(20):
        fam = quadratic_family(center, offsets)
        cfg = SgdConfig(beta=1.0, nu=0.75, max_iters=100_000, seed=seed,
                        gradient_family=fam, record_every=10)
        _, trace = run_sgd(cfg, np.zeros(8))
        res = trace.residuals()
        iters = trace.iterations()
        finals.append(res[-1])
        run_min = np.minimum.accumulate(res)
        for c in checkpoints:
            idx = np.searchsorted(iters, c, side="right") - 1
            running_mins[c].append(run_min[idx])
    elapsed = time.perf_counter() - t0
    median_final = float(np.median(finals))
    assert median_final < 1e-2, f"median gradient norm {median_final:.3e}"
    medians = [float(np.median(running_mins[c])) for c in checkpoints]
    assert all(a > b for a, b in zip(medians, medians[1:])), medians
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(5, f"median |grad f| = {median_final:.2e}, running-min medians {medians}")


def test_criterion_06_relaxation_statistics():
    """Two-point and uniform strategies: empirical mean within 1% of 1.9
    over 1e5 draws; analytic dampings 0.03 and 0.136667 to 1e-12."""
    from stochfeas.rngstreams import substream

    two_point = rx.TwoPoint(2.3, 0.5, 1.5)
    uniform = rx.UniformInterval(1.5, 2.3)
    for strategy in (two_point, uniform):
        rng = substream(31415, "relaxation")
        mean = np.mean(strategy.sample(rng, 10 ** 5))
        assert abs(mean - 1.9) < 0.01 * 1.9
    assert two_point.moments().damping == pytest.approx(
        2 * 1.9 - (2.3 ** 2 + 1.5 ** 2) / 2, abs=1e-12)
    assert two_point.moments().damping == pytest.approx(0.03, abs=1e-12)
    assert uniform.moments().damping == pytest.approx(
        2 * 1.9 - (1.5 ** 2 + 1.5 * 2.3 + 2.3 ** 2) / 3, abs=1e-12)
    assert uniform.moments().damping == pytest.approx(0.1366666666666667, abs=1e-12)
    _report(6, "means within 1%; dampings 0.03 and 0.136667 to 1e-12")


def test_criterion_07_signal_experiment():
    """Desk-scale signal problem: every strategy reaches -60 dB, and the
    seed-averaged iteration count to -60 dB is strictly smaller for M=16
    than for M=1 for every strategy. Runtime < 5 min."""
    t0 = time.perf_counter()
    problem = desk_signal_problem(seed=7)
    family = problem.build_family()
    budgets = {1: 6000, 16: 1200}
    mean_iters = {}
    for m, budget in budgets.items():
        base = BlockConfig(batch_size=m, delta=0.5 / m,
                           relaxation=rx.Constant(1.0), max_iters=budget,
                           seed=123, atol=1e-12, stop_patience=50, record_every=1)
        for label, strategy in canonical_strategies().items():
            result = run_experiment(problem, family, replace(base, relaxation=strategy), label,
                                    repeats=10)
            counts = [iterations_to_db(r.trace, -60.0) for r in result.results]
            assert all(c is not None for c in counts), \
                f"{label} M={m}: some runs never reached -60 dB ({counts})"
            mean_iters[(m, label)] = float(np.mean(counts))
    for label in canonical_strategies():
        assert mean_iters[(16, label)] < mean_iters[(1, label)], (
            f"{label}: M=16 mean {mean_iters[(16, label)]} not below "
            f"M=1 mean {mean_iters[(1, label)]}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    summary = {lab: (mean_iters[(1, lab)], mean_iters[(16, lab)])
               for lab in canonical_strategies()}
    _report(7, f"-60 dB reached everywhere; mean iters (M=1, M=16): {summary}; "
               f"{elapsed:.0f}s")


def test_criterion_08_image_experiment():
    """Desk-scale image problem, M=2: after the terminal spectrum-then-box
    cleanup every ball satisfies f_k <= 1e-6 xi, the box holds exactly, and
    the spectrum constraint holds to 1e-6; all four strategies converge
    within 2e4 iterations. Runtime < 5 min."""
    t0 = time.perf_counter()
    problem = desk_image_problem(seed=4)
    assert all(problem.ball_contains_truth)
    family = problem.build_family(fourier_weight=DESK_IMAGE_FOURIER_WEIGHT)
    tol = 1e-6 * problem.xi
    outcomes = {}
    for label, strategy in canonical_strategies().items():
        cfg = BlockConfig(batch_size=2, delta=0.25, relaxation=strategy,
                          max_iters=20_000, seed=11, atol=1e-9,
                          stop_patience=50, record_every=100)
        res = run_block(family, cfg, np.zeros(problem.dim))
        final = problem.finalize(res.final)
        report = problem.feasibility_report(final)
        assert max(report["ball_values"]) <= tol, (label, report["ball_values"])
        assert report["box_violation"] == 0.0
        assert report["fourier_relative_deviation"] <= 1e-6
        outcomes[label] = max(report["ball_values"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(8, f"worst ball values {outcomes} (tol {tol:.2e}); {elapsed:.0f}s")


def test_criterion_09_linear_rate():
    """Orthogonal two-half-space problem (regularity constant nu = 2): the
    Monte-Carlo mean one-step contraction of d_Z^2 over 200 seeds stays
    below chi = 1 - mu delta zeta / (rho^2 nu) + 3 standard errors."""
    family = LinearFamily(np.eye(2), [-np.inf, -np.inf], [0.0, 0.0])

    def dz_sq(x):
        return max(x[0], 0.0) ** 2 + max(x[1], 0.0) ** 2

    nu = 2.0  # d_Z^2(x) = 2 E ||T_k x - x||^2 for uniform k over the two sets
    x0 = np.array([1.0, 1.0])
    delta = 0.4
    for strategy in (rx.Constant(1.0), rx.TwoPoint(2.3, 0.5, 1.5)):
        m = strategy.moments()
        chi = 1.0 - m.damping * delta * m.second_moment / (relaxation_cap(strategy) ** 2 * nu)
        assert 0.0 < chi < 1.0
        ratios = []
        for seed in range(200):
            cfg = BlockConfig(batch_size=2, delta=delta, relaxation=strategy,
                              max_iters=1, seed=seed, atol=0.0)
            res = run_block(family, cfg, x0)
            ratios.append(dz_sq(res.final) / dz_sq(x0))
        mean = float(np.mean(ratios))
        se = float(np.std(ratios, ddof=1) / np.sqrt(len(ratios)))
        assert mean <= chi + 3 * se, f"mean {mean} vs chi {chi} + 3se {3 * se}"
        _report(9, f"{rx.strategy_label(strategy)}: mean contraction {mean:.4f} "
                   f"<= chi {chi:.4f} + 3se {3 * se:.4f}")


def test_criterion_10_determinism(tmp_path):
    """Identical config+seed gives byte-identical non-timing outputs, and
    the runs of one invocation share no state: a strategy run alone writes
    the same trace files as it does in the full sweep."""
    args = ["signal", "--scale", "desk", "--iters", "80", "--repeats", "2",
            "--M", "4", "--seed", "21"]
    snapshots = {}
    for tag, extra in (("a", []), ("b", []), ("alone", ["--relaxation", "const:1.9"])):
        dest = tmp_path / tag
        assert cli_main(args + extra + ["--output-dir", str(dest)]) == 0
        files = {p.name: timing_free_text(p) for p in dest.iterdir()}
        snapshots[tag] = files
    assert snapshots["a"] == snapshots["b"]
    alone = {name: text for name, text in snapshots["alone"].items() if name != "summary.json"}
    assert len(alone) == 3  # two per-run traces and their average
    assert alone == {name: text for name, text in snapshots["a"].items()
                     if name.startswith("signal_const1.9_")}
    _report(10, f"{len(snapshots['a'])} artifacts identical across reruns; "
                f"the {len(alone)} const1.9 traces identical when run alone")
