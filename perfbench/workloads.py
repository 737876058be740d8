"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, runs one seeded
solver operation per call through the public stochfeas API, and checks each
output against a property the theory guarantees.  Operation ``k`` of a run
always gets the same inputs for a given seed, so the digest of the first
``digest_ops`` operations is comparable across commits.

The workloads call only public entry points that survive the planned
removals (no ``executor=``, ``cut_tolerance``, ``relaxation.sample`` or
``relaxation.moments`` wrappers, ``HalfSpaceCut``, ``bin_by_elapsed`` or
private CLI helpers).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import slowdown_after
from stochfeas import block, cli, experiments, fixedpoint
from stochfeas.trace import read_trace_csv

# Sorted canonical strategy labels; block ops rotate over them.
LABELS = tuple(sorted(experiments.canonical_strategies()))

# A step with relaxation <= 2 may not move the iterate away from any
# feasible point (pathwise Fejer monotonicity); dB values carry rounding.
FEJER_TOL_DB = 1e-9

# Final over initial gradient norm of the sgd workload: median 3.5e-3 and
# worst 8.2e-3 over 40 baseline operations (seeds 0-9, operations 0-3).
SGD_GRAD_RATIO = 0.05


def derived_seed(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the benchmark seed and a key path."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(ss.generate_state(1)[0])


def op_seed(seed: int, k: int) -> int:
    return derived_seed(seed, 0, k)


def instance_seed(seed: int, j: int = 0) -> int:
    return derived_seed(seed, 1, j)


@dataclass
class Outcome:
    """What one operation produced, as the harness needs it."""

    iterations: int
    problems: list
    digest: bytes
    samples: list = field(default_factory=list)     # scaled operation times, if not the call's
    slowdowns: list = field(default_factory=list)   # calibrations made inside the call
    calibration_s: float = 0.0                      # time those calibrations took
    bytes_written: int = 0


def _hash_arrays(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


def _trace_digest(final, trace) -> bytes:
    """Final iterate plus every trace column except elapsed_s."""
    db = trace.db_column()
    return _hash_arrays(final, trace.iterations(), trace.residuals(),
                        np.empty(0) if db is None else db,
                        trace.lambdas(), trace.extrapolations())


def _fejer_problems(trace, x0, final, truth) -> list:
    """Distance to the (feasible) ground truth must not grow on lam <= 2 steps.

    Row n of the trace holds the dB distance of x_n and the relaxation used
    to move to x_{n+1}; the final iterate closes the sequence.
    """
    db = trace.db_column()
    den = float(np.linalg.norm(x0 - truth))
    num = float(np.linalg.norm(final - truth))
    final_db = max(20.0 * math.log10(num / den), -300.0) if num > 0.0 else -300.0
    rises = np.diff(np.append(db, final_db))[trace.lambdas() <= 2.0]
    worst = float(rises.max(initial=0.0))
    if worst > FEJER_TOL_DB:
        return [f"distance to the truth grew by {worst:.3e} dB on a lam <= 2 step"]
    return []


class Workload:
    name = ""
    why = ""
    variants = 1        # consecutive operations rotate over this many inputs
    digest_ops = 4      # the digest covers operations 0 .. digest_ops - 1
    warmup = True       # run operation 0 once, untimed, before measuring
    workers = 0
    calibrate_inside = False   # set by the harness: calibrate inside this operation
    drop_fast_mode = False     # leave operations measured in the fast mode out of timings

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def construct(self):
        """Problem generation and family construction (timed for setup_s)."""
        raise NotImplementedError

    def prepare(self, state) -> None:
        self.state = state

    def run(self, k: int):
        """One seeded solver operation (timed)."""
        raise NotImplementedError

    def finish(self, k: int, raw) -> Outcome:
        """Check and digest the output of ``run`` (untimed)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class SgdWorkload(Workload):
    name = "sgd"
    why = ("run_sgd at criterion-5 shape (dim 8, 10 members, 1e5 steps): per-step interpreter "
           "overhead of draw, gradient call and trace append; no block, FFT or file work")

    DIM, MEMBERS, STEPS = 8, 10, 100_000

    def construct(self):
        rng = np.random.default_rng(instance_seed(self.seed))
        center = rng.uniform(-1.0, 1.0, size=self.DIM)
        offsets = rng.uniform(-0.25, 0.25, size=(self.MEMBERS, self.DIM))
        return center, fixedpoint.quadratic_family(center, offsets)

    def run(self, k):
        center, family = self.state
        cfg = fixedpoint.SgdConfig(beta=1.0, nu=0.75, max_iters=self.STEPS, seed=op_seed(self.seed, k),
                                   gradient_family=family, record_every=10)
        return fixedpoint.run_sgd(cfg, np.zeros(self.DIM))

    def finish(self, k, raw):
        final, trace = raw
        center = self.state[0]
        problems = []
        if not np.all(np.isfinite(final)):
            problems.append("final iterate is not finite")
        else:
            # grad f(x) = x - center for the recentred quadratic family
            start = float(np.linalg.norm(center))
            end = float(np.linalg.norm(final - center))
            if end > SGD_GRAD_RATIO * start:
                problems.append(f"gradient norm {end:.3e} not below {SGD_GRAD_RATIO} x {start:.3e}")
        return Outcome(int(trace.footer["iterations_run"]), problems, _trace_digest(final, trace))


class _BlockWorkload(Workload):
    """Fixed-length run_block operations.

    Operations rotate over the canonical strategies and, slower, over
    ``INSTANCES`` problem instances derived from the seed, so that one run
    averages over instances as well as over index and relaxation draws.
    """

    INSTANCES = 4
    variants = len(LABELS) * INSTANCES
    batch_size = 1
    iters = 1

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.instance_seeds = self.pick_instances()

    def pick_instances(self):
        return [instance_seed(self.seed, j) for j in range(self.INSTANCES)]

    def construct_one(self, seed):
        raise NotImplementedError

    def construct(self):
        return [self.construct_one(s) for s in self.instance_seeds]

    def pick(self, k):
        """(problem, family, strategy label) of operation k."""
        problem, family = self.state[(k // len(LABELS)) % self.INSTANCES]
        return problem, family, LABELS[k % len(LABELS)]

    def prepare(self, state):
        self.state = state
        self.truths = [np.ravel(problem.ground_truth) for problem, _ in state]
        self.start_violations = [self.violation(problem, np.zeros(truth.size))
                                 for (problem, _), truth in zip(state, self.truths)]

    def run(self, k):
        problem, family, label = self.pick(k)
        truth = self.truths[(k // len(LABELS)) % self.INSTANCES]
        cfg = block.BlockConfig(batch_size=self.batch_size, delta=0.5 / self.batch_size,
                                relaxation=experiments.canonical_strategies()[label],
                                max_iters=self.iters, seed=op_seed(self.seed, k),
                                atol=0.0, record_every=1)
        return block.run_block(family, cfg, np.zeros(truth.size), reference_solution=truth)

    def violation(self, problem, x) -> float:
        raise NotImplementedError

    def extra_problems(self, problem, final) -> list:
        return []

    def finish(self, k, raw):
        final, trace = raw.final, raw.trace
        problem = self.pick(k)[0]
        i = (k // len(LABELS)) % self.INSTANCES
        truth, start = self.truths[i], self.start_violations[i]
        if not np.all(np.isfinite(final)):
            problems = ["final iterate is not finite"]
        else:
            problems = _fejer_problems(trace, np.zeros(truth.size), final, truth)
            end = self.violation(problem, final)
            if not end < start:
                problems.append(f"violation {end:.3e} not below start {start:.3e}")
            problems += self.extra_problems(problem, final)
        return Outcome(int(trace.footer["iterations_run"]), problems, _trace_digest(final, trace))


class SignalWorkload(_BlockWorkload):
    name = "signal"
    why = ("desk signal (n=256, p=10, 2560 slabs), run_block M=16, 400 fixed iterations: many "
           "cheap operators and index draws, where batched evaluation and bulk draws show")
    batch_size = 16
    iters = 400

    def construct_one(self, seed):
        problem = experiments.desk_signal_problem(seed=seed)
        return problem, problem.build_family()

    def violation(self, problem, x):
        return problem.max_violation(x)


class ImageWorkload(_BlockWorkload):
    name = "image"
    why = ("desk image (n=64, 6 members, fourier_weight=2), run_block M=2, 200 fixed iterations: "
           "few costly FFT operators; bypass for draw or slab changes, where no change is predicted")
    batch_size = 2
    iters = 200

    def pick_instances(self):
        # the Fejer check needs a feasible truth: take the first derived
        # instances whose four residual balls all contain it
        candidates = (instance_seed(self.seed, j) for j in range(1000))
        seeds = (s for s in candidates
                 if all(experiments.desk_image_problem(seed=s).ball_contains_truth))
        return [next(seeds) for _ in range(self.INSTANCES)]

    def construct_one(self, seed):
        problem = experiments.desk_image_problem(seed=seed)
        return problem, problem.build_family(fourier_weight=experiments.DESK_IMAGE_FOURIER_WEIGHT)

    def violation(self, problem, x):
        """Worst of the ball values relative to xi and the spectrum deviation."""
        report = problem.feasibility_report(x)
        return max(max(report["ball_values"]) / problem.xi, report["fourier_relative_deviation"])

    def extra_problems(self, problem, final):
        if not all(problem.ball_contains_truth):
            return ["instance balls do not all contain the truth"]
        box = problem.feasibility_report(problem.finalize(final))["box_violation"]
        return [] if box == 0.0 else [f"box violated by {box:.3e} after finalize"]


class CliSignalWorkload(Workload):
    name = "cli_signal"
    why = ("in-process `stochfeas signal --scale desk --iters 1500 --repeats 2`, STOCHFEAS_THREADS=1: "
           "the only path through cli dispatch, reference estimation, aggregation and CSV output")
    digest_ops = 1
    warmup = False
    ITERS, REPEATS = 1500, 2
    # One worker thread.  With STOCHFEAS_THREADS=2 (nproc) the GIL-bound
    # thread pool made per-invocation rates and recording-pass times vary by
    # 12-25% between runs (quartile spread over 5 seeds) against 2-7% with
    # one worker, and the calibration loop cannot correct thread contention.
    workers = 1
    # In the machine's fast mode the calibration loop speeds up about 1.9x but
    # an invocation only about 1.3x, so scaling over-corrects: over 5 seeds
    # the quartile spread of iters_per_s was 12% with every invocation scaled
    # and 4% with fast-mode invocations left out.  (sgd, whose speed-up is
    # closer, loses more from the fewer samples: 7.5% against 12%.)
    drop_fast_mode = True

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        os.environ["STOCHFEAS_THREADS"] = str(self.workers)
        # An invocation takes seconds, longer than the machine keeps one
        # speed, so untraced invocations also calibrate after each run_block
        # call; the harness subtracts that time.  Traced ones do not, so
        # that spans hold no calibration.
        self.calibrate_inside = True
        self.calls, self.slowdowns, self.calibration_s = [], [], 0.0
        self._original = experiments.run_block
        experiments.run_block = self._counted_run_block

    def _counted_run_block(self, family, cfg, *args, **kwargs):
        """Counts iterations at the run_block boundary; atol=0 marks a recording pass."""
        start = time.perf_counter()
        res = self._original(family, cfg, *args, **kwargs)
        seconds = time.perf_counter() - start
        slowdown = 1.0
        if self.calibrate_inside:
            slowdown = slowdown_after(seconds)
            self.slowdowns.append(slowdown)
            self.calibration_s += time.perf_counter() - start - seconds
        self.calls.append((int(res.trace.footer["iterations_run"]), cfg.atol == 0.0,
                           seconds / slowdown))
        return res

    def argv(self, k, out_dir):
        return ["signal", "--scale", "desk", "--iters", str(self.ITERS),
                "--repeats", str(self.REPEATS), "--seed", str(op_seed(self.seed, k)),
                "--output-dir", str(out_dir)]

    def construct(self):
        cfg = cli.parse_and_validate(self.argv(0, self.scratch / "unused"))
        problem = experiments.desk_signal_problem(seed=cfg.seed)
        return problem, problem.build_family()

    def run(self, k):
        out_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        self.calls, self.slowdowns, self.calibration_s = [], [], 0.0
        return cli.main(self.argv(k, out_dir)), out_dir

    def finish(self, k, raw):
        code, out_dir = raw
        try:
            return self._check(code, out_dir)
        finally:
            shutil.rmtree(out_dir)

    def _check(self, code, out_dir):
        calls = self.calls
        iterations = sum(c[0] for c in calls)
        samples = [c[2] for c in calls if c[1]]
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        try:
            with open(out_dir / "summary.json") as fh:
                runs = json.load(fh)["runs"]
        except (OSError, ValueError, KeyError) as exc:
            return Outcome(iterations, problems + [f"summary.json: {exc}"], b"", samples,
                           self.slowdowns, self.calibration_s)
        pairs = {(r["strategy"], r["seed"]) for r in runs}
        if len(runs) != len(LABELS) * self.REPEATS or len(pairs) != len(runs) \
                or {r["strategy"] for r in runs} != set(LABELS):
            problems.append(f"summary.json lists {len(runs)} runs, not one per (strategy, repeat)")
        if any(r["invariant_violations"] != 0 for r in runs):
            problems.append("invariant violations reported")
        for r in runs:
            path = out_dir / f"signal_{r['strategy']}_{r['seed']}.csv"
            try:
                trace = read_trace_csv(path)
            except (OSError, ValueError) as exc:
                problems.append(f"{path.name}: {exc}")
                continue
            if int(trace.footer.get("iterations_run", -1)) != r["iterations_run"]:
                problems.append(f"{path.name}: footer disagrees with summary.json")
        recorded = sum(c[0] for c in calls if c[1])
        if recorded != sum(r["iterations_run"] for r in runs):
            problems.append(f"run_block boundary counted {recorded} recording iterations, "
                            f"summary.json {sum(r['iterations_run'] for r in runs)}")
        csv_bytes = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
        return Outcome(iterations, problems, _artifact_digest(out_dir), samples,
                       self.slowdowns, self.calibration_s, csv_bytes)

    def close(self):
        experiments.run_block = self._original


def _artifact_digest(out_dir: Path) -> bytes:
    """CLI artefacts without the elapsed_s column and the wall_clock_s field."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        if path.suffix == ".csv":
            for line in path.read_text().splitlines():
                if not line.startswith("#"):
                    cols = line.split(",")
                    line = ",".join(cols[:1] + cols[2:])
                h.update(line.encode() + b"\n")
        elif path.name == "summary.json":
            payload = json.loads(path.read_text())
            for r in payload["runs"]:
                r.pop("wall_clock_s", None)
            h.update(json.dumps(payload, sort_keys=True).encode())
        else:
            h.update(path.read_bytes())
    return h.digest()


WORKLOADS = {w.name: w for w in (SgdWorkload, SignalWorkload, ImageWorkload, CliSignalWorkload)}
