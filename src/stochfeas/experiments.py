"""The experiment driver: seeded repeats of one block run, each measured
against its own limit.

``run_experiment`` runs a strategy over ``repeats`` seeds derived from the
config's seed and a label.  Each seeded run is made in two passes with
identical draws.  The reference pass, ``estimate_reference_solution``, runs
the same config with 10x the budget, no records and two trace rows, and
stops once the residual stays below its tolerance; its final point is the
run's own limit x_inf.  The recording pass then runs the full budget with
``atol = 0`` and logs the normalized error against x_inf, and the dB of its
final iterate in its trace footer.  The step does not depend on ``atol``,
so the recording pass is a prefix of the reference pass, extended where
the reference pass stopped early.  A seed whose reference pass does not
converge keeps its residual trace without a dB column.

The reference pass keeps a tape (``block.RunTape``) of its first
``budget`` iterations, and the recording pass plays it back and then goes
on with the reference pass's own driver, so the prefix is computed once.
The tape holds up to ``budget`` iterates, so it is kept only when they fit
``_TAPE_BYTES`` and the config collects no records, which the recording
pass must make itself; otherwise the recording pass reruns from x0, with
the same bits.  Both passes call ``run_block`` through this module's
namespace, so that replacing ``experiments.run_block`` reaches both: the
``cli_signal`` benchmark workload counts their iterations that way, from
their footers, which a tape leaves as they were.

The problems live in their own modules: the signal problem in
``stochfeas.signal``, the image problem in ``stochfeas.image``.  This
module re-imports the problem names that ``perfbench`` reaches through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import relaxation as rx
from .block import BlockConfig, RunTape, run_block
from .diagnostics import AveragedTrace, aggregate_runs
from .exceptions import ReferenceSolutionError
from .geometry import as_point
from .image import DESK_IMAGE_FOURIER_WEIGHT, ImageProblem, desk_image_problem  # noqa: F401
from .operators import _IndexedFamily
from .rngstreams import derive_seed
from .signal import SignalProblem, desk_signal_problem  # noqa: F401

# The largest tape a reference pass keeps: budget x dim x 8 bytes of
# iterates.  It holds every desk signal budget in use (6,000 iterations of
# 256 floats are 12.3 MB) and leaves out the desk image CLI default (20,000
# iterations of 4,096 floats, 655 MB), whose recording pass reruns instead.
_TAPE_BYTES = 16 * 2 ** 20


def canonical_strategies() -> dict:
    """The four relaxation strategies compared in the experiments."""
    return {
        "const1": rx.Constant(1.0),
        "const1.9": rx.Constant(1.9),
        "twopoint": rx.TwoPoint(2.3, 0.5, 1.5),
        "uniform": rx.UniformInterval(1.5, 2.3),
    }


@dataclass
class ExperimentResult:
    label: str
    seeds: list
    references: list                   # per-seed x_inf or None
    results: list                      # per-seed BlockResult
    averaged: AveragedTrace


def estimate_reference_solution(family: _IndexedFamily, cfg: BlockConfig, x0, *,
                                tape: Optional[RunTape] = None) -> np.ndarray:
    """Estimate the run's own limit x_inf by an extended run of ``cfg``.

    The extended run keeps the seed, hence the draws, of ``cfg`` with 10x
    its budget, and may stop earlier once the residual stays below
    max(1e-12, cfg.atol).  If the threshold is never reached, a
    ReferenceSolutionError is raised and callers fall back to residual
    traces.

    The returned point is run-specific: it is the limit of this seed's own
    trajectory, which is what normalized-error plots are measured against.
    The extended run collects no records and keeps only the trace rows read
    here: row 0 and the stop (or last) row, which every ``record_every``
    keeps.  The step does not depend on ``record_every``, since the run
    wants the residual of every step for its stop rule.

    ``tape``, an empty ``block.RunTape`` that ``run_experiment`` passes,
    is filled by the extended run (see ``run_block``), for the recording
    pass to play back, also when this raises ReferenceSolutionError.
    """
    tol = max(1e-12, cfg.atol)
    budget = 10 * cfg.max_iters
    res = run_block(family, replace(cfg, max_iters=budget, atol=tol, record_every=budget,
                                    collect_records=False), x0, tape=tape)
    if res.trace.final_residual() >= tol:
        raise ReferenceSolutionError(
            f"extended run kept residual {res.trace.final_residual():.3e} "
            f">= {tol:.1e}; no reference solution"
        )
    return as_point(res.final, "reference solution")


def run_experiment(problem, family: _IndexedFamily, cfg: BlockConfig, label: str,
                   repeats: int = 1) -> ExperimentResult:
    """Run ``cfg`` over ``repeats`` seeds from x0 = 0.

    ``label`` names the runs: repeat r runs with the seed derived from
    ``cfg.seed``, ``label`` and r.  Each seeded run is made in two passes
    with identical draws: :func:`estimate_reference_solution` estimates the
    run's own limit, then a recording pass over the full budget logs the
    normalized error against it.  When the extended pass fails to converge,
    the dB column is dropped for that seed and the residual trace stands in.

    The recording pass plays back the reference pass's tape of its first
    ``cfg.max_iters`` iterations and goes on from where that pass stopped,
    when the tape fits ``_TAPE_BYTES`` and ``cfg`` collects no records;
    otherwise it reruns from x0.  Either way its results are the same bits,
    but for ``elapsed_s``.
    """
    x0 = np.zeros(problem.ground_truth.size)
    taped = not cfg.collect_records and cfg.max_iters * x0.size * 8 <= _TAPE_BYTES
    seeds, references, results = [], [], []
    for rep in range(repeats):
        run_cfg = replace(cfg, seed=derive_seed(cfg.seed, label, rep))
        tape = RunTape(cfg.max_iters) if taped else None
        try:
            reference = estimate_reference_solution(family, run_cfg, x0, tape=tape)
        except ReferenceSolutionError:
            reference = None
        seeds.append(run_cfg.seed)
        references.append(reference)
        results.append(run_block(family, replace(run_cfg, atol=0.0), x0,
                                 reference_solution=reference, tape=tape))
    averaged = aggregate_runs([res.trace for res in results])
    return ExperimentResult(label, seeds, references, results, averaged)
