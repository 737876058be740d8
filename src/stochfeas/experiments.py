"""The experiment driver: seeded repeats of one block run, each measured
against its own limit.

``run_experiment`` runs a strategy over ``repeats`` seeds derived from the
config's seed and a label.  Each seeded run is made twice with identical
draws.  The reference pass, ``estimate_reference_solution``, runs the same
config with 10x the budget and no records, and stops once the residual
stays below its tolerance; its final point is the run's own limit x_inf.
The recording pass then runs the full budget with ``atol = 0`` and logs
the normalized error against x_inf.  Since the step does not depend on
``atol``, the recording pass is an exact prefix of the reference pass.  A
seed whose reference pass does not converge keeps its residual trace
without a dB column.  Both passes call ``run_block`` through this module's
namespace, so that replacing ``experiments.run_block`` reaches both: the
``cli_signal`` benchmark workload counts its iterations that way.

The problems live in their own modules: the signal problem in
``stochfeas.signal``, the image problem in ``stochfeas.image``.  This
module re-imports the problem names that ``perfbench`` reaches through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import relaxation as rx
from .block import BlockConfig, run_block
from .diagnostics import AveragedTrace, aggregate_runs
from .exceptions import ReferenceSolutionError
from .geometry import as_point
from .image import DESK_IMAGE_FOURIER_WEIGHT, ImageProblem, desk_image_problem  # noqa: F401
from .operators import _IndexedFamily
from .rngstreams import derive_seed
from .signal import SignalProblem, desk_signal_problem  # noqa: F401


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


def estimate_reference_solution(family: _IndexedFamily, cfg: BlockConfig, x0) -> np.ndarray:
    """Estimate the run's own limit x_inf by an extended run of ``cfg``.

    The extended run keeps the seed, hence the draws, of ``cfg`` with 10x
    its budget, and may stop earlier once the residual stays below
    max(1e-12, cfg.atol).  If the threshold is never reached, a
    ReferenceSolutionError is raised and callers fall back to residual
    traces.

    The returned point is run-specific: it is the limit of this seed's own
    trajectory, which is what normalized-error plots are measured against.
    The extended run collects no records: nothing reads them.
    """
    tol = max(1e-12, cfg.atol)
    res = run_block(family, replace(cfg, max_iters=10 * cfg.max_iters, atol=tol,
                                    collect_records=False), x0)
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
    ``cfg.seed``, ``label`` and r.  Each seeded run is performed twice with
    identical draws: :func:`estimate_reference_solution` estimates the run's
    own limit, then a recording pass over the full budget logs the
    normalized error against it.  The step does not depend on ``atol``, so
    the recording pass is an exact prefix of the extended one.  When the
    extended pass fails to converge, the dB column is dropped for that seed
    and the residual trace stands in.
    """
    x0 = np.zeros(problem.ground_truth.size)
    seeds, references, results = [], [], []
    for rep in range(repeats):
        run_cfg = replace(cfg, seed=derive_seed(cfg.seed, label, rep))
        try:
            reference = estimate_reference_solution(family, run_cfg, x0)
        except ReferenceSolutionError:
            reference = None
        seeds.append(run_cfg.seed)
        references.append(reference)
        results.append(run_block(family, replace(run_cfg, atol=0.0), x0,
                                 reference_solution=reference))
    averaged = aggregate_runs([res.trace for res in results])
    return ExperimentResult(label, seeds, references, results, averaged)

