"""Randomly relaxed projection methods for stochastic fixed point problems.

Every method runs one loop skeleton, ``x_{n+1} = step(n, x_n)``, which owns
the divergence guard, the stop rule, the trace and its optional dB column;
each method supplies only its step.  The steps are a relaxed fixed point
iteration with stochastic errors, a stochastic gradient method, and an
extrapolated randomly activated block-iterative solver for common fixed
point and feasibility problems, whose random relaxation may exceed 2 when
its damping E[lam (2 - lam)] stays positive.  The signal and image
restoration experiments are built on the block solver.
"""

import types

from .block import (
    MAX_RESIDUAL_CONCENTRATED,
    UNIFORM_OVER_BATCH,
    BlockConfig,
    BlockIterationRecord,
    BlockResult,
    compute_weights,
    run_block,
)
from .diagnostics import aggregate_runs
from .experiments import canonical_strategies, estimate_reference_solution, run_experiment
from .exceptions import (
    ConfigurationError,
    DegenerateConstraintError,
    InvariantViolationError,
    NumericError,
    ReferenceSolutionError,
    UsageError,
)
from .fixedpoint import (
    DecayingNoise,
    GradientFamily,
    KmConfig,
    SgdConfig,
    quadratic_family,
    run_km,
    run_sgd,
)
from .geometry import fejer_decrement
from .image import ImageProblem, desk_image_problem, generate_image_problem, symmetrize_fourier_mask
from .operators import LinearFamily, OperatorFamily, project_box, sample_indices
from .relaxation import (
    Constant,
    RelaxationMoments,
    RelaxationStrategy,
    TwoPoint,
    UniformInterval,
    strategy_from_config,
    strategy_label,
)
from .signal import SignalProblem, desk_signal_problem, generate_signal_problem
from .trace import ConvergenceTrace, read_trace_csv

# the submodules are attributes too, and a star import would bind ``signal``
# and ``trace`` over the standard library's modules of those names
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], types.ModuleType)]
__version__ = "0.1.0"
