"""Linear-programming layer.

Thin, typed wrappers around the LP solver (HiGHS) used by the Shannon
prover and the cone decision procedures, plus Farkas-style certificate extraction
helpers and the batched entry point :func:`solve_feasibility_blocks` (the
block-diagonal primitive under the :mod:`repro.service` batch engine).

The :mod:`repro.lp.rowgen` submodule provides lazy row generation for the
Shannon cone: a vectorized separation oracle over the implicit elemental
rows plus cutting-plane loops.  Its :func:`~repro.lp.rowgen.choose_path`
sends each ``Γn`` LP down the dense path or row generation by the row
count of the cone description.

The :mod:`repro.lp.backends` submodule drives the one solver, HiGHS,
incrementally (native ``highspy`` when installed, scipy's bundled bindings
otherwise), keeping one model per cutting-plane loop.
"""

from repro.lp.backends import (
    HighsBackend,
    highs_available,
    resolve_backend,
)
from repro.lp.solver import (
    BlockFeasibilityResult,
    FeasibilityBlock,
    LPResult,
    LPStatus,
    check_feasibility,
    minimize,
    record_solver_path,
    reset_solver_path_counts,
    solve_feasibility_blocks,
    solver_path_counts,
)
from repro.lp.certificates import (
    nonnegative_combination,
    nonnegative_combination_over_support,
)
from repro.lp.rowgen import (
    AUTO_ROW_THRESHOLD,
    RowGenOptions,
    RowGenReport,
    ShannonRowOracle,
    choose_path,
    shannon_row_oracle,
)

__all__ = [
    "LPStatus",
    "LPResult",
    "minimize",
    "check_feasibility",
    "FeasibilityBlock",
    "BlockFeasibilityResult",
    "solve_feasibility_blocks",
    "nonnegative_combination",
    "nonnegative_combination_over_support",
    "AUTO_ROW_THRESHOLD",
    "RowGenOptions",
    "RowGenReport",
    "ShannonRowOracle",
    "shannon_row_oracle",
    "choose_path",
    "record_solver_path",
    "solver_path_counts",
    "reset_solver_path_counts",
    "HighsBackend",
    "highs_available",
    "resolve_backend",
]
