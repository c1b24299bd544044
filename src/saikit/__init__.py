"""Sparse approximate inverse preconditioning with low-rank splitting.

Irregular sparse matrices, those with a few columns far denser than the
rest, defeat per-column approximate-inverse construction. This package
splits such a matrix into a regular sparse part plus a rank-s correction,
preconditions the regular part once, solves the s + 1 resulting systems
with one block right-preconditioned BiCGStab, and recovers the original
solution through the low-rank update formula with a controllable residual
budget.
"""

from .driver import (AssemblyError, DriverConfig, SingularUpdateError, SolveReport,
                     assemble_solution, smw_inverse_apply, solve_irregular,
                     solve_standard, subsystem_tolerances)
from .krylov import BlockOutcome, SolveOutcome, bicgstab
from .lstsq import DegeneratePatternError, LsWorkspace, WorkspaceGuardError, ls_init
# The build functions spai and psai are not re-exported: saikit.spai and
# saikit.psai name their modules.
from .psai import PsaiColumnResult, PsaiConfig, PsaiReport, bpsai_column, psai_column, psai_tol
from .spai import (ColumnResult, SpaiConfig, SpaiReport, spai_candidates, spai_column,
                   spai_profitability)
from .sparse_core import (ColumnStats, CscMatrix, MatrixMarketError, SparseVector,
                          StructurallySingularError, UnsupportedFieldError,
                          column_stats, matvec, matvec_t, norm1, norm_inf,
                          permute_rows, read_matrix_market, transpose,
                          write_matrix_market, zero_free_diagonal_permutation)
from .splitting import (MatrixClassReport, SplitSystem, ZeroDiagonalError, classify,
                        condition_estimates, dense_lu_min_pivot, dominance_margins,
                        generate_test_matrix, reconstruct, split)

__version__ = "0.1.0"
