"""Exact-arithmetic tables, nearest-neighbor recurrence fields, 3x3 transition
matrices with their zero-curvature check, and the lattice boundary-value
problem for a pair of rational moment sequences."""

from .errors import (DegeneracyError, DimensionError, DisjointSupportError,
                     HplaxError, IntegrityError, NonPerfectBoundaryError,
                     NotNormalError, PoleError, TruncationError, WindowError)
from .kernel import (LaurentTail, MatPoly, Poly, X, det_exact, moment_pairing,
                     poly_from_series_product, rat, series_from_moments,
                     series_of_ratio, solve_exact)
from .measures import (JFraction, MeasureModel, MomentSystem,
                       jfraction_to_moments, make_angelesco, make_nikishin,
                       measure_moments, moments_to_jfraction,
                       monic_orthogonal_polys)
from .hptable import HPTable
from .nnrr import (CFExtraction, RecurrenceField, cf_extract, check_dminusc,
                   consistency_residuals, field_from_table, m_minus_series,
                   recurrence_residuals)
from .lax3 import (NormalizationGrid, TransitionPair, WaveMatrix,
                   build_transition, det_transition, normalization_grid,
                   path_transport, propagate, wave_matrix, waves_agree,
                   zcc_residual, zcc_stencil)
from .classical import (QdField, cf_tail_eval, hankel_shifted, qd_vw,
                        three_term_check, transition_2x2, zcc2_residual)
from .bvp import (BoundaryData, CrossValidation, SweepReport,
                  boundary_from_field, boundary_from_table, cd_by_summation,
                  cross_validate, field_from_moments, sweep_solve)

__version__ = "0.1.0"
