"""Steady 2D Euler flows on an annulus and their co-adjoint orbit labels:
elliptic solves with circulation data, level-set distribution functions,
and the smoothed Newton inversion recovering a vorticity profile from an
orbit label."""

from .grid import (AnnulusGrid, Field2D, circulation, divergence, gradient,
                   holder_norm, integrate, laplacian, make_annulus,
                   poisson_bracket)
from .curves import Curve1D, Monotone1D, read_curve_csv, write_curve_csv
from .elliptic import NdReport, check_nd1, solve_poisson
from .steady import (Profile1D, SteadyState, d2s, ds, energy, solve_steady,
                     state_from_json, state_to_json)
from .orbit import (LevelChart, check_nd2, dist_fn, dq, d2q, j_functional,
                    level_chart, pushforward, reconstruct_alpha,
                    second_variation, tangency_defect)
from .tame import (extend, interp_check, invert_monotone, smooth,
                   verify_smoothing)
from .moser import (MoserConfig, MoserTrace, dt, k_apply, moser_solve,
                    right_inverse, t_map, uniqueness_probe, vb, vm)

__version__ = "0.1.0"
