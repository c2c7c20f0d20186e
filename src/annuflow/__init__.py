"""Steady 2D Euler flows on an annulus and their co-adjoint orbit labels:
elliptic solves with circulation data, level-set distribution functions,
and the smoothed Newton inversion recovering a vorticity profile from an
orbit label."""

import ctypes


def _pin_mmap_threshold():
    """Fix glibc's mmap threshold at 1 MiB.  By default glibc raises the
    threshold each time a large mapped block is freed (up to 32 MiB), so
    later multi-megabyte arrays are carved from the heap, whose freed
    blocks stay resident, and the peak resident size depends on the order
    of allocations.  With a fixed threshold each such array is its own
    mapping, returned to the system when freed.  The pin saves little but
    steadily: on the invert-nd benchmark (64x128, 2-core machine, 2 BLAS
    threads, 7 alternating pairs of 8 s runs) the peak was 92.8-93.4 MB
    with it and 93.4-93.8 MB without, higher without in every pair; on
    solve-dist-sweep the two differed by at most 0.3 MB either way.
    Nothing is done on other C libraries."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):        # no handle on the running process
        return
    if hasattr(libc, "gnu_get_libc_version"):   # -3 is glibc's constant
        libc.mallopt(-3, 1 << 20)               # M_MMAP_THRESHOLD


_pin_mmap_threshold()

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
