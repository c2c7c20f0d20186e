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
    mapping, returned to the system when freed.  Since Id + K holds no
    grid-sized stack, the pin saves little: on the invert-nd benchmark
    (64x128, 2-core machine, 2 BLAS threads, seed 3, 5 s runs) the peak
    was 95.0-95.3 MB with it and 95.7-96.3 MB without, and on
    solve-dist-sweep it moved by at most 0.2 MB.  Nothing is done on
    other C libraries."""
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
from .elliptic import NdReport, check_nd1, solve_poisson, solve_ve
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
