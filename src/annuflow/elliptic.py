"""Linear elliptic solves on the annulus with circulation boundary data.

One bordered family covers every linear problem: E(c)phi = Delta(phi) +
c*phi = k with phi = 0 on the outer circle, phi constant (unknown) on the
inner circle, and a prescribed circulation.  The unknown inner trace is an
explicit scalar unknown and the circulation functional an explicit
constraint row, so the system is square.  Its c = 0 member is the Poisson
problem Delta(psi) = omega with circulation gamma; profile derivatives and
the nondegeneracy checks solve with zero circulation.

When c depends on r alone, ``FourierSystem`` solves the system with no
matrix and no factor (Hockney 1965; Buzbee, Golub and Nielson 1970): a
real FFT in theta splits it into one tridiagonal system in r per mode.
The tie and circulation rows touch mode 0 only, which ``RadialSystem``
solves, with one extra homogeneous solve for the inner constant; the
outer Dirichlet rows decouple the modes k >= 1 into one stacked solve.
It takes interior values on the grid and a circulation and returns grid
values, whose row 0 holds the inner constant in every column.
``solve_poisson`` is its c = 0 solve, for a vorticity that may vary in
theta.

When c and the right-hand side do not vary in theta, neither does phi,
and its modes k >= 1 are zero.  ``solve_radial`` takes such data along
r, a stack of columns at once, by ``RadialSystem`` alone.  Every other
solve of the package is one: the steady states are radially symmetric
(``steady``), so Newton steps, profile derivatives and Id + K solve
Delta - F'(psi) along r.  That loses nothing the package can chart:
a steady flow in a circular annulus with no stagnation point is circular
(Hamel and Nadirashvili, J. Eur. Math. Soc. 2023), and
``orbit.level_chart`` refuses a field with a critical point.

Both solves check the interior residual of each column against
``SOLVE_RTOL`` times the norm of its data, its interior values and its
circulation (the tie and circulation rows hold by construction), and a
miss raises no-convergence.  The circulation counts with the weight of
the largest stencil diagonal over the circulation row's 2-norm: that
row's scale is arbitrary, and without the weight the rounding of a
harmonic psi misses the check at 128x256 when Ri = 0.2, Ro = 1.  A
column along r is checked as the field it spreads to over theta.
``radial_psi`` is the test of a radially symmetric state that its
callers share; it reads a theta-variation of rounding size
(``RADIAL_RTOL``) as none, by the predicate ``theta_constant`` that
``orbit.level_chart`` shares.

When c does not vary in theta, an orthonormal real DFT in theta splits
the bordered matrix into blocks whose singular values together are its
own: the Nr x Nr tridiagonal block of each mode k >= 1 (the cos and sin
parts share it), and for mode 0 that block bordered by the inner
constant's column (-sqrt(Ns) in the inner tie row) and the circulation
row (sqrt(Ns) times one theta column of its weights).  ``check_nd1``
takes the smallest singular value from their dense SVDs, so a singular
block gives sigma at rounding level, not an error, and refuses a state
that varies in theta; ``principal_eigenvalue`` solves the blocks of
modes 0 and 1, and ``_mode_blocks`` builds only the modes its caller
reads.  Nothing is assembled, factorized or cached at module level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# not used here: perfbench/tracer.py hooks ``elliptic.spla`` by name to
# trace sparse LU calls, and its traced runs fail without it
import scipy.sparse.linalg as spla  # noqa: F401
from scipy.linalg import eigvals, solve_banded

from .errors import NoConvergenceError, SingularSystemError
from .grid import AnnulusGrid, Field2D, circulation_row, laplacian

ND_THRESHOLD = 1e-6     # least sigma_min / scale (NdReport)
SOLVE_RTOL = 1e-10      # relative interior residual of a solve's column
RADIAL_RTOL = 1e-12     # radial_psi: theta-variation of psi taken as rounding


def _stencil(grid: AnnulusGrid):
    """Interior coefficients of the 5-point polar Laplacian (d_rr, d_r, d_tt)."""
    r = grid.r[1:-1, None]
    return 1.0 / grid.hr**2, 1.0 / (2 * grid.hr * r), 1.0 / (grid.htheta**2 * r**2)


def _mode_bands(grid: AnnulusGrid, shift, modes):
    """Tridiagonal blocks in r of Delta + shift(r), one for each of the
    given theta modes, in ``solve_banded``'s (1, 1) layout, of shape
    (3, len(modes), Nr); the tie rows of both circles are identity rows."""
    c_rr, c_r, c_tt = _stencil(grid)
    modes = np.asarray(modes)[:, None]
    bands = np.zeros((3, modes.size, grid.Nr))
    bands[1] = 1.0
    bands[0, :, 2:] = c_rr + c_r.T
    bands[1, :, 1:-1] = (-2 * c_rr + shift
                         - 4 * c_tt.T * np.sin(modes * grid.htheta / 2) ** 2)
    bands[2, :, :-2] = c_rr - c_r.T
    return bands


class RadialSystem:
    """Mode 0 of the bordered system of Delta + shift(r), shift a scalar
    or its values on the interior radii: the system of data that do not
    vary in theta.  It holds its tridiagonal band in r, its response to
    a unit inner constant and the circulation's weight in the residual
    check, and no reference to its grid.  Raises singular-system when the
    circulation row cannot fix the inner constant."""

    def __init__(self, grid: AnnulusGrid, shift):
        Nr, Ns = grid.Nr, grid.Ns
        self.band = _mode_bands(grid, shift, [0])[:, 0]
        # mode 0 of a unit inner constant: its tie rows sum to Ns in row 0
        self.unit_inner = solve_banded((1, 1), self.band,
                                       np.r_[float(Ns), np.zeros(Nr - 1)])
        # weights of one theta column, applied to mode 0 (the column sums)
        self.circulation = circulation_row(grid)[:, 0]
        self.unit_circulation = self.circulation @ self.unit_inner
        if self.unit_circulation == 0.0:
            raise SingularSystemError("the circulation row leaves the inner constant free")
        # the largest stencil diagonal over the circulation row's 2-norm,
        # which is sqrt(Ns) times that of one theta column
        c_rr, _, c_tt = _stencil(grid)
        self.weight = 2 * (c_rr + c_tt.max()) / (np.sqrt(Ns) * np.linalg.norm(self.circulation))

    def solve(self, k, circulation):
        """Mode 0 of phi, for mode 0 of the interior values, real and of
        shape (Nr,) or (Nr, m), and a circulation, a scalar or one per
        column: one tridiagonal solve of the m columns, plus the multiple
        of ``unit_inner`` that gives the circulation.  Both are in the
        scale of ``rfft``'s mode 0, the theta sums; a zero circulation
        holds in any scale.  The boundary rows of k are not read."""
        rhs = np.array(k, float)
        rhs[[0, -1]] = 0.0                      # the tie rows of both circles
        phi = solve_banded((1, 1), self.band, rhs, overwrite_b=True)
        inner = (circulation - self.circulation @ phi) / self.unit_circulation
        phi += np.multiply.outer(self.unit_inner, inner)
        return phi

    def check(self, what, residual, norm, circulation):
        """Raise no-convergence when the interior residual of a solve on
        the grid, a 2-norm for each column, misses ``SOLVE_RTOL`` times the
        norm of its data: its interior values, of 2-norm ``norm``, and its
        circulation, with ``weight`` (module docstring)."""
        residual, norm = np.broadcast_arrays(np.atleast_1d(residual),
                                             np.hypot(norm, self.weight * circulation))
        miss = np.flatnonzero(~(residual <= SOLVE_RTOL * norm))  # a NaN misses too
        if miss.size:
            j = miss[0]
            raise NoConvergenceError(
                f"{what} left a residual of {residual[j]:.2e}, above "
                f"{SOLVE_RTOL:g} times the norm {norm[j]:.2e} of its data")


class FourierSystem:
    """Direct solver of the bordered system of Delta + shift(r), shift a
    scalar or its values on the interior radii: its ``RadialSystem`` for
    mode 0 and the bands of the modes k >= 1.  It holds no reference to
    its grid.  Raises singular-system as ``RadialSystem`` does."""

    def __init__(self, grid: AnnulusGrid, shift):
        Nr, Ns = grid.Nr, grid.Ns
        self.mode0 = RadialSystem(grid, shift)
        # banded form of the unknowns (k - 1)*Nr + j; identity tie rows decouple the modes
        self.bands = _mode_bands(grid, shift, np.arange(1, Ns // 2 + 1)).reshape(3, -1)
        self.shape = (Nr, Ns)

    def solve(self, values, circulation):
        """phi for interior values of shape (Nr, Ns) and a circulation; the
        boundary rows of values are not read."""
        Nr, Ns = self.shape
        # Fortran order lays the modes k >= 1 out as the unknowns (k - 1)*Nr + j
        modes = np.empty((Nr, Ns // 2 + 1), complex, order="F")
        np.fft.rfft(values, axis=1, out=modes)
        modes[:, 0] = self.mode0.solve(modes[:, 0].real, circulation)
        higher = modes[:, 1:]
        higher[[0, -1]] = 0.0                   # the tie rows of both circles
        modes[:, 1:] = solve_banded((1, 1), self.bands, higher.ravel(order="F"),
                                    overwrite_b=True).reshape(higher.shape, order="F")
        return np.fft.irfft(modes, n=Ns, axis=1)


def solve_poisson(omega: Field2D, gamma: float) -> Field2D:
    """Stream function of a vorticity field with prescribed circulation:
    the c = 0 Fourier solve, whose tie rows put its inner value in every
    column of row 0.  Raises no-convergence when its residual, taken with
    ``grid.laplacian``, misses the check (module docstring)."""
    grid = omega.grid
    system = FourierSystem(grid, 0.0)
    psi = grid.field(system.solve(omega.values, gamma))
    interior = omega.values[1:-1]
    system.mode0.check("the Poisson solve",
                       np.linalg.norm(laplacian(psi).values[1:-1] - interior),
                       np.linalg.norm(interior), gamma)
    return psi


def _theta_variation(values):
    return np.abs(values - values[:, :1]).max()


def theta_constant(values, scale):
    """Whether grid values vary in theta by rounding alone: by at most
    ``RADIAL_RTOL`` times ``scale``."""
    return bool(_theta_variation(values) <= RADIAL_RTOL * scale)


def radial_psi(psi: Field2D):
    """psi along r, its first theta column, for a stream function whose
    theta-variation is rounding (``theta_constant`` with max|psi| as the
    scale).  The states of ``steady`` and its start are constant in theta
    bit for bit, but a caller's own psi0 from ``solve_poisson`` carries a
    few ulp of variation when Ns has a factor 5 or 7, whose FFT steps do
    not cancel a constant row exactly, and so do older state files.  Raises
    ValueError for a larger variation: the mode-0 paths hold only for a
    radially symmetric state."""
    values = psi.values
    if not theta_constant(values, np.abs(values).max()):
        raise ValueError(f"psi varies in theta by {_theta_variation(values):.2e}: "
                         "not a radially symmetric state")
    return values[:, 0]


def solve_radial(grid: AnnulusGrid, c, k, circulation):
    """Solve (Delta + c)phi = k with the given circulation for c, k and
    phi that do not vary in theta, given along r: c of shape (Nr,) and k
    of shape (Nr,) or (Nr, m), the m columns at once, the circulation a
    scalar or one per column, by ``RadialSystem.solve`` (module
    docstring).  Raises no-convergence when the mode-0 system is singular
    or a column misses its residual check."""
    try:
        system = RadialSystem(grid, c[1:-1])
    except (SingularSystemError, np.linalg.LinAlgError) as exc:
        raise NoConvergenceError(f"no mode-0 solve: {exc}") from exc
    # a theta-constant field's circulation is Ns times its column's
    phi = system.solve(k, circulation / grid.Ns)
    band = system.band
    res = (band[0, 2:] * phi[2:].T + band[1, 1:-1] * phi[1:-1].T
           + band[2, :-2] * phi[:-2].T - k[1:-1].T)
    spread = np.sqrt(grid.Ns)       # a theta-constant field's 2-norm over its column's
    system.check("the mode-0 solve", spread * np.linalg.norm(res, axis=-1),
                 spread * np.linalg.norm(k[1:-1], axis=0), circulation)
    return phi


def _mode_blocks(grid: AnnulusGrid, shift, n_modes):
    """The theta-mode blocks of the bordered matrix of Delta + shift(r)
    (module docstring) of modes 0..n_modes - 1: the bordered mode-0 block,
    of shape (Nr + 1, Nr + 1), and the Nr x Nr blocks of modes
    1..n_modes - 1."""
    Nr, Ns = grid.Nr, grid.Ns
    bands = _mode_bands(grid, shift, np.arange(n_modes))
    j = np.arange(Nr)
    blocks = np.zeros((bands.shape[1], Nr, Nr))
    blocks[:, j, j] = bands[1]
    blocks[:, j[:-1], j[1:]] = bands[0, :, 1:]
    blocks[:, j[1:], j[:-1]] = bands[2, :, :-1]
    mode0 = np.block([[blocks[0], -np.sqrt(Ns) * np.eye(Nr, 1)],
                      [np.sqrt(Ns) * circulation_row(grid)[:, :1].T, 0.0]])
    return mode0, blocks[1:]


def _singular_values(grid: AnnulusGrid, shift):
    """Singular values, with multiplicity, of the bordered matrix of
    Delta + shift(r), from its theta-mode blocks (module docstring)."""
    mode0, blocks = _mode_blocks(grid, shift, grid.Ns // 2 + 1)
    parts = np.linalg.svd(blocks, compute_uv=False)
    # the cos and sin parts of a mode share its block; Ns is even, and the
    # last mode, Ns/2, has no sin part
    return np.concatenate([np.linalg.svd(mode0, compute_uv=False),
                           parts.ravel(), parts[:-1].ravel()])


@dataclass(frozen=True)
class NdReport:
    """Smallest singular value of an operator, against a scale."""
    sigma_min: float
    scale: float

    @property
    def nondegenerate(self) -> bool:
        return self.sigma_min > ND_THRESHOLD * self.scale


def check_nd1(state) -> NdReport:
    """Invertibility margin of Delta - F'(psi) with the zero-circulation
    conditions at a steady state: smallest singular value of the bordered
    matrix, against that of Delta's bordered mode-0 block (a scale that
    falls with the grid step as sigma does).  The state must be radially
    symmetric (``radial_psi``)."""
    g = state.psi.grid
    c = -state.F.d1(radial_psi(state.psi)[1:-1])
    sigma = float(_singular_values(g, c).min())
    scale = float(np.linalg.svd(_mode_blocks(g, 0.0, 1)[0], compute_uv=False)[-1])
    return NdReport(sigma, scale)


def principal_eigenvalue(grid: AnnulusGrid):
    """Smallest lam > 0 making Delta + lam singular under the
    zero-circulation conditions, A x = -lam E x with A the bordered matrix
    of Delta and E the identity on the interior rows.  Mode 0 gives the
    finite generalized eigenvalues of its bordered block.  In a mode
    k >= 1 the tie rows are identity rows without mass, so x is 0 there
    and lam is an eigenvalue of minus the interior block.  Those blocks
    differ only in their diagonal term -4 c_tt sin^2(pi k / Ns), which
    grows with k up to Ns/2, and share the off-diagonals c_rr +- c_r,
    whose products are positive since c_rr > |c_r| where r > hr/2 and
    every interior radius is at least Ri + hr.  So one diagonal
    similarity makes them all symmetric, and by Weyl's inequality no
    mode k > 1 has an eigenvalue below mode 1's."""
    mode0, blocks = _mode_blocks(grid, 0.0, 2)
    mass = np.diag(np.r_[0.0, np.full(grid.Nr - 2, -1.0), 0.0, 0.0])
    lam = np.concatenate([eigvals(mode0, mass), eigvals(-blocks[0, 1:-1, 1:-1])])
    lam = lam[np.isfinite(lam) & (np.abs(lam.imag) < 1e-8 * np.abs(lam))].real
    return float(lam[lam > 0].min())
