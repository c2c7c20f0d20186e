"""Linear elliptic solves on the annulus with circulation boundary data.

One bordered family covers every linear problem: E(c)phi = Delta(phi) +
c*phi = k with phi = 0 on the outer circle, phi constant (unknown) on the
inner circle, and a prescribed circulation.  The unknown inner trace is an
explicit scalar unknown and the circulation functional an explicit
constraint row, so the system is square.  Its c = 0 member is the Poisson
problem Delta(psi) = omega with circulation gamma; profile derivatives and
the nondegeneracy checks solve with zero circulation.

When c depends on r alone, ``FourierSystem`` solves the system, for one
right-hand side or a stack, with no matrix and no factor (Hockney 1965;
Buzbee, Golub and Nielson 1970): a real FFT in theta splits it into one
tridiagonal system in r per mode.  The tie and circulation rows touch
mode 0 only, which ``RadialSystem`` solves, with one extra homogeneous
solve for the inner constant; the outer Dirichlet rows decouple the
modes k >= 1 into one stacked solve.  It takes
grid arrays and a circulation and returns grid arrays, whose row 0 holds
the inner constant in every column.

For any c, the Fourier solve of Delta + cbar(r), cbar the theta-mean of
c, is exact when c does not vary in theta, as on a radially symmetric
state.  ``solve_ve`` is the one solver of Delta + c on the grid, Poisson
included, for one right-hand side or a stack: it solves every column
with that Fourier system and checks each column's interior residual
against ``KRYLOV_RTOL`` times the norm of its interior values and its
circulation (the tie and circulation rows hold by construction).  The
circulation counts with the weight of the largest stencil diagonal over
the circulation row's 2-norm: that row's scale is arbitrary, and without
the weight the rounding of a harmonic psi misses the check at 128x256
when Ri = 0.2, Ro = 1.  Each column that misses continues by its own
GMRES, right-preconditioned with the same system, started from the
Fourier answer and stopped at that column's bound, which then takes no
iteration on a radially symmetric state and 2-6 on others.  GMRES stops
within one restart cycle (20 iterations); every column it returns is
checked again, since GMRES assumes that the
preconditioner solves exactly, which a cbar near an eigenvalue of -Delta
breaks.  A solve that fails either test raises no-convergence.

When c and the right-hand sides do not vary in theta, neither does phi,
and ``solve_ve``'s answer is its mode-0 part alone: its modes k >= 1 and
the variation GMRES would correct are zero.  ``solve_radial`` takes such
data along r, a stack of columns at once, by the ``RadialSystem`` of
``FourierSystem``'s mode 0 with zero circulation, and checks each
column's residual as ``solve_ve`` does.  ``radial_psi`` is the test of a
radially symmetric state that its callers share; it reads a
theta-variation of rounding size (``RADIAL_RTOL``) as none, by the
predicate ``theta_constant`` that ``orbit.level_chart`` shares.

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
import scipy.sparse.linalg as spla
from scipy.linalg import eigvals, solve_banded

from .errors import NoConvergenceError, SingularSystemError
from .grid import AnnulusGrid, Field2D, circulation_row

ND_THRESHOLD = 1e-6     # least sigma_min / scale (NdReport)
KRYLOV_RTOL = 1e-10     # solve_ve: relative interior residual of each column
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


def solve_poisson(omega: Field2D, gamma: float) -> Field2D:
    """Stream function of a vorticity field with prescribed circulation:
    the c = 0 solve of ``solve_ve`` with circulation gamma.  The tie rows
    put its inner value in every column of row 0."""
    grid = omega.grid
    return grid.field(solve_ve(grid.constant(0.0), omega.values, gamma)[0])


class RadialSystem:
    """Mode 0 of the bordered system of Delta + shift(r), shift a scalar
    or its values on the interior radii: the system of data that do not
    vary in theta.  It holds its tridiagonal band in r and its response
    to a unit inner constant, and no reference to its grid.  Raises
    singular-system when the circulation row cannot fix the inner
    constant."""

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
        """phi for interior values of shape (Nr, Ns) or (Nr, Ns, m), the m
        columns solved at once, and a circulation, a scalar or one per
        column; the boundary rows of values are not read."""
        Nr, Ns = self.shape
        stack = values.shape[2:]
        # Fortran order lays the modes k >= 1 out as the unknowns (k - 1)*Nr + j
        modes = np.empty((Nr, Ns // 2 + 1) + stack, complex, order="F")
        np.fft.rfft(values, axis=1, out=modes)
        modes[:, 0] = self.mode0.solve(modes[:, 0].real, circulation)
        higher = modes[:, 1:]
        higher[[0, -1]] = 0.0                   # the tie rows of both circles
        # solved in place for one column; a stack is copied
        modes[:, 1:] = solve_banded(
            (1, 1), self.bands, higher.reshape((-1,) + stack, order="F"),
            overwrite_b=True).reshape(higher.shape, order="F")
        phi = np.empty(values.shape)
        np.fft.irfft(modes, n=Ns, axis=1, out=phi)
        return phi


def _residual_squares(c: Field2D, phi, k):
    """Squared 2-norm of each column of (Delta + c)phi - k on the interior
    rows, phi and k of shape (Nr, Ns, m): from the stencil with no
    matrix, a block of about 256 KB of radial rows at a time."""
    grid = c.grid
    c_rr, c_r, c_tt = _stencil(grid)
    c_r, c_tt = c_r[..., None], c_tt[..., None]
    diag = c.values[1:-1, :, None] - 2 * c_rr - 2 * c_tt
    rows = max(1, (1 << 15) // phi[0].size)
    squares = np.zeros(phi.shape[2])
    for lo in range(1, grid.Nr - 1, rows):
        hi = min(lo + rows, grid.Nr - 1)
        mid, up, down = phi[lo:hi], phi[lo + 1:hi + 1], phi[lo - 1:hi - 1]
        i = slice(lo - 1, hi - 1)           # the same rows of the interior arrays
        res = diag[i] * mid - k[lo:hi]
        part = up + down
        part *= c_rr
        res += part
        np.subtract(up, down, out=part)
        part *= c_r[i]
        res += part
        # the angular neighbours, wrapping around theta
        np.add(mid[:, 2:], mid[:, :-2], out=part[:, 1:-1])
        np.add(mid[:, 1], mid[:, -1], out=part[:, 0])
        np.add(mid[:, 0], mid[:, -2], out=part[:, -1])
        part *= c_tt[i]
        res += part
        squares += np.einsum("ijk,ijk->k", res, res)
    return squares


def solve_ve(c: Field2D, k, circulation=0.0):
    """Solve (Delta + c)phi = k with the given circulation, k of shape
    (Nr, Ns) or (Nr, Ns, m), the m columns at once: the Fourier solve of
    Delta + cbar(r), continued by GMRES for each column whose residual
    misses (see the module docstring).  Returns (phi, the largest number
    of GMRES iterations of a column); raises no-convergence when GMRES or
    the check of its true residuals fails."""
    grid = c.grid
    cbar = c.values.mean(axis=1, keepdims=True)
    values = k.reshape(grid.Nr, grid.Ns, -1)
    try:
        system = FourierSystem(grid, cbar[1:-1, 0])
        phi = system.solve(values, circulation)
    except (SingularSystemError, np.linalg.LinAlgError) as exc:
        raise NoConvergenceError(f"GMRES has no preconditioner: {exc}") from exc
    c_rr, _, c_tt = _stencil(grid)      # the circulation's weight (module docstring)
    weight = 2 * (c_rr + c_tt.max()) / np.linalg.norm(circulation_row(grid))
    norms = np.sqrt(np.einsum("ijk,ijk->k", values[1:-1], values[1:-1])
                    + np.square(weight * circulation))
    bound = (KRYLOV_RTOL * norms) ** 2
    squares = _residual_squares(c, phi, values)
    miss = np.flatnonzero(~(squares <= bound))          # a NaN residual misses too
    n = grid.Nr * grid.Ns
    variation = c.values - cbar
    variation[[0, -1]] = 0.0                    # the tie rows hold for any y

    def apply(y):               # (Delta + c) M^{-1} y, with M = Delta + cbar
        y = y.reshape(grid.Nr, grid.Ns)
        return (y + variation * system.solve(y, 0.0)).ravel()

    operator = spla.LinearOperator((n, n), matvec=apply, dtype=float)
    iterations = 0
    for j in miss:
        # GMRES for the correction, from the residual of the Fourier answer
        residuals = []
        y, info = spla.gmres(operator, (-variation * phi[..., j]).ravel(), rtol=0.0,
                             atol=KRYLOV_RTOL * norms[j], maxiter=1,
                             callback=residuals.append, callback_type="pr_norm")
        iterations = max(iterations, len(residuals))
        phi[..., j] += system.solve(y.reshape(grid.Nr, grid.Ns), 0.0)
        left = _residual_squares(c, phi[..., j, None], values[..., j, None])[0]
        if info != 0 or not left <= bound[j]:
            raise NoConvergenceError(
                f"GMRES left a relative residual of {np.sqrt(left) / norms[j]:.2e} "
                f"(stop {KRYLOV_RTOL:g}) after {len(residuals)} iterations",
                iterations=len(residuals))
    return phi.reshape(k.shape), iterations


def _theta_variation(values):
    return np.abs(values - values[:, :1]).max()


def theta_constant(values, scale):
    """Whether grid values vary in theta by rounding alone: by at most
    ``RADIAL_RTOL`` times ``scale``."""
    return bool(_theta_variation(values) <= RADIAL_RTOL * scale)


def radial_psi(psi: Field2D):
    """psi along r, its first theta column, for a stream function whose
    theta-variation is rounding (``theta_constant`` with max|psi| as the
    scale).  The Fourier solve leaves a few ulp of it when Ns has a
    factor 5 or 7, whose FFT steps do not cancel a constant row exactly.
    Raises ValueError for a larger variation: the mode-0 paths hold only
    for a radially symmetric state."""
    values = psi.values
    if not theta_constant(values, np.abs(values).max()):
        raise ValueError(f"psi varies in theta by {_theta_variation(values):.2e}: "
                         "not a radially symmetric state")
    return values[:, 0]


def solve_radial(grid: AnnulusGrid, c, k):
    """Solve (Delta + c)phi = k with zero circulation for c, k and phi
    that do not vary in theta, given along r: c of shape (Nr,) and k of
    shape (Nr, m), the m columns at once, by ``RadialSystem.solve``
    (module docstring).  Raises no-convergence when a column's interior
    residual misses ``KRYLOV_RTOL`` times the norm of its interior
    values."""
    try:
        system = RadialSystem(grid, c[1:-1])
    except (SingularSystemError, np.linalg.LinAlgError) as exc:
        raise NoConvergenceError(f"no mode-0 solve: {exc}") from exc
    phi = system.solve(k, 0.0)
    band = system.band
    res = (band[0, 2:, None] * phi[2:] + band[1, 1:-1, None] * phi[1:-1]
           + band[2, :-2, None] * phi[:-2] - k[1:-1])
    residuals = np.linalg.norm(res, axis=0)
    norms = np.linalg.norm(k[1:-1], axis=0)
    miss = np.flatnonzero(~(residuals <= KRYLOV_RTOL * norms))  # a NaN misses too
    if miss.size:
        j = miss[0]
        raise NoConvergenceError(
            f"the mode-0 solve left a residual of {residuals[j]:.2e}, above "
            f"{KRYLOV_RTOL:g} times its column's norm {norms[j]:.2e}")
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
