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
tridiagonal system in r per mode, which the outer Dirichlet rows decouple
into one stacked solve; the tie and circulation rows touch mode 0 only,
where one extra homogeneous solve gives the inner constant.  It takes
and returns grid arrays, with the circulation and the inner constant.

For any c, the Fourier solve of Delta + cbar(r), cbar the theta-mean of
c, is exact when c does not vary in theta, as on a radially symmetric
state.  ``solve_ve`` is the one solver of Delta + c, Poisson included,
for one right-hand side or a stack: it solves every column with that
Fourier system and checks each column's interior residual against
``KRYLOV_RTOL`` times the norm of its interior values and its
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

When c does not vary in theta, an orthonormal real DFT in theta splits
the bordered matrix into blocks whose singular values together are its
own: the Nr x Nr tridiagonal block of each mode k >= 1 (the cos and sin
parts share it), and for mode 0 that block bordered by the inner
constant's column (-sqrt(Ns) in the inner tie row) and the circulation
row (sqrt(Ns) times one theta column of its weights).  ``check_nd1``
takes the smallest singular value from dense SVDs of those blocks, so a
singular block gives sigma at rounding level, not an error, and the
exact one-norm from the stencil; it refuses a c that varies in theta.
Nothing is assembled, factorized or cached at module level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from .errors import NoConvergenceError, SingularSystemError
from .grid import AnnulusGrid, Field2D, circulation_row

ND_THRESHOLD = 1e-6     # least sigma_min / norm: the 1-norm in nd1, sigma_max in nd2
KRYLOV_RTOL = 1e-10     # solve_ve: relative interior residual of each column


def _stencil(grid: AnnulusGrid):
    """Interior coefficients of the 5-point polar Laplacian (d_rr, d_r, d_tt)."""
    r = grid.r[1:-1, None]
    return 1.0 / grid.hr**2, 1.0 / (2 * grid.hr * r), 1.0 / (grid.htheta**2 * r**2)


def _mode_bands(grid: AnnulusGrid, shift):
    """Tridiagonal blocks in r of Delta + shift(r), one for each theta mode
    0..Ns/2, in ``solve_banded``'s (1, 1) layout, of shape (3, Ns/2 + 1, Nr);
    the tie rows of both circles are identity rows."""
    c_rr, c_r, c_tt = _stencil(grid)
    modes = np.arange(grid.Ns // 2 + 1)[:, None]
    bands = np.zeros((3, modes.size, grid.Nr))
    bands[1] = 1.0
    bands[0, :, 2:] = c_rr + c_r.T
    bands[1, :, 1:-1] = (-2 * c_rr + shift
                         - 4 * c_tt.T * np.sin(modes * grid.htheta / 2) ** 2)
    bands[2, :, :-2] = c_rr - c_r.T
    return bands


def solve_poisson(omega: Field2D, gamma: float):
    """Stream function of a vorticity field with prescribed circulation:
    the c = 0 solve of ``solve_ve`` with circulation gamma.  Returns psi
    and its inner value, the mean of row 0, which the tie rows fix."""
    grid = omega.grid
    psi, _ = solve_ve(grid.constant(0.0), omega.values, gamma)
    return grid.field(psi), float(psi[0].mean())


class FourierSystem:
    """Direct solver of the bordered system of Delta + shift(r), shift a
    scalar or its values on the interior radii.  It holds no reference to
    its grid.  Raises singular-system when the circulation row cannot fix
    the inner constant."""

    def __init__(self, grid: AnnulusGrid, shift=0.0):
        Nr, Ns = grid.Nr, grid.Ns
        # banded form of the unknowns m*Nr + j; identity tie rows decouple the modes
        self.bands = _mode_bands(grid, shift).reshape(3, -1)
        self.shape = (Nr, Ns)
        # mode 0 of a unit inner constant: its tie rows sum to Ns in row 0
        self.unit_inner = solve_banded((1, 1), self.bands[:, :Nr],
                                       np.r_[float(Ns), np.zeros(Nr - 1)])
        # weights of one theta column, applied to mode 0 (the column sums)
        self.circulation = circulation_row(grid)[:, 0]
        self.unit_circulation = self.circulation @ self.unit_inner
        if self.unit_circulation == 0.0:
            raise SingularSystemError("the circulation row leaves the inner constant free")

    def solve(self, values, circulation):
        """(phi, inner) for interior values of shape (Nr, Ns) or (Nr, Ns, m),
        the m columns solved at once, and a circulation, a scalar or one per
        column; the boundary rows of values are not read."""
        Nr, Ns = self.shape
        stack = values.shape[2:]
        # Fortran order lays the modes out as the unknowns m*Nr + j: solved in place
        modes = np.empty((Nr, Ns // 2 + 1) + stack, complex, order="F")
        np.fft.rfft(values, axis=1, out=modes)
        modes[[0, -1]] = 0.0                    # the tie rows of both circles
        modes = solve_banded((1, 1), self.bands, modes.reshape((-1,) + stack, order="F"),
                             overwrite_b=True).reshape(modes.shape, order="F")
        inner = (circulation - self.circulation @ modes[:, 0].real) / self.unit_circulation
        modes[:, 0] += np.multiply.outer(self.unit_inner, inner)
        phi = np.empty(values.shape)
        np.fft.irfft(modes, n=Ns, axis=1, out=phi)
        return phi, inner


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
        phi, _ = system.solve(values, circulation)
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
        return (y + variation * system.solve(y, 0.0)[0]).ravel()

    operator = spla.LinearOperator((n, n), matvec=apply, dtype=float)
    iterations = 0
    for j in miss:
        # GMRES for the correction, from the residual of the Fourier answer
        residuals = []
        y, info = spla.gmres(operator, (-variation * phi[..., j]).ravel(), rtol=0.0,
                             atol=KRYLOV_RTOL * norms[j], maxiter=1,
                             callback=residuals.append, callback_type="pr_norm")
        iterations = max(iterations, len(residuals))
        phi[..., j] += system.solve(y.reshape(grid.Nr, grid.Ns), 0.0)[0]
        left = _residual_squares(c, phi[..., j, None], values[..., j, None])[0]
        if info != 0 or not left <= bound[j]:
            raise NoConvergenceError(
                f"GMRES left a relative residual of {np.sqrt(left) / norms[j]:.2e} "
                f"(stop {KRYLOV_RTOL:g}) after {len(residuals)} iterations",
                iterations=len(residuals))
    return phi.reshape(k.shape), iterations


def _singular_values(grid: AnnulusGrid, shift):
    """Singular values, with multiplicity, of the bordered matrix of
    Delta + shift(r), from its theta-mode blocks (module docstring)."""
    Nr, Ns = grid.Nr, grid.Ns
    bands = _mode_bands(grid, shift)
    j = np.arange(Nr)
    blocks = np.zeros((bands.shape[1], Nr, Nr))
    blocks[:, j, j] = bands[1]
    blocks[:, j[:-1], j[1:]] = bands[0, :, 1:]
    blocks[:, j[1:], j[:-1]] = bands[2, :, :-1]
    mode0 = np.block([[blocks[0], -np.sqrt(Ns) * np.eye(Nr, 1)],
                      [np.sqrt(Ns) * circulation_row(grid)[:, :1].T, 0.0]])
    parts = np.linalg.svd(blocks[1:], compute_uv=False)
    # the cos and sin parts of a mode share its block; Ns is even, and the
    # last mode, Ns/2, has no sin part
    return np.concatenate([np.linalg.svd(mode0, compute_uv=False),
                           parts.ravel(), parts[:-1].ravel()])


def _one_norm(grid: AnnulusGrid, shift):
    """1-norm of the bordered matrix of Delta + shift(r): its largest
    absolute column sum, read from the stencil."""
    c_rr, c_r, c_tt = _stencil(grid)
    sums = np.abs(circulation_row(grid))
    sums[[0, -1]] += 1.0                    # the tie rows
    sums[1:-1] += np.abs(-2 * c_rr - 2 * c_tt + shift[:, None]) + 2 * c_tt
    sums[:-2] += np.abs(c_rr - c_r)         # from the interior row above
    sums[2:] += np.abs(c_rr + c_r)          # from the interior row below
    return float(max(sums.max(), grid.Ns))  # the inner constant's column


@dataclass(frozen=True)
class NdReport:
    sigma_min: float
    op_norm: float
    threshold: float
    nondegenerate: bool


def check_nd1(state) -> NdReport:
    """Invertibility margin of Delta - F'(psi) with the zero-circulation
    conditions at a steady state: smallest singular value of the bordered
    matrix, relative to its one-norm.  The state must be radially
    symmetric: raises ValueError when F'(psi) varies in theta on the
    interior rows."""
    g = state.psi.grid
    c = -state.F.d1(state.psi.values[1:-1])
    if not np.all(c == c[:, :1]):
        raise ValueError("F'(psi) varies in theta: not a radially symmetric state")
    sigma = float(_singular_values(g, c[:, 0]).min())
    opnorm = _one_norm(g, c[:, 0])
    return NdReport(sigma, opnorm, ND_THRESHOLD, sigma > ND_THRESHOLD * opnorm)


def principal_eigenvalue(grid: AnnulusGrid):
    """Smallest lam > 0 making Delta + lam singular under the
    zero-circulation conditions.

    With A the bordered matrix of Delta and E the identity on the interior
    rows, A x = -lam E x; ARPACK finds the largest eigenvalues nu = 1/lam
    of x -> A^{-1}(-E x) from one Fourier solve of A, on grid arrays (the
    tie rows fix the inner constant)."""
    system = FourierSystem(grid)
    n = grid.Nr * grid.Ns
    op = spla.LinearOperator((n, n), matvec=lambda x: system.solve(
        -np.reshape(x, system.shape), 0.0)[0].ravel(), dtype=float)
    v0 = np.random.default_rng(7).normal(size=n)
    nu = spla.eigs(op, k=6, which="LM", v0=v0, return_eigenvectors=False)
    real = nu[np.abs(nu.imag) < 1e-8 * np.abs(nu)].real
    pos = real[real > 0]
    if pos.size == 0:
        raise SingularSystemError("no positive eigenvalue found")
    return float(1.0 / pos.max())
