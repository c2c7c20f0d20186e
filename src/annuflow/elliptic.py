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
where one extra homogeneous solve gives the inner constant.  The grid owns
its c = 0 member (``AnnulusGrid.laplacian_system``).

For any c, the Fourier solve of Delta + cbar(r), cbar the theta-mean of
c, is exact when c does not vary in theta, as on a radially symmetric
state.  ``solve_ve`` is the one solver of Delta + c, for one right-hand
side or a stack: it solves every column with that Fourier system and
checks each column's relative residual on the interior rows (the tie and
circulation rows hold by construction).  Columns that miss
``KRYLOV_RTOL`` continue, all at once, by GMRES right-preconditioned
with the same system and started from the Fourier answer, which then
takes no iteration on a radially symmetric state and 2-6 on others.
GMRES stops within one restart cycle (20 iterations); every column it
returns is checked again, since GMRES assumes that the preconditioner
solves exactly, which a cbar near an eigenvalue of -Delta breaks.  A
solve that fails either test raises no-convergence.

``check_nd1`` builds the one sparse LU left (``bordered_system``), for
the transposed solves of its singular-value estimate.  ``_factor``
orders A^T + A by minimum degree and pivots statically on the diagonal,
which the structurally symmetric stencil makes usable (of order 1/h^2
inside, 1 on the tie rows); together they halve the fill of the
default.  SuperLU still pivots off the diagonal where it is exactly zero
(the circulation row), and an exactly singular matrix raises
RuntimeError.  Nothing is cached at module level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from .errors import NoConvergenceError, SingularSystemError
from .grid import AnnulusGrid, Field2D, circulation_row

ND_THRESHOLD = 1e-6     # check_nd1/check_nd2: least sigma_min / operator norm
KRYLOV_RTOL = 1e-10     # solve_ve: relative interior residual of each column


def _stencil(grid: AnnulusGrid):
    """Interior coefficients of the 5-point polar Laplacian (d_rr, d_r, d_tt)."""
    r = grid.r[1:-1, None]
    return 1.0 / grid.hr**2, 1.0 / (2 * grid.hr * r), 1.0 / (grid.htheta**2 * r**2)


def _interior_laplacian(grid: AnnulusGrid, c):
    """(rows, cols, vals) triples of the 5-point polar Laplacian plus c on
    the interior rows (c: scalar or interior values, shape (Nr-2, Ns));
    the angular neighbours wrap around theta."""
    Nr, Ns = grid.Nr, grid.Ns
    j = np.arange(1, Nr - 1)[:, None]
    k = np.arange(Ns)
    row = j * Ns + k
    c_rr, c_r, c_tt = _stencil(grid)
    return [(row, row + Ns, c_rr + c_r), (row, row - Ns, c_rr - c_r),
            (row, j * Ns + (k + 1) % Ns, c_tt), (row, j * Ns + (k - 1) % Ns, c_tt),
            (row, row, -2 * c_rr - 2 * c_tt + c)]


def _csc(entries, n):
    """n x n CSC matrix from (rows, cols, vals) triples of broadcastable
    shapes."""
    rows, cols, vals = (np.concatenate([a.ravel() for a in part]) for part in
                        zip(*(np.broadcast_arrays(*e) for e in entries)))
    return sp.csc_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))


def _factor(A):
    """Sparse LU of a bordered matrix with the ordering and pivoting
    policy described in the module docstring."""
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)


def solve_poisson(omega: Field2D, gamma: float):
    """Stream function of a vorticity field with prescribed circulation:
    the grid's Fourier solve of the c = 0 bordered system with circulation
    gamma.  Returns (psi, inner_value)."""
    return bordered_solve(omega.grid.laplacian_system, omega, gamma)


@dataclass(frozen=True, eq=False)
class BorderedSystem:
    """Discrete Delta + c with the zero outer trace and the circulation
    row, bordered by the unknown inner-boundary constant, and its sparse
    LU.  It holds no reference to its grid."""

    matrix: object            # csc
    lu: object

    @property
    def n_unknowns(self):
        return self.matrix.shape[0]


class FourierSystem:
    """Direct solver of the bordered system of Delta + shift(r), shift a
    scalar or its values on the interior radii.  It holds no reference to
    its grid.  Raises singular-system when the circulation row cannot fix
    the inner constant."""

    def __init__(self, grid: AnnulusGrid, shift=0.0):
        Nr, Ns = grid.Nr, grid.Ns
        c_rr, c_r, c_tt = _stencil(grid)
        modes = np.arange(Ns // 2 + 1)[:, None]
        # banded form of the unknowns m*Nr + j; identity tie rows decouple the modes
        bands = np.zeros((3, modes.size, Nr))
        bands[1] = 1.0
        bands[0, :, 2:] = c_rr + c_r.T
        bands[1, :, 1:-1] = (-2 * c_rr + shift
                             - 4 * c_tt.T * np.sin(modes * grid.htheta / 2) ** 2)
        bands[2, :, :-2] = c_rr - c_r.T
        self.bands = bands.reshape(3, -1)
        self.shape = (Nr, Ns)
        self.n_unknowns = Nr * Ns + 1
        # mode 0 of a unit inner constant: its tie rows sum to Ns in row 0
        self.unit_inner = solve_banded((1, 1), self.bands[:, :Nr],
                                       np.r_[float(Ns), np.zeros(Nr - 1)])
        # weights of one theta column, applied to mode 0 (the column sums)
        self.circulation = circulation_row(grid)[:, 0]
        self.unit_circulation = self.circulation @ self.unit_inner
        if self.unit_circulation == 0.0:
            raise SingularSystemError("the circulation row leaves the inner constant free")

    def solve(self, rhs):
        """Solution for a bordered right-hand side of shape (n,) or (n, m),
        n = Nr*Ns + 1, the m columns solved at once."""
        Nr, Ns = self.shape
        stack = rhs.shape[1:]
        # Fortran order lays the modes out as the unknowns m*Nr + j: solved in place
        modes = np.empty((Nr, Ns // 2 + 1) + stack, complex, order="F")
        np.fft.rfft(rhs[:-1].reshape((Nr, Ns) + stack), axis=1, out=modes)
        modes = solve_banded((1, 1), self.bands, modes.reshape((-1,) + stack, order="F"),
                             overwrite_b=True).reshape(modes.shape, order="F")
        inner = (rhs[-1] - self.circulation @ modes[:, 0].real) / self.unit_circulation
        modes[:, 0] += np.multiply.outer(self.unit_inner, inner)
        sol = np.empty(rhs.shape)
        np.fft.irfft(modes, n=Ns, axis=1, out=sol[:-1].reshape((Nr, Ns) + stack))
        sol[-1] = inner
        return sol


def _bordered_matrix(grid: AnnulusGrid, c: Field2D):
    """Rows: Laplacian + c inside, identity on the outer circle, inner
    trace minus the scalar unknown (last column), circulation last."""
    Nr, Ns = grid.Nr, grid.Ns
    n = Nr * Ns
    outer = np.arange(n - Ns, n)
    inner = np.arange(Ns)
    crow = circulation_row(grid).ravel()
    ccols = np.flatnonzero(crow)
    return _csc(_interior_laplacian(grid, c.values[1:-1])
                + [(outer, outer, 1.0),
                   (inner, inner, 1.0),
                   (inner, n, -1.0),
                   (n, ccols, crow[ccols])], n + 1)


def bordered_system(grid: AnnulusGrid, c: Field2D) -> BorderedSystem:
    A = _bordered_matrix(grid, c)
    return BorderedSystem(A, _factor(A))


def _bordered_rhs(n_unknowns, values, circulation):
    """Right-hand side of the bordered system: values (shape (Nr, Ns) or
    (Nr, Ns, m)) on the interior rows, zero on the tie rows of both
    circles, and the circulation in the last row."""
    Nr, Ns = values.shape[:2]
    stack = values.shape[2:]
    rhs = np.zeros((n_unknowns,) + stack)
    rhs[:-1] = values.reshape((-1,) + stack)
    rhs[:Ns] = 0.0                             # inner tie rows
    rhs[(Nr - 1) * Ns: Nr * Ns] = 0.0
    rhs[-1] = circulation
    return rhs


def bordered_solve(system: FourierSystem, k: Field2D, circulation=0.0):
    """Solve a Fourier system for k with the given circulation (the value
    of its last row); returns (phi, inner_value)."""
    sol = system.solve(_bordered_rhs(system.n_unknowns, k.values, circulation))
    return k.grid.field(sol[:-1].reshape(k.values.shape)), float(sol[-1])


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
    Delta + cbar(r), continued by GMRES for the columns whose residual
    misses (see the module docstring).  Returns (phi, number of GMRES
    iterations); raises no-convergence when GMRES or the check of its
    true residuals fails."""
    grid = c.grid
    cbar = c.values.mean(axis=1, keepdims=True)
    n = c.values.size + 1
    values = k.reshape(grid.Nr, grid.Ns, -1)
    rhs = _bordered_rhs(n, values, circulation)
    try:
        system = FourierSystem(grid, cbar[1:-1, 0])
        sol = system.solve(rhs)
    except (SingularSystemError, np.linalg.LinAlgError) as exc:
        raise NoConvergenceError(f"GMRES has no preconditioner: {exc}") from exc
    norms = np.linalg.norm(rhs, axis=0)
    bound = (KRYLOV_RTOL * norms) ** 2
    squares = _residual_squares(c, sol[:-1].reshape(values.shape), values)
    miss = np.flatnonzero(~(squares <= bound))          # a NaN residual misses too
    iterations = 0
    if miss.size:
        m = miss.size
        variation = _bordered_rhs(n, c.values - cbar, 0.0)[:, None]

        def apply(y):           # (Delta + c) M^{-1} y, with M = Delta + cbar
            y = y.reshape(n, m)
            return (y + variation * system.solve(y)).ravel()

        # GMRES for the correction, from the residual of the Fourier answer
        # in columns scaled to unit right-hand sides; it stops when the
        # stack's residual is KRYLOV_RTOL/2, so each column's is at most that
        residuals = []
        y, info = spla.gmres(spla.LinearOperator((n * m, n * m), matvec=apply,
                                                 dtype=float),
                             (-variation * sol[:, miss] / norms[miss]).ravel(),
                             rtol=0.0, atol=KRYLOV_RTOL / 2, maxiter=1,
                             callback=residuals.append, callback_type="pr_norm")
        iterations = len(residuals)
        sol[:, miss] += system.solve(y.reshape(n, m)) * norms[miss]
        left = _residual_squares(c, sol[:-1, miss].reshape(grid.Nr, grid.Ns, m),
                                 values[..., miss])
        if info != 0 or not np.all(left <= bound[miss]):
            worst = np.max(np.sqrt(left) / norms[miss])
            raise NoConvergenceError(
                f"GMRES left a relative residual of {worst:.2e} (stop "
                f"{KRYLOV_RTOL:g}) after {iterations} iterations",
                iterations=iterations)
    return sol[:-1].reshape(k.shape), iterations


def sigma_min_estimate(system: BorderedSystem):
    """Smallest singular value by inverse power iteration on A^T A: at
    most 20 steps, stopping at a relative change below 1e-8."""
    lu = system.lu
    n = system.n_unknowns
    rng = np.random.default_rng(7)
    x = rng.normal(size=n)
    x /= np.linalg.norm(x)
    prev = np.inf
    sigma = np.inf
    for _ in range(20):
        y = lu.solve(x)                 # A^{-1} x
        z = lu.solve(y, trans="T")      # A^{-T} A^{-1} x
        nz = np.linalg.norm(z)
        if nz == 0 or not np.isfinite(nz):
            return 0.0
        sigma = 1.0 / np.sqrt(nz)
        x = z / nz
        if abs(sigma - prev) < 1e-8 * max(sigma, 1e-300):
            break
        prev = sigma
    return float(sigma)


@dataclass(frozen=True)
class NdReport:
    sigma_min: float
    op_norm: float
    threshold: float
    nondegenerate: bool


def check_nd1(state) -> NdReport:
    """Invertibility margin of Delta - F'(psi) with the zero-circulation
    conditions at a steady state: smallest singular value of the bordered
    matrix, relative to its one-norm estimate."""
    g = state.psi.grid
    system = bordered_system(g, g.field(-state.F.d1(state.psi.values)))
    sigma = sigma_min_estimate(system)
    opnorm = float(spla.onenormest(system.matrix))
    return NdReport(sigma, opnorm, ND_THRESHOLD, sigma > ND_THRESHOLD * opnorm)


def principal_eigenvalue(grid: AnnulusGrid):
    """Smallest lam > 0 making Delta + lam singular under the
    zero-circulation conditions.

    With A the bordered matrix of Delta and E the identity on the interior
    rows, A x = -lam E x; ARPACK finds the largest eigenvalues
    nu = 1/lam of x -> A^{-1}(-E x) from the grid's Fourier solve of A."""
    system = grid.laplacian_system
    n = system.n_unknowns
    op = spla.LinearOperator((n, n), matvec=lambda x: system.solve(_bordered_rhs(
        n, -np.ravel(x)[:-1].reshape(grid.Nr, grid.Ns), 0.0)), dtype=float)
    v0 = np.random.default_rng(7).normal(size=n)
    nu = spla.eigs(op, k=6, which="LM", v0=v0, return_eigenvectors=False)
    real = nu[np.abs(nu.imag) < 1e-8 * np.abs(nu)].real
    pos = real[real > 0]
    if pos.size == 0:
        raise SingularSystemError("no positive eigenvalue found")
    return float(1.0 / pos.max())
