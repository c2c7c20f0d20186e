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

For any c, the Fourier solve of Delta + cbar(r), cbar the theta-mean of c,
is exact when c does not vary in theta, as on a radially symmetric state.
``fourier_solve`` keeps it when its true residual is small.
``krylov_solve`` (a Newton step) uses it as the right preconditioner of
GMRES, which then stops after one iteration on a radially symmetric state
and after 4-6 on others.  The stop is a relative residual of
``KRYLOV_RTOL`` within one restart cycle (20 iterations).  The true
residual of the result is checked too, since GMRES assumes that the
preconditioner solves exactly, which a cbar near an eigenvalue of -Delta
breaks; a solve that fails either test raises no-convergence.

A steady state owns its factorized linearization Delta - F'(psi)
(``SteadyState.linearization``) for ``check_nd1`` and for the solves that
``fourier_solve`` refuses.  ``_factor`` orders A^T + A by minimum
degree and pivots statically on the diagonal, which the structurally
symmetric stencil makes usable (of order 1/h^2 inside, 1 on the tie rows);
together they halve the fill of the default.  SuperLU still pivots off the
diagonal where it is exactly zero (the circulation row), and an exactly
singular matrix raises RuntimeError.  Nothing is cached at module level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from .errors import (NearSingularOperatorError, NoConvergenceError,
                     SingularSystemError)
from .grid import AnnulusGrid, Field2D, circulation_row, laplacian

ND_THRESHOLD = 1e-6     # check_nd1/check_nd2: least sigma_min / operator norm
KRYLOV_RTOL = 1e-10     # krylov_solve: relative residual of the bordered system
FOURIER_RTOL = 1e-12    # fourier_solve: relative bordered residual of each column


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
    """Sparse LU of a grid matrix with the ordering and pivoting policy
    described in the module docstring."""
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

    def solve(self, rhs):
        return self.lu.solve(rhs)


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


def bordered_solve(system, k, circulation=0.0):
    """Solve a bordered or Fourier system with the given circulation (the
    value of its last row); returns (phi, inner_value).

    k is a Field2D, or (for a BorderedSystem) an array of shape
    (Nr, Ns, m) holding m right-hand sides, which are solved at once; phi
    then has that shape and inner_value has shape (m,)."""
    values = k.values if isinstance(k, Field2D) else np.asarray(k)
    sol = system.solve(_bordered_rhs(system.n_unknowns, values, circulation))
    phi = sol[:-1].reshape(values.shape)
    if isinstance(k, Field2D):
        return k.grid.field(phi), float(sol[-1])
    return phi, sol[-1]


def fourier_solve(c: Field2D, k):
    """Solve (Delta + c) phi = k, k of shape (Nr, Ns) or (Nr, Ns, m), with
    zero circulation by the Fourier solve of Delta + cbar(r), cbar the
    theta-mean of c.  Returns phi when each column's bordered residual is
    at most FOURIER_RTOL of its right-hand side, else None."""
    rhs = _bordered_rhs(c.values.size + 1, k, 0.0)
    try:
        sol = FourierSystem(c.grid, c.values[1:-1].mean(axis=1)).solve(rhs)
    except (SingularSystemError, np.linalg.LinAlgError):
        return None
    residual = _bordered_matrix(c.grid, c) @ sol
    residual -= rhs
    squares = "i...,i...->..."          # column sums of squares
    if np.all(np.einsum(squares, residual, residual)
              <= FOURIER_RTOL**2 * np.einsum(squares, rhs, rhs)):
        return sol[:-1].reshape(k.shape)
    return None


def krylov_solve(c: Field2D, k: Field2D, circulation=0.0):
    """Solve (Delta + c) phi = k with the given circulation by GMRES (see
    the module docstring).  Returns (phi, number of GMRES iterations);
    raises no-convergence when the GMRES stop or the check of the true
    residual fails."""
    grid = k.grid
    cbar = c.values.mean(axis=1, keepdims=True)
    try:
        system = FourierSystem(grid, cbar[1:-1, 0])
    except SingularSystemError as exc:
        raise NoConvergenceError(f"GMRES has no preconditioner: {exc}") from exc
    n = system.n_unknowns
    variation = _bordered_rhs(n, c.values - cbar, 0.0)

    def apply(y):               # (Delta + c) M^{-1} y, with M = Delta + cbar
        return y + variation * system.solve(y)

    rhs = _bordered_rhs(n, k.values, circulation)
    residuals = []
    y, info = spla.gmres(spla.LinearOperator((n, n), matvec=apply, dtype=float),
                         rhs, rtol=KRYLOV_RTOL, maxiter=1,
                         callback=residuals.append, callback_type="pr_norm")
    phi = grid.field(system.solve(y)[:-1].reshape(grid.Nr, grid.Ns))
    # the tie and circulation rows hold by construction of the Fourier solve
    true = (np.linalg.norm((laplacian(phi) + c * phi - k).values[1:-1])
            / np.linalg.norm(rhs))
    if info != 0 or not true <= 2 * KRYLOV_RTOL:
        raise NoConvergenceError(f"GMRES left a relative residual of {true:.2e} (stop "
                                 f"{KRYLOV_RTOL:g}) after {len(residuals)} iterations",
                                 iterations=len(residuals))
    return phi, len(residuals)


def solve_ve(c: Field2D, k: Field2D) -> Field2D:
    """Inverse of the family Delta + c under the zero-circulation conditions.

    Raises near-singular-operator (with the sigma_min estimate) when the
    bordered matrix is numerically singular, which is the discrete signal
    that c left the invertible neighborhood.
    """
    system = bordered_system(c.grid, c)
    try:
        phi, _ = bordered_solve(system, k)
    except RuntimeError as exc:  # splu singular
        raise NearSingularOperatorError(str(exc), sigma_min=0.0) from exc
    rhs_norm = max(np.abs(k.values).max(), 1e-300)
    if not np.all(np.isfinite(phi.values)) or np.abs(phi.values).max() > 1e14 * rhs_norm:
        est = sigma_min_estimate(system)
        raise NearSingularOperatorError("bordered solve blew up", sigma_min=est)
    return phi


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
    system = state.linearization
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
