"""Linear elliptic solves on the annulus with circulation boundary data.

One bordered family covers every linear problem: E(c)phi = Delta(phi) +
c*phi = k with phi = 0 on the outer circle, phi constant (unknown) on the
inner circle, and a prescribed circulation.  The unknown inner trace is an
explicit scalar unknown and the circulation functional an explicit
constraint row, so the system is square and solved by direct sparse LU.
Its c = 0 member is the Poisson problem Delta(psi) = omega with
circulation gamma; Newton steps, profile derivatives and the
nondegeneracy checks solve with zero circulation.

A Newton step solves Delta + c for a c that changes at every iterate.
``krylov_solve`` does so by GMRES preconditioned on the right with the
factor of the grid's Laplacian system, applying Delta + c as that system's
matrix plus c on the interior rows, so no matrix is assembled or
factorized per step.  Right preconditioning makes the residual that GMRES
minimizes the true one, so its stop bounds the residual of the step.  For
a constant c = -F' the preconditioned spectrum is 1 + F'/lam_k, with lam_k
the eigenvalues of -Delta (lam_1 about 3.2 on the annulus 1 < r < 2); it
does not spread as the grid is refined, and GMRES stops after 4-5
iterations from 32x64 to 128x256.  The stop, a relative residual of
``KRYLOV_RTOL``, sits two orders above the residual that the direct LU
itself leaves (up to 1.2e-12 at 128x256), so it is reachable.  One restart
cycle (20 iterations) is allowed; a solve that has not converged within it
raises no-convergence.

Every matrix is factorized by ``_factor``: a minimum-degree ordering of
A^T + A with static diagonal pivoting.  The grid stencil is structurally
symmetric, and its diagonal (of order 1/h^2 inside, 1 on the tie rows) is
a usable pivot; threshold pivoting would leave it and let the fill grow,
and an ordering of the columns alone (COLAMD) ignores the symmetry.
Together they halve the fill of the default.  SuperLU still pivots off
the diagonal where it is exactly zero (the circulation row), and an
exactly singular matrix still raises RuntimeError.

Each factor has one owner: the grid owns its Laplacian system
(``AnnulusGrid.laplacian_system``, built on first use), and a steady state
owns its linearization Delta - F'(psi) (``SteadyState.linearization``).
Nothing is cached at module level, so a factor is freed with its owner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (NearSingularOperatorError, NoConvergenceError,
                     SingularSystemError)
from .grid import AnnulusGrid, Field2D, circulation_row

ND_THRESHOLD = 1e-6     # check_nd1/check_nd2: least sigma_min / operator norm
KRYLOV_RTOL = 1e-10     # krylov_solve: relative residual of the bordered system


def _interior_laplacian(grid: AnnulusGrid, c):
    """(rows, cols, vals) triples of the 5-point polar Laplacian plus c on
    the interior rows (c: scalar or interior values, shape (Nr-2, Ns));
    the angular neighbours wrap around theta."""
    Nr, Ns = grid.Nr, grid.Ns
    j = np.arange(1, Nr - 1)[:, None]
    k = np.arange(Ns)
    row = j * Ns + k
    r = grid.r[1:-1, None]
    c_rr = 1.0 / grid.hr**2
    c_r = 1.0 / (2 * grid.hr * r)
    c_tt = 1.0 / (grid.htheta**2 * r**2)
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
    the bordered solve of the grid's Laplacian system with circulation
    gamma.  Returns (psi, inner_value)."""
    return bordered_solve(omega.grid.laplacian_system, omega, gamma)


@dataclass(frozen=True, eq=False)
class BorderedSystem:
    """Discrete Delta + c with the zero outer trace and the circulation
    row, bordered by the unknown inner-boundary constant.  It holds no
    reference to its grid, so a grid that owns its Laplacian system is
    freed by reference counting."""

    matrix: object            # csc
    lu: object

    @property
    def n_unknowns(self):
        return self.matrix.shape[0]


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


def _interior_rows(grid: AnnulusGrid):
    """Rows of the bordered system that carry the interior equations."""
    return slice(grid.Ns, (grid.Nr - 1) * grid.Ns)


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


def bordered_solve(system: BorderedSystem, k, circulation=0.0):
    """Solve the bordered system with the given circulation (the value of
    its last row); returns (phi, inner_value).

    k is a Field2D, or an array of shape (Nr, Ns, m) holding m right-hand
    sides, which are solved at once; phi then has that shape and
    inner_value has shape (m,)."""
    values = k.values if isinstance(k, Field2D) else np.asarray(k)
    sol = system.lu.solve(_bordered_rhs(system.n_unknowns, values, circulation))
    phi = sol[:-1].reshape(values.shape)
    if isinstance(k, Field2D):
        return k.grid.field(phi), float(sol[-1])
    return phi, sol[-1]


def krylov_solve(system: BorderedSystem, c: Field2D, k: Field2D):
    """Solve (Delta + c) phi = k under the zero-circulation conditions by
    GMRES, preconditioned on the right with the factor of ``system``, the
    grid's Laplacian system.  Returns (phi, number of GMRES iterations);
    raises no-convergence when one restart cycle does not reach
    ``KRYLOV_RTOL``."""
    grid = k.grid
    n = system.n_unknowns
    shift = np.zeros(n)
    shift[_interior_rows(grid)] = c.values[1:-1].ravel()

    def apply(y):                       # (Delta + c) applied to M^{-1} y
        x = system.lu.solve(y)
        return system.matrix @ x + shift * x

    residuals = []
    y, info = spla.gmres(spla.LinearOperator((n, n), matvec=apply, dtype=float),
                         _bordered_rhs(n, k.values, 0.0), rtol=KRYLOV_RTOL,
                         maxiter=1, callback=residuals.append,
                         callback_type="pr_norm")
    if info != 0:
        raise NoConvergenceError(
            f"GMRES left a relative residual above {KRYLOV_RTOL:g} after "
            f"{len(residuals)} iterations", iterations=len(residuals))
    phi = system.lu.solve(y)[:-1]
    return grid.field(phi.reshape(grid.Nr, grid.Ns)), len(residuals)


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
    nu = 1/lam of x -> A^{-1}(-E x) from the sparse factor of A."""
    system = grid.laplacian_system
    n = system.n_unknowns
    interior = np.zeros(n, dtype=bool)
    interior[_interior_rows(grid)] = True
    op = spla.LinearOperator((n, n), matvec=lambda x: system.lu.solve(
        np.where(interior, -np.ravel(x), 0.0)), dtype=float)
    v0 = np.random.default_rng(7).normal(size=n)
    nu = spla.eigs(op, k=6, which="LM", v0=v0, return_eigenvectors=False)
    real = nu[np.abs(nu.imag) < 1e-8 * np.abs(nu)].real
    pos = real[real > 0]
    if pos.size == 0:
        raise SingularSystemError("no positive eigenvalue found")
    return float(1.0 / pos.max())
