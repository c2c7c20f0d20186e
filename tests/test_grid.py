import numpy as np
import pytest

from annuflow.errors import InvalidGeometryError
from annuflow.grid import (
    circulation, field_from_json, field_to_json, gradient,
    holder_norm, integrate, laplacian, laplacian_radial, make_annulus,
    poisson_bracket,
)
from annuflow.curves import Curve1D

from oracles import brute_holder_1d


def test_make_annulus_basic():
    g = make_annulus(1, 2, 64, 128)
    assert g.area == pytest.approx(3 * np.pi, abs=1e-12)
    assert abs(g.area_weights.sum() - g.area) < 1e-12 * g.area


def test_make_annulus_minimal():
    g = make_annulus(1, 2, 8, 8)
    assert g.Nr == 8 and g.Ns == 8


@pytest.mark.parametrize("args", [
    (2, 1, 64, 128),   # inverted radii
    (0, 1, 64, 128),   # zero inner radius
    (1, 2, 4, 128),    # Nr too small
    (1, 2, 64, 9),     # odd Ns
])
def test_make_annulus_rejects(args):
    with pytest.raises(InvalidGeometryError):
        make_annulus(*args)


def test_gradient_radial_quadratic(grid64):
    f = grid64.field_from(lambda r, t: r**2)
    gr, gt = gradient(f)
    assert np.abs(gr.values - 2 * grid64.r[:, None]).max() < 1e-10
    assert np.abs(gt.values).max() < 1e-10


def test_gradient_angular_mode(grid64):
    f = grid64.field_from(lambda r, t: np.sin(t))
    gr, gt = gradient(f)
    exact = np.cos(grid64.theta)[None, :] / grid64.r[:, None]
    assert np.abs(gr.values).max() < 1e-10
    assert np.abs(gt.values - exact).max() < grid64.htheta**2


def test_gradient_constant(grid64):
    f = grid64.constant(4.2)
    gr, gt = gradient(f)
    assert np.abs(gr.values).max() < 1e-12
    assert np.abs(gt.values).max() < 1e-12


def test_laplacian_r_squared(grid64):
    f = grid64.field_from(lambda r, t: r**2)
    assert np.abs(laplacian(f).values - 4.0).max() < 1e-8


def test_laplacian_log_harmonic(grid64):
    f = grid64.field_from(lambda r, t: np.log(r))
    assert np.abs(laplacian(f).values[1:-1, :]).max() < 10 * grid64.hr**2


@pytest.mark.parametrize("Ns", [70, 128])
def test_laplacian_radial_is_a_column_of_laplacian(Ns):
    # Newton's residual is taken along r: it must equal the 2D Laplacian
    # of the spread field bit for bit
    g = make_annulus(1.0, 2.0, 33, Ns)
    column = np.exp(g.r) * np.sin(3 * g.r)
    full = laplacian(g.field(np.repeat(column[:, None], Ns, axis=1))).values
    assert np.array_equal(full, np.repeat(laplacian_radial(g, column)[:, None], Ns, axis=1))


def test_laplacian_mixed_mode(grid64):
    f = grid64.field_from(lambda r, t: r**2 * np.sin(t))
    exact = 3 * np.sin(grid64.theta)[None, :]
    err = np.abs(laplacian(f).values - exact).max()
    assert err < 10 * grid64.h**2


def test_laplacian_refinement_order():
    errs = []
    for nr, ns in [(32, 64), (64, 128)]:
        g = make_annulus(1, 2, nr, ns)
        f = g.field_from(lambda r, t: np.sin(2 * r) * np.cos(3 * t))
        exact = g.field_from(
            lambda r, t: (-4 * np.sin(2 * r) + 2 * np.cos(2 * r) / r
                          - 9 * np.sin(2 * r) / r**2) * np.cos(3 * t))
        errs.append(np.abs(laplacian(f).values - exact.values).max())
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_gradient_refinement_order():
    errs = []
    for nr, ns in [(32, 64), (64, 128)]:
        g = make_annulus(1, 2, nr, ns)
        f = g.field_from(lambda r, t: np.exp(r) * np.sin(2 * t))
        gr, _ = gradient(f)
        exact = g.field_from(lambda r, t: np.exp(r) * np.sin(2 * t))
        errs.append(np.abs(gr.values - exact.values).max())
    assert np.log2(errs[0] / errs[1]) >= 1.9


def test_bracket_canonical_pair(grid64):
    x = grid64.field_from(lambda r, t: r * np.cos(t))
    y = grid64.field_from(lambda r, t: r * np.sin(t))
    b = poisson_bracket(x, y)
    assert np.abs(b.values - 1.0).max() < 10 * grid64.h**2


def test_bracket_antisymmetry(grid64):
    f = grid64.field_from(lambda r, t: np.sin(r) * np.cos(2 * t))
    g = grid64.field_from(lambda r, t: r**3 + np.sin(t))
    fg = poisson_bracket(f, g)
    gf = poisson_bracket(g, f)
    assert np.array_equal(fg.values, -gf.values)
    assert np.abs(poisson_bracket(f, f).values).max() == 0.0


def test_bracket_radial_functions(grid64):
    f = grid64.field_from(lambda r, t: r**2)
    g = grid64.field_from(lambda r, t: r**3)
    assert np.abs(poisson_bracket(f, g).values).max() < 10 * grid64.h**2


def test_bracket_integral_identity(grid64):
    # int f{g,h} - int g{h,f} = int {fg,h} = loop integral of f*g dh/dtau,
    # which vanishes when h is constant on each boundary component
    f = grid64.field_from(lambda r, t: np.sin(r) + 0.3 * np.cos(t))
    g = grid64.field_from(lambda r, t: (r - 1) * (2 - r) * np.sin(2 * t) + r**2)
    h = grid64.field_from(lambda r, t: (r - 1) * (2 - r) * np.cos(t) - r)
    lhs = integrate(f * poisson_bracket(g, h))
    rhs = integrate(g * poisson_bracket(h, f))
    # tangential boundary term per ring: tau = normal rotated by +pi/2
    _, gt_h = gradient(h)
    ht = grid64.htheta
    fg = f.values * g.values
    inner = np.sum(fg[0] * (-gt_h.values[0])) * grid64.Ri * ht
    outer = np.sum(fg[-1] * gt_h.values[-1]) * grid64.Ro * ht
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(inner) + abs(outer) < 50 * grid64.h**2 * scale
    assert abs(lhs - (rhs + inner + outer)) < 50 * grid64.h**2 * scale


def test_circulation_log(grid64):
    psi = grid64.field_from(lambda r, t: np.log(r / 2))
    assert circulation(psi) == pytest.approx(-2 * np.pi, abs=1e-6)


def test_circulation_constant(grid64):
    assert circulation(grid64.constant(3.0)) == pytest.approx(0.0, abs=1e-12)


def test_circulation_parabola(grid64):
    psi = grid64.field_from(lambda r, t: r**2 - 4)
    assert circulation(psi) == pytest.approx(-4 * np.pi, abs=1e-10)


def test_integrate_constant(grid64):
    assert integrate(grid64.constant(1.0)) == pytest.approx(3 * np.pi, abs=1e-10)


def test_integrate_inverse_square(grid64):
    f = grid64.field_from(lambda r, t: 1 / r**2)
    assert integrate(f) == pytest.approx(2 * np.pi * np.log(2), abs=10 * grid64.hr**2)


def test_integrate_angular_mode(grid64):
    f = grid64.field_from(lambda r, t: np.sin(t))
    assert abs(integrate(f)) < 1e-12


def test_integrate_exact_radial_polynomials(grid64):
    # exactness on 1, r^2, r^4 times any angular constant
    for k, exact in [(0, 3 * np.pi), (2, 2 * np.pi * 15 / 4), (4, 2 * np.pi * 63 / 6)]:
        f = grid64.field_from(lambda r, t, k=k: r**k)
        assert integrate(f) == pytest.approx(exact, abs=1e-8)


def test_holder_norm_constant(grid64):
    f = grid64.constant(-2.5)
    assert holder_norm(f, 1, 0.5) == pytest.approx(2.5, abs=1e-12)


def test_holder_norm_linear_curve():
    f = Curve1D(0.0, 1.0, np.linspace(0, 1, 129))
    assert holder_norm(f, 0, 0.5) == pytest.approx(2.0, abs=1e-9)


def test_holder_norm_brute_force_curve():
    x = np.linspace(0, np.pi, 101)
    f = Curve1D(0.0, np.pi, np.sin(x))
    ours = holder_norm(f, 1, 0.5)
    brute = brute_holder_1d(x, np.sin(x), 1, 0.5)
    assert abs(ours - brute) / brute < 1e-3


def test_holder_norm_monotone_subadditive(grid64):
    rng = np.random.default_rng(3)

    def rand_field():
        a, b, c = rng.normal(size=3)
        return grid64.field_from(
            lambda r, t: a * np.sin(r) + b * np.cos(2 * t) + c * r**2 / 4)

    f, g = rand_field(), rand_field()
    n0 = holder_norm(f, 0, 0.5)
    n1 = holder_norm(f, 1, 0.5)
    assert n1 >= n0 - 1e-12
    s = holder_norm(f + g, 1, 0.5)
    assert s <= holder_norm(f, 1, 0.5) + holder_norm(g, 1, 0.5) + 1e-9


def test_field_json_roundtrip(grid32):
    f = grid32.field_from(lambda r, t: np.sin(r) * np.cos(t))
    g = field_from_json(field_to_json(f))
    assert np.allclose(g.values, f.values, atol=0, rtol=0)
    assert g.grid.Nr == grid32.Nr and g.grid.Ns == grid32.Ns


def test_field_shape_mismatch(grid32):
    with pytest.raises(InvalidGeometryError):
        grid32.field(np.zeros((3, 3)))
