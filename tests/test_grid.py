"""Grid operators: hermiticity, commutators, eigenfunction residuals."""

import math

import numpy as np
import pytest

from hyperboloid.conical import energy
from hyperboloid.geometry import J_SIGN
from hyperboloid.grid import (
    Grid, GridError, SpectralMode, apply_h_via_j, apply_j, apply_p, bump,
    casimir_xj, eigen_residual, gamma_identity_error, inner_product, interior,
    laplace_beltrami, mode_overlap, norm, sample_mode,
)

GRID = Grid(0.1, 3.0, 291, 16)   # h = 0.01


def _rich(grid, seed=0):
    """Multi-n superposition; single-n functions hide theta-multiplication
    operators behind phi orthogonality."""
    rng = np.random.default_rng(seed)
    f = np.zeros((grid.n_theta, grid.n_phi), dtype=complex)
    for n in (-2, -1, 0, 1, 3):
        c = rng.normal() + 1j * rng.normal()
        # narrow bumps: boundary tails below 1e-25 keep the discrete
        # summation-by-parts identities exact to rounding
        f += c * bump(grid, rng.uniform(1.3, 1.8), 0.15, n)
    return f


def _herm_defect(grid, op, f, g):
    lhs = inner_product(grid, op(f), g)
    rhs = inner_product(grid, f, op(g))
    return abs(lhs - rhs) / max(abs(lhs), 1.0)


# -- grid validation ----------------------------------------------------


def test_grid_validation():
    with pytest.raises(GridError):
        Grid(0.0, 3.0, 10, 16)      # chart singular at theta = 0
    with pytest.raises(GridError):
        Grid(1.0, 0.5, 10, 16)
    with pytest.raises(GridError):
        Grid(0.1, 3.0, 2, 16)
    with pytest.raises(GridError):
        Grid(0.1, 3.0, 10, 15)      # odd n_phi


def test_grid_spacing():
    g = Grid(0.1, 1.1, 11, 8)
    assert g.h == pytest.approx(0.1)
    assert g.dphi == pytest.approx(math.pi / 4)
    assert len(g.theta) == 11 and len(g.phi) == 8


def test_embedding_on_surface():
    x, y, z = GRID.embedding(1.5)
    assert np.max(np.abs(x * x + y * y - z * z + 1.5 ** 2)) < 1e-10


# -- Laplacian / Hamiltonian --------------------------------------------


def test_laplacian_annihilates_constants_interior():
    f = np.ones((GRID.n_theta, GRID.n_phi), dtype=complex)
    out = interior(GRID, laplace_beltrami(GRID, f))
    assert np.max(np.abs(out)) < 1e-10


def test_h_exactly_hermitian():
    f, g = _rich(GRID, 1), _rich(GRID, 2)
    assert _herm_defect(GRID, lambda u: laplace_beltrami(GRID, u), f, g) < 1e-13


def test_j_exactly_hermitian():
    f, g = _rich(GRID, 3), _rich(GRID, 4)
    for i in (1, 2, 3):
        assert _herm_defect(GRID, lambda u: apply_j(i, GRID, u), f, g) < 1e-13


def test_p_hermitian_and_negative_control():
    f, g = _rich(GRID, 5), _rich(GRID, 6)
    for i in (1, 2, 3):
        d = _herm_defect(GRID, lambda u: apply_p(i, GRID, u), f, g)
        assert d < 2e-3, i          # O(h^2) from the theta stencil
        d_bad = _herm_defect(
            GRID, lambda u: apply_p(i, GRID, u, drop_hermitian_term=True), f, g)
        assert d_bad > 50 * max(d, 1e-6), i


def test_j_closure():
    # [J1, J2] = i J3, [J2, J3] = -i J1, [J3, J1] = -i J2 on this grid
    f = _rich(GRID, 7)
    pairs = (((1, 2), 3, +1), ((2, 3), 1, -1), ((3, 1), 2, -1))
    for (i, j), k, sign in pairs:
        comm = (apply_j(i, GRID, apply_j(j, GRID, f))
                - apply_j(j, GRID, apply_j(i, GRID, f)))
        target = sign * 1j * apply_j(k, GRID, f)
        err = np.max(np.abs(interior(GRID, comm - target, 2)))
        scale = np.max(np.abs(interior(GRID, target, 2)))
        assert err / scale < 1e-3, (i, j)


def test_j_closure_is_second_order():
    def closure_err(n_theta):
        g = Grid(0.1, 3.0, n_theta, 16)
        f = _rich(g, 7)
        comm = (apply_j(1, g, apply_j(2, g, f))
                - apply_j(2, g, apply_j(1, g, f)))
        target = 1j * apply_j(3, g, f)
        return np.max(np.abs(interior(g, comm - target, 2)))

    ratio = closure_err(146) / closure_err(291)   # h halves
    assert 2 ** 1.5 <= ratio <= 2 ** 2.5


def test_casimir_xj_vanishes():
    f = _rich(GRID, 8)
    err = np.max(np.abs(interior(GRID, casimir_xj(GRID, f), 2)))
    assert err < 1e-3 * np.max(np.abs(f))


def test_h_via_j_matches_laplacian():
    f = _rich(GRID, 9)
    direct = laplace_beltrami(GRID, f)
    via_j = apply_h_via_j(GRID, f)

    def err(g):
        ff = _rich(g, 9)
        d = laplace_beltrami(g, ff) - apply_h_via_j(g, ff)
        return np.max(np.abs(interior(g, d, 2)))

    # agreement is O(h^2); the narrow bumps make the constant sizable
    assert np.max(np.abs(interior(GRID, direct - via_j, 2))) < \
        2e-2 * np.max(np.abs(interior(GRID, direct, 2)))
    ratio = err(Grid(0.1, 3.0, 146, 16)) / err(GRID)
    assert 2 ** 1.5 <= ratio <= 2 ** 2.5


# -- eigenfunctions -----------------------------------------------------


def test_eigen_residuals():
    for lam in (0.5, 1.0, 2.0):
        for n in (0, 1, 2):
            r = eigen_residual(GRID, SpectralMode(lam, n))
            assert r < 1e-2, (lam, n)   # h = 0.01: residual ~ h^2 scale


def test_eigen_residual_second_order():
    def res(n_theta):
        g = Grid(0.1, 3.0, n_theta, 16)
        return eigen_residual(g, SpectralMode(1.0, 1))

    order = math.log2(res(146) / res(291))
    assert abs(order - 2.0) < 0.3


def test_radial_residual_matches_2d_residual():
    # H on e^{i n phi} R is radial, and the phi sum cancels in the ratio
    igrid = Grid(GRID.theta_min + GRID.h, GRID.theta_max - GRID.h,
                 GRID.n_theta - 2, GRID.n_phi)
    for lam in (0.0, 0.5, 1.0, 2.0):
        for n in (-3, -1, 0, 1, 2, 5):
            mode = SpectralMode(lam, n, normalized=lam > 0)
            psi = sample_mode(GRID, mode)
            r = laplace_beltrami(GRID, psi) - mode.energy() * psi
            want = norm(igrid, interior(GRID, r)) / norm(igrid, interior(GRID, psi))
            assert abs(eigen_residual(GRID, mode) - want) <= 1e-9 * want, (lam, n)


def test_j3_eigenvalue():
    # psi^n has J3 psi = -n psi (J3 = i d_phi on e^{i n phi})
    psi = sample_mode(GRID, SpectralMode(1.0, 2))
    out = apply_j(3, GRID, psi)
    assert np.max(np.abs(out + 2.0 * psi)) < 1e-10 * np.max(np.abs(psi))


def test_j3_is_j_sign_times_quantized_j3():
    # the Dirac table's J3 = x p_y - y p_x quantizes to -i hbar d_phi, so
    # it takes n hbar on e^{i n phi}
    for n, hbar in ((1, 1.0), (-3, 0.7)):
        f = bump(GRID, 1.5, 0.3, n)
        out = J_SIGN * apply_j(3, GRID, f, hbar)
        assert np.max(np.abs(out - n * hbar * f)) < 1e-12 * np.max(np.abs(f))


def test_mode_energy():
    assert SpectralMode(1.0, 0).energy() == pytest.approx(0.625)
    assert SpectralMode(0.0, 0).energy() == pytest.approx(0.125)
    assert SpectralMode(2.0, 1).energy(m=2.0, a=2.0) == energy(2.0, 2.0, 2.0)


def test_phi_orthogonality():
    v = mode_overlap(GRID, SpectralMode(1.0, 0), SpectralMode(1.0, 1))
    assert abs(v) < 1e-12


def test_unresolvable_mode_rejected():
    with pytest.raises(GridError):
        sample_mode(GRID, SpectralMode(1.0, 8))   # n_phi = 16, |n| < 8


def test_negative_lam_rejected():
    with pytest.raises(GridError):
        SpectralMode(-1.0, 0)


def test_gamma_identity():
    for lam in (0.1, 1.0, 5.0, 20.0):
        assert gamma_identity_error(lam) < 1e-10


def test_norm_positive():
    f = _rich(GRID, 10)
    assert norm(GRID, f) > 0
