"""Grid operators for the quantum representation on the hyperboloid.

Functions live on a tensor grid, theta uniform on [theta_min, theta_max]
with Dirichlet truncation, phi uniform periodic.  The phi derivative is
spectral (FFT), so all O(h^2) error comes from the theta stencil.  The
generators are the Killing fields times i*hbar:

    J1 = i hbar ( sin(phi) d_theta + cos(phi) coth(theta) d_phi)
    J2 = i hbar (-cos(phi) d_theta + sin(phi) coth(theta) d_phi)
    J3 = i hbar d_phi

These are J_SIGN times the quantized J^i of the Dirac table
(geometry.J_SIGN = -1): the table's J^3 = x p_y - y p_x quantizes to
-i hbar d_phi.  The Hamiltonian is -hbar^2/(2 m a^2) times the
Laplace-Beltrami operator of the induced metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conical import (
    N_MAX_DEFAULT, ConicalError, complex_gamma, energy, normalization,
    profile_row, radial_profiles,
)
from .geometry import EPS, J_SIGN, METRIC


class GridError(Exception):
    pass


@dataclass(frozen=True)
class Grid:
    """Tensor grid; theta includes both endpoints, phi excludes 2*pi."""

    theta_min: float
    theta_max: float
    n_theta: int
    n_phi: int

    def __post_init__(self):
        if self.theta_min <= 0:
            raise GridError(f"theta_min must be > 0, got {self.theta_min}")
        if self.theta_max <= self.theta_min:
            raise GridError("theta_max must exceed theta_min")
        if self.n_theta < 3:
            raise GridError("need at least 3 theta nodes")
        if self.n_phi < 4 or self.n_phi % 2:
            raise GridError("n_phi must be even and >= 4")

    @property
    def h(self) -> float:
        return (self.theta_max - self.theta_min) / (self.n_theta - 1)

    @property
    def dphi(self) -> float:
        return 2 * math.pi / self.n_phi

    @property
    def theta(self) -> np.ndarray:
        return np.linspace(self.theta_min, self.theta_max, self.n_theta)

    @property
    def phi(self) -> np.ndarray:
        return np.arange(self.n_phi) * self.dphi

    def mesh(self):
        return np.meshgrid(self.theta, self.phi, indexing="ij")

    def embedding(self, a: float):
        """Ambient coordinate arrays (x, y, z) over the grid."""
        th, ph = self.mesh()
        sh = np.sinh(th)
        return a * np.cos(ph) * sh, a * np.sin(ph) * sh, a * np.cosh(th)


def inner_product(grid: Grid, f, g) -> complex:
    """<f, g> = sum conj(f) g sinh(theta) dtheta dphi.

    Approximates the invariant measure d(cosh theta) dphi.
    """
    w = np.sinh(grid.theta)[:, None]
    return complex(np.sum(np.conj(f) * g * w) * grid.h * grid.dphi)


def norm(grid: Grid, f) -> float:
    return math.sqrt(max(inner_product(grid, f, f).real, 0.0))


def _d_phi(grid: Grid, f):
    k = np.fft.fftfreq(grid.n_phi, d=1.0 / grid.n_phi)
    return np.fft.ifft(1j * k * np.fft.fft(f, axis=1), axis=1)


def _d2_phi(grid: Grid, f):
    k = np.fft.fftfreq(grid.n_phi, d=1.0 / grid.n_phi)
    return np.fft.ifft(-(k * k) * np.fft.fft(f, axis=1), axis=1)


def _d_theta(grid: Grid, f):
    """O(h^2) theta derivative, skew-adjusted for the sinh weight.

    A f - (coth/2) f with A the weight-averaged antisymmetric stencil
    (w_i A_ij = -w_j A_ji, w = sinh theta).  This makes J^1, J^2 exactly
    hermitian under inner_product: the i sin(phi) (A - coth/2) part has
    hermiticity defect +i sin(phi) coth which cancels the defect of the
    spectral i cos(phi) coth d_phi part exactly (phi products of
    bandlimited data alias-free).  Dirichlet ghosts; edge rows are not
    consistent and are excluded from assertions via interior().
    """
    f = np.asarray(f, dtype=complex)
    w = np.sinh(grid.theta)[:, None]
    out = np.zeros_like(f)
    out[1:-1] = ((w[1:-1] + w[2:]) * f[2:]
                 - (w[1:-1] + w[:-2]) * f[:-2]) / (4 * grid.h * w[1:-1])
    coth = (np.cosh(grid.theta) / np.sinh(grid.theta))[:, None]
    return out - 0.5 * coth * f


def interior(grid: Grid, f, margin: int = 1):
    """Rows unaffected by the boundary treatment."""
    return f[margin:-margin]


def _lap_theta(grid: Grid, f):
    """(1/sinh) d_th sinh d_th f along axis 0 of an (n_theta, k) array.

    Conservative stencil: the half-point difference of sinh(theta) d_theta f,
    summation-by-parts hermitian under inner_product.  Dirichlet (ghost
    zero) at both theta ends.
    """
    th, dh = grid.theta[:, None], 0.5 * grid.h
    sh, sh_plus, sh_minus = np.sinh(th), np.sinh(th + dh), np.sinh(th - dh)
    f = np.asarray(f, dtype=complex)
    up = np.vstack([f[1:], np.zeros((1, f.shape[1]))])
    down = np.vstack([np.zeros((1, f.shape[1])), f[:-1]])
    return (sh_plus * (up - f) - sh_minus * (f - down)) / (grid.h ** 2 * sh)


def laplace_beltrami(grid: Grid, f, a: float = 1.0, m: float = 1.0,
                     hbar: float = 1.0):
    """H f = -hbar^2/(2 m a^2) (1/sinh d_th sinh d_th + 1/sinh^2 d_phi^2) f."""
    lap_ph = _d2_phi(grid, f) / np.sinh(grid.theta)[:, None] ** 2
    return -(hbar * hbar) / (2 * m * a * a) * (_lap_theta(grid, f) + lap_ph)


def apply_j(i: int, grid: Grid, f, hbar: float = 1.0):
    """J^i f for i in {1, 2, 3}."""
    f = np.asarray(f, dtype=complex)
    if i == 3:
        return 1j * hbar * _d_phi(grid, f)
    th, ph = grid.mesh()
    coth = np.cosh(th) / np.sinh(th)
    ft = _d_theta(grid, f)
    fp = _d_phi(grid, f)
    if i == 1:
        return 1j * hbar * (np.sin(ph) * ft + np.cos(ph) * coth * fp)
    if i == 2:
        return 1j * hbar * (-np.cos(ph) * ft + np.sin(ph) * coth * fp)
    raise GridError(f"generator index must be 1, 2 or 3, got {i}")


def apply_p(i: int, grid: Grid, f, a: float = 1.0, hbar: float = 1.0,
            drop_hermitian_term: bool = False):
    """p_i f = (1/a^2) eps_{ijk} x^j (J^k f) - (i hbar/a^2) x_i f.

    J^k is the quantized generator, J_SIGN * apply_j(k), and x_i the
    lowered embedding coordinate (x_3 = -z).  The x term is the
    symmetrization correction that makes p_i hermitian;
    drop_hermitian_term omits it (negative control, breaks hermiticity).
    """
    x = grid.embedding(a)
    out = J_SIGN * sum(EPS[i - 1, j, k] * x[j] * apply_j(k + 1, grid, f, hbar)
                       for j in range(3) for k in range(3) if EPS[i - 1, j, k]) / (a * a)
    if not drop_hermitian_term:
        x_low = METRIC[i - 1] * x[i - 1]
        out = out - 1j * hbar / (a * a) * x_low * np.asarray(f, dtype=complex)
    return out


def apply_h_via_j(grid: Grid, f, a: float = 1.0, m: float = 1.0,
                  hbar: float = 1.0):
    """H f = J^i J_i f / (2 m a^2), J_i = METRIC[i] J^i."""
    total = sum(METRIC[i - 1] * apply_j(i, grid, apply_j(i, grid, f, hbar), hbar)
                for i in range(1, 4))
    return total / (2 * m * a * a)


def casimir_xj(grid: Grid, f, a: float = 1.0, hbar: float = 1.0):
    """x^j J_j f, zero in the continuum (second Casimir constraint)."""
    x = grid.embedding(a)
    return sum(METRIC[j - 1] * x[j - 1] * apply_j(j, grid, f, hbar)
               for j in range(1, 4))


# -- eigenfunctions -----------------------------------------------------


@dataclass(frozen=True)
class SpectralMode:
    """Energy eigenfunction label: psi^n_lam = N e^{i n phi} P^n(cosh th)."""

    lam: float
    n: int
    normalized: bool = True

    def __post_init__(self):
        if self.lam < 0:
            raise GridError(f"lam must be >= 0, got {self.lam}")

    def energy(self, m: float = 1.0, a: float = 1.0, hbar: float = 1.0) -> float:
        return energy(self.lam, m, a, hbar)


def sample_modes(grid: Grid, lam: float, ns, normalized: bool = True):
    """Yield N P^n_lam(cosh theta), psi^n_lam at phi = 0, as a complex
    (n_theta, 1) column for each n in ns, from one radial_profiles pass.
    """
    ns = list(ns)
    for n in ns:
        if abs(n) >= grid.n_phi // 2:
            raise GridError(f"|n| = {abs(n)} unresolvable at n_phi = {grid.n_phi}")
        if abs(n) > N_MAX_DEFAULT:
            raise ConicalError(f"|n| = {abs(n)} exceeds n_max = {N_MAX_DEFAULT}")
    profiles = radial_profiles(lam, max(abs(n) for n in ns), grid.theta)
    for n in ns:
        f = profile_row(profiles, lam, n).astype(complex)[:, None]
        if normalized and lam > 0:
            f *= normalization(lam, n)
        yield f


def sample_mode(grid: Grid, mode: SpectralMode) -> np.ndarray:
    f = next(sample_modes(grid, mode.lam, [mode.n], mode.normalized))
    return f * np.exp(1j * mode.n * grid.phi)[None, :]


def eigen_residual(grid: Grid, mode: SpectralMode, a: float = 1.0,
                   m: float = 1.0, hbar: float = 1.0, psi=None) -> float:
    """||H psi - E psi|| / ||psi|| over interior nodes, H radial (d_phi^2 = -n^2).

    psi is the column of sample_modes (sampled when omitted) or sample_mode's array.
    """
    if psi is None:
        psi = next(sample_modes(grid, mode.lam, [mode.n], mode.normalized))
    lap = _lap_theta(grid, psi) - mode.n ** 2 * psi / np.sinh(grid.theta)[:, None] ** 2
    r = -(hbar * hbar) / (2 * m * a * a) * lap - mode.energy(m, a, hbar) * psi
    ri, pi = interior(grid, r), interior(grid, psi)
    igrid = Grid(grid.theta_min + grid.h, grid.theta_max - grid.h,
                 grid.n_theta - 2, grid.n_phi)
    return norm(igrid, ri) / norm(igrid, pi)


def mode_overlap(grid: Grid, m1: SpectralMode, m2: SpectralMode) -> complex:
    """Discrete <psi1, psi2>; exact 0 for n1 != n2 by phi orthogonality.

    For n1 = n2 and lam1 != lam2 this is a finite-window overlap; the
    continuum delta normalization is not reproducible on a finite grid,
    so the value is reported rather than asserted.
    """
    return inner_product(grid, sample_mode(grid, m1), sample_mode(grid, m2))


def gamma_identity_error(lam: float) -> float:
    """| |Gamma(1/2 + i lam)|^2 - pi/cosh(pi lam) | relative."""
    val = abs(complex_gamma(complex(0.5, lam))) ** 2
    ref = math.pi / math.cosh(math.pi * lam)
    return abs(val - ref) / ref


def bump(grid: Grid, theta0: float, width: float, n: int = 1) -> np.ndarray:
    """Smooth test function concentrated away from the boundaries."""
    th, ph = grid.mesh()
    env = np.exp(-((th - theta0) / width) ** 2)
    return env * np.exp(1j * n * ph)
