"""Hyperboloid chart, metric, Christoffels, Killing fields, curvature."""

import math

import numpy as np
import pytest

from hyperboloid import geometry
from hyperboloid.geometry import (
    ChartError, ChartPoint, ambient_killing, chart_inverse, chart_jacobian,
    christoffel, embed, induced_metric, inner, killing_fields,
    killing_pushforward, lower, scalar_curvature,
)

rng = np.random.default_rng(11)


def test_apex():
    assert np.allclose(embed(ChartPoint(0.0, 0.7), 1.0), [0, 0, 1])


def test_embed_direct():
    v = embed(ChartPoint(1.0, 0.0), 2.0)
    assert np.allclose(v, [2 * math.sinh(1), 0, 2 * math.cosh(1)])


def test_embed_on_surface():
    for _ in range(100):
        p = ChartPoint(rng.uniform(0, 3), rng.uniform(0, 2 * math.pi))
        a = rng.uniform(0.5, 3)
        v = embed(p, a)
        assert abs(inner(v, v) + a * a) < 1e-12 * a * a


def test_negative_theta_rejected():
    with pytest.raises(ChartError):
        ChartPoint(-0.1, 0.0)


def test_chart_inverse_roundtrip():
    for _ in range(50):
        p = ChartPoint(rng.uniform(0.01, 3), rng.uniform(0, 2 * math.pi))
        a = rng.uniform(0.5, 3)
        q = chart_inverse(embed(p, a), a)
        assert abs(q.theta - p.theta) < 1e-12
        assert abs((q.phi - p.phi + math.pi) % (2 * math.pi) - math.pi) < 1e-10


def test_chart_inverse_apex_convention():
    q = chart_inverse(np.array([0.0, 0.0, 2.0]), 2.0)
    assert q.theta == 0.0 and q.phi == 0.0


def test_chart_inverse_rejects_off_surface_and_wrong_sheet():
    with pytest.raises(ChartError):
        chart_inverse(np.array([1.0, 1.0, 1.0]), 1.0)
    with pytest.raises(ChartError):
        chart_inverse(np.array([0.0, 0.0, -1.0]), 1.0)


def test_metric_positive_definite():
    for theta in (0.1, 1.0, 2.5):
        w = np.linalg.eigvalsh(induced_metric(theta, 1.3))
        assert np.all(w > 0)


def test_christoffel_closed_form():
    p = ChartPoint(1.0, 0.3)
    g = christoffel(p)
    assert g[0, 1, 1] == pytest.approx(-math.sinh(1) * math.cosh(1))
    assert g[1, 0, 1] == pytest.approx(math.cosh(1) / math.sinh(1))
    assert g[1, 0, 1] == g[1, 1, 0]
    assert g[0, 0, 0] == 0.0


def test_christoffel_fd_oracle():
    # Gamma^i_jk = (1/2) g^il (d_j g_lk + d_k g_lj - d_l g_jk); the
    # metric depends on theta only
    h = 1e-6
    for theta in (0.4, 1.1, 2.0):
        a = 1.7
        g = induced_metric(theta, a)
        dg = (induced_metric(theta + h, a) - induced_metric(theta - h, a)) / (2 * h)
        ginv = np.linalg.inv(g)
        gamma_fd = np.zeros((2, 2, 2))
        dgel = np.zeros((2, 2, 2))   # d_c g_ab with c = 0 only
        dgel[0] = dg
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    gamma_fd[i, j, k] = 0.5 * sum(
                        ginv[i, l] * (dgel[j][l, k] + dgel[k][l, j] - dgel[l][j, k])
                        for l in range(2))
        assert np.allclose(gamma_fd, christoffel(ChartPoint(theta, 0.5)), atol=1e-8)


def test_christoffel_singular_at_apex():
    with pytest.raises(ChartError):
        christoffel(ChartPoint(0.0, 0.0))


def test_killing_k3():
    assert np.allclose(killing_fields(ChartPoint(0.8, 2.0))[2], [0, 1])


def test_killing_equation_fd():
    h = 1e-5
    for _ in range(50):
        theta = rng.uniform(0.3, 2.5)
        phi = rng.uniform(0, 2 * math.pi)
        a = rng.uniform(0.5, 2)
        gamma = christoffel(ChartPoint(theta, phi))

        def k_low(t, p_, i):
            return induced_metric(t, a) @ killing_fields(ChartPoint(t, p_))[i]

        for i in range(3):
            dk = np.zeros((2, 2))
            dk[0] = (k_low(theta + h, phi, i) - k_low(theta - h, phi, i)) / (2 * h)
            dk[1] = (k_low(theta, phi + h, i) - k_low(theta, phi - h, i)) / (2 * h)
            cov = dk - np.einsum("cab,c->ab", gamma, k_low(theta, phi, i))
            assert np.max(np.abs(cov + cov.T)) < 1e-7


def test_pushforward_tangent():
    for _ in range(30):
        p = ChartPoint(rng.uniform(0.1, 3), rng.uniform(0, 2 * math.pi))
        a = rng.uniform(0.5, 2)
        v = embed(p, a)
        for k in killing_pushforward(p, a):
            assert abs(inner(v, k)) < 1e-10


def test_pushforward_matches_ambient_generators():
    for _ in range(30):
        p = ChartPoint(rng.uniform(0.2, 3), rng.uniform(0, 2 * math.pi))
        a = rng.uniform(0.5, 2)
        kk = killing_pushforward(p, a)
        v = embed(p, a)
        for i in range(3):
            assert np.allclose(kk[i], ambient_killing(i + 1, v), atol=1e-10)


def test_jacobian_columns_span_tangent():
    p = ChartPoint(1.2, 0.4)
    jac = chart_jacobian(p, 1.5)
    v = embed(p, 1.5)
    for col in jac.T:
        assert abs(inner(v, col)) < 1e-12


def test_scalar_curvature():
    assert scalar_curvature(1.0) == pytest.approx(-2.0, abs=1e-6)
    assert scalar_curvature(2.0) == pytest.approx(-0.5, abs=1e-6)
    for a in (0.3, 1.7, 5.0):
        assert scalar_curvature(a) < 0
        assert scalar_curvature(a) == pytest.approx(-2 / a ** 2, rel=1e-5)


def test_index_conventions():
    u, v = np.array([1.0, 2.0, 3.0]), np.array([-2.0, 0.5, 4.0])
    # eps_{ijk} u^j v^k is the cross product, eps_{123} = +1
    assert np.array_equal(np.einsum("ijk,j,k->i", geometry.EPS, u, v), np.cross(u, v))
    # raising all three indices with the metric negates it
    eta = geometry.METRIC
    assert np.array_equal(np.einsum("ijk,i,j,k->ijk", geometry.EPS, eta, eta, eta),
                          -geometry.EPS)


def test_lower_and_inner():
    u = np.array([1.0, 2.0, 3.0])
    assert np.allclose(lower(u), [1, 2, -3])
    assert inner(u, u) == pytest.approx(1 + 4 - 9)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.float32, np.int64])
def test_lower_contract(dtype):
    # the dtype is kept, (N, 3) stacks flip the last slot, the input is untouched
    for shape in ((3,), (4, 3)):
        v = np.arange(1, 1 + math.prod(shape)).reshape(shape).astype(dtype)
        before = v.copy()
        got = lower(v)
        assert got.dtype == v.dtype and got.shape == v.shape
        want = v.copy()
        want[..., 2] = -want[..., 2]
        assert np.array_equal(got, want)
        assert np.array_equal(v, before)
        assert np.array_equal(lower(got), v)   # the metric is its own inverse
        got[..., 0] = 0                         # the result is a fresh array
        assert np.array_equal(lower(v), want)
