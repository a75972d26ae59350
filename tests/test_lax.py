import math

import numpy as np
import pytest

from sgdual.fields import FieldEvaluator, ModelParams, make_kink, make_vacuum
from sgdual.lax import (
    build_U,
    build_V,
    ce0,
    e0,
    hat_entries,
    spectral,
    zero_curvature_residual,
)
from sgdual.matcore import SIGMA1, SIGMA2, SIGMA3, _stack22, frob, inv2

P11 = ModelParams(1.0, 1.0)


def u_inf(sp):
    return -1j * sp.k1 * SIGMA2  # the space generator on a vacuum


def v_inf(sp):
    return -1j * sp.k0 * SIGMA2  # the time generator on a vacuum


def omega(beta, phi):
    """Gauge factor exp(i beta phi s3 / 4)."""
    return np.diag([np.exp(0.25j * beta * phi), np.exp(-0.25j * beta * phi)])


def hat(picture, field, x, t, sp):
    """U_hat (space) or V_hat (time), stacked from the entries of hat_entries."""
    d, a01, a10 = hat_entries(picture, field.sample(x, t), sp, field.params)
    return _stack22(d, a01, a10, -d)


class NotASolution(FieldEvaluator):
    """Smooth field that does not solve the equation of motion."""

    kind = "bogus"
    params = P11

    def derivative(self, x, t, dx, dt):
        # phi = sin(x) cos(2 t)
        fx = [np.sin, np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u)][dx % 4](np.asarray(x, float))
        ft = [np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u), np.sin][dt % 4](2.0 * np.asarray(t, float))
        return fx * ft * 2.0**dt


@pytest.mark.parametrize("picture", ["space", "time"])
@pytest.mark.parametrize("lam", [0.37, 2.5, 1.3 + 0.2j, -0.8j])
def test_hat_entries_equal_the_plain_formulas_bitwise(picture, lam):
    # hat_entries works in place in its output; the entries must be the formulas' own roundings
    lam = complex(lam)
    kink = make_kink(ModelParams(1.3, -0.7), v=0.5, x0=0.2)
    x = np.linspace(-20.0, 20.0, 2001).reshape(3, 667)
    sample = kink.sample(x, 0.4)
    sp = spectral(lam, kink.params)
    m, beta = kink.params.m, kink.params.beta
    if picture == "space":
        d = -0.25j * beta * (sample.phi_x + sample.pi)
        zeta = m / (4.0 * lam)
    else:
        d = -0.25j * beta * (sample.phi_t - sample.Pi)
        zeta = -m / (4.0 * lam)
    e_plus = np.cos(beta * sample.phi) + 1j * np.sin(beta * sample.phi)
    got = hat_entries(picture, sample, sp, kink.params)
    assert got.shape == (3, 3, 667)
    assert np.array_equal(got[0], d)
    assert np.array_equal(got[1], -lam * (m / 4.0) + zeta * e_plus.conj())
    assert np.array_equal(got[2], lam * (m / 4.0) - zeta * e_plus)


@pytest.mark.parametrize("m, beta", [(1.0, 1.0), (1.3, -0.7), (0.5, 2.0)])
@pytest.mark.parametrize("v", [0.4, -0.9, 0.0, None], ids=["kink0.4", "kink-0.9", "kink0", "vacuum"])
def test_both_pictures_share_the_diagonal_bitwise(m, beta, v):
    # pi = phi_t and Pi = -phi_x, so phi_x + pi and phi_t - Pi are one sum: only zeta tells U_hat from V_hat
    params = ModelParams(m, beta)
    field = make_vacuum(params) if v is None else make_kink(params, v=v, x0=0.2)
    sp = spectral(0.7, params)
    for sample in (field.sample(np.linspace(-6.0, 6.0, 61), 0.4), field.sample(0.3, -0.2)):
        space, time = (hat_entries(picture, sample, sp, params) for picture in ("space", "time"))
        assert space[0].tobytes() == time[0].tobytes()


def test_spectral_values():
    sp = spectral(1.0, P11)
    assert sp.k0 == 0.5 and sp.k1 == 0.0
    sp = spectral(2.0, P11)
    assert abs(sp.k0 - 0.625) < 1e-15 and abs(sp.k1 - 0.375) < 1e-15


def test_spectral_identity_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        lam = complex(rng.uniform(0.1, 4.0), rng.uniform(-1.0, 1.0))
        sp = spectral(lam, ModelParams(1.7, 1.0))
        assert abs(sp.k0**2 - sp.k1**2 - 1.7**2 / 4.0) < 1e-12


def test_spectral_zero_rejected():
    with pytest.raises(ValueError):
        spectral(0.0, P11)


def test_U_vacuum():
    got = build_U(make_vacuum(P11), 0.3, -2.0, spectral(2.0, P11))
    assert np.allclose(got, np.array([[0.0, -0.375], [0.375, 0.0]]), atol=1e-15)


def test_V_vacuum():
    got = build_V(make_vacuum(P11), 0.0, 0.0, spectral(1.0, P11))
    assert np.allclose(got, -0.5j * SIGMA2, atol=1e-15)


def test_lax_builders_traceless():
    kink = make_kink(P11, v=0.35, x0=0.1)
    sp = spectral(1.4 + 0.2j, P11)
    mats = [build(kink, 0.5, -0.7, sp) for build in (build_U, build_V)]
    mats += [hat(picture, kink, 0.5, -0.7, sp) for picture in ("space", "time")]
    for mat in mats:
        assert abs(mat[0, 0] + mat[1, 1]) < 1e-15


def test_U_term_by_term_on_kink():
    kink = make_kink(P11, v=0.35, x0=0.1)
    sp = spectral(1.7, P11)
    x, t = 0.4, -0.2
    s = kink.sample(x, t)
    expected = (
        -0.25j * s.pi * SIGMA3
        - 1j * sp.k0 * math.sin(0.5 * s.phi) * SIGMA1
        - 1j * sp.k1 * math.cos(0.5 * s.phi) * SIGMA2
    )
    assert frob(build_U(kink, x, t, sp) - expected) < 1e-14


def test_V_is_U_with_swapped_roles():
    kink = make_kink(P11, v=0.35, x0=0.1)
    sp = spectral(1.7, P11)
    x, t = 0.4, -0.2
    s = kink.sample(x, t)
    expected = (
        0.25j * s.Pi * SIGMA3
        - 1j * sp.k1 * math.sin(0.5 * s.phi) * SIGMA1
        - 1j * sp.k0 * math.cos(0.5 * s.phi) * SIGMA2
    )
    assert frob(build_V(kink, x, t, sp) - expected) < 1e-14


def test_hat_matrices_vacuum_are_asymptotic():
    vac = make_vacuum(P11)
    sp = spectral(1.3, P11)
    assert frob(hat("space", vac, 1.0, 2.0, sp) - u_inf(sp)) < 1e-15
    assert frob(hat("time", vac, 1.0, 2.0, sp) - v_inf(sp)) < 1e-15


def test_gauge_consistency_by_finite_differences():
    # U_hat must equal Om^-1 U Om - Om^-1 dOm/dx with dOm/dx by central FD
    kink = make_kink(P11, v=0.45, x0=-0.2)
    sp = spectral(0.9, P11)
    beta = P11.beta
    x, t, h = 0.6, 0.3, 1e-5
    om = omega(beta, kink.sample(x, t).phi)
    om_p = omega(beta, kink.sample(x + h, t).phi)
    om_m = omega(beta, kink.sample(x - h, t).phi)
    gauge = inv2(om) @ build_U(kink, x, t, sp) @ om - inv2(om) @ ((om_p - om_m) / (2 * h))
    assert frob(gauge - hat("space", kink, x, t, sp)) < 1e-8

    om_tp = omega(beta, kink.sample(x, t + h).phi)
    om_tm = omega(beta, kink.sample(x, t - h).phi)
    gauge_t = inv2(om) @ build_V(kink, x, t, sp) @ om - inv2(om) @ ((om_tp - om_tm) / (2 * h))
    assert frob(gauge_t - hat("time", kink, x, t, sp)) < 1e-8


def test_hat_matrices_large_lambda_dominated_by_sigma2():
    kink = make_kink(P11, v=0.2)
    lam = 1e6
    sp = spectral(lam, P11)
    got = hat("space", kink, 0.3, 0.1, sp)
    assert frob(got - (-1j * lam * 0.25 * SIGMA2)) / lam < 1e-6


def test_hat_matrices_decay_to_constants():
    kink = make_kink(P11, v=0.5, x0=0.0)
    sp = spectral(1.1, P11)
    for x in (-30.0, 30.0):
        assert frob(hat("space", kink, x, 0.0, sp) - u_inf(sp)) < 1e-10
        assert frob(hat("time", kink, x, 0.0, sp) - v_inf(sp)) < 1e-10
    for t in (-60.0, 60.0):
        assert frob(hat("space", kink, 0.0, t, sp) - u_inf(sp)) < 1e-10


def test_normalisers_solve_asymptotic_problems():
    sp = spectral(1.6, P11)
    h = 1e-6
    for x in (0.0, 2.3):
        fd = (e0(x + h, sp) - e0(x - h, sp)) / (2 * h)
        assert frob(fd - u_inf(sp) @ e0(x, sp)) < 1e-8
    for t in (0.0, -1.1):
        fd = (ce0(t + h, sp) - ce0(t - h, sp)) / (2 * h)
        assert frob(fd - v_inf(sp) @ ce0(t, sp)) < 1e-8


def test_n_matrix_diagonalises_sigma2():
    n = e0(0.0, spectral(1.6, P11))  # E0(0) = N
    assert frob(inv2(n) @ SIGMA2 @ n - SIGMA3) < 1e-15


def test_charge_dressed_normalisers():
    from sgdual.lax import ce_charged

    sp = spectral(1.6, P11)
    h = 1e-6
    for q in (0, 1, 2):
        sign = (-1.0) ** q
        fd_t = (ce_charged(-0.2 + h, sp, q) - ce_charged(-0.2 - h, sp, q)) / (2 * h)
        assert frob(fd_t - sign * v_inf(sp) @ ce_charged(-0.2, sp, q)) < 1e-8


def test_zero_curvature_vacuum():
    assert zero_curvature_residual(make_vacuum(P11), 0.0, 0.0, spectral(1.2, P11), 1e-3) < 1e-14


def test_zero_curvature_kink_converges_second_order():
    kink = make_kink(P11, v=0.4, x0=0.0)
    sp = spectral(1.2, P11)
    r1 = zero_curvature_residual(kink, 0.5, 0.1, sp, 1e-3)
    r2 = zero_curvature_residual(kink, 0.5, 0.1, sp, 5e-4)
    assert r1 < 1e-5
    assert 3.0 < r1 / r2 < 5.0


def test_zero_curvature_detects_non_solution():
    assert zero_curvature_residual(NotASolution(), 0.5, 0.3, spectral(1.2, P11), 1e-3) > 1e-2
