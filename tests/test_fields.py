import math

import numpy as np
import pytest

from sgdual.fields import (
    GridWindow,
    ModelParams,
    NonDecayingFieldError,
    hamiltonian_S,
    hamiltonian_T,
    make_kink,
    make_vacuum,
    simpson_uniform,
    topological_charges,
)

P11 = ModelParams(m=1.0, beta=1.0)
WIDE = GridWindow(-40.0, 40.0, -40.0, 40.0, 16001, 16001)


def sg_residual_fd(field, x, t, h=1e-4):
    """Finite-difference residual of phi_tt - phi_xx + (m^2/beta) sin(beta phi)."""
    m, beta = field.params.m, field.params.beta
    phi = lambda a, b: float(np.asarray(field.derivative(a, b, 0, 0)))
    phi_tt = (phi(x, t + h) - 2 * phi(x, t) + phi(x, t - h)) / h**2
    phi_xx = (phi(x + h, t) - 2 * phi(x, t) + phi(x - h, t)) / h**2
    return phi_tt - phi_xx + (m * m / beta) * math.sin(beta * phi(x, t))


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(m=-1.0, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(m=1.0, beta=0.0)


def test_vacuum_is_zero_everywhere():
    vac = make_vacuum(P11)
    s = vac.sample(3.2, -1.1)
    assert (s.phi, s.phi_x, s.phi_t) == (0.0, 0.0, 0.0)
    assert sg_residual_fd(vac, 3.2, -1.1) == 0.0
    qm, qp = topological_charges(vac, 0.0, "space")
    assert (qm, qp) == (0, 0)


def test_kink_center_value():
    kink = make_kink(P11, v=0.0, x0=0.0, orientation=1)
    assert abs(kink.sample(0.0, 0.0).phi - math.pi) < 1e-14


def test_kink_velocity_gate():
    with pytest.raises(ValueError):
        make_kink(P11, v=1.0)
    with pytest.raises(ValueError):
        make_kink(P11, v=-1.2)


def test_kink_residual_at_random_points():
    rng = np.random.default_rng(7)
    for params, v, eps in [(P11, 0.0, 1), (P11, 0.6, -1), (ModelParams(2.0, 0.5), -0.3, 1)]:
        kink = make_kink(params, v=v, x0=0.4, orientation=eps)
        for _ in range(20):
            x, t = rng.uniform(-3, 3, size=2)
            assert abs(sg_residual_fd(kink, x, t)) < 1e-6


def test_kink_residual_converges_second_order():
    kink = make_kink(P11, v=0.3, x0=0.0, orientation=1)
    r1 = abs(sg_residual_fd(kink, 0.7, 0.2, h=2e-3))
    r2 = abs(sg_residual_fd(kink, 0.7, 0.2, h=1e-3))
    assert r2 < 1e-5
    assert 3.0 < r1 / r2 < 5.0


def test_kink_analytic_derivatives_match_fd():
    kink = make_kink(P11, v=0.45, x0=-0.3, orientation=-1)
    h = 1e-4
    for dx, dt in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1)]:
        x, t = 0.8, -0.4
        # central difference of the next-lower analytic derivative
        if dx > 0:
            fd = (kink.derivative(x + h, t, dx - 1, dt) - kink.derivative(x - h, t, dx - 1, dt)) / (2 * h)
        else:
            fd = (kink.derivative(x, t + h, dx, dt - 1) - kink.derivative(x, t - h, dx, dt - 1)) / (2 * h)
        assert abs(kink.derivative(x, t, dx, dt) - fd) < 1e-6


def test_simpson_against_known_integral():
    xs = np.linspace(0.0, math.pi, 1001)
    assert abs(simpson_uniform(np.sin(xs), xs[1] - xs[0]) - 2.0) < 1e-10


def test_vacuum_energies_vanish():
    vac = make_vacuum(P11)
    assert float(hamiltonian_S(vac, 0.0, WIDE)) == 0.0
    assert float(hamiltonian_T(vac, 0.0, WIDE)) == 0.0


def test_static_kink_energy():
    kink = make_kink(P11, v=0.0)
    h = hamiltonian_S(kink, 0.0, WIDE)
    assert abs(h.value - 8.0) < 1e-6
    assert not h.truncated


def test_moving_kink_energy_is_boosted():
    kink = make_kink(P11, v=0.6)
    h = hamiltonian_S(kink, 0.0, WIDE)
    assert abs(h.value - 10.0) < 1e-5  # 8 * gamma(0.6)


def test_energy_lorentz_relation():
    e0 = float(hamiltonian_S(make_kink(P11, v=0.0), 0.0, WIDE))
    for v in (0.2, 0.5, 0.8):
        ev = float(hamiltonian_S(make_kink(P11, v=v), 0.0, WIDE))
        gamma = 1.0 / math.sqrt(1.0 - v * v)
        assert abs(ev / e0 - gamma) < 1e-5


def test_hamiltonian_S_time_independent():
    kink = make_kink(P11, v=0.5, x0=0.2)
    a = float(hamiltonian_S(kink, 0.0, WIDE))
    b = float(hamiltonian_S(kink, 1.5, WIDE))
    assert abs(a - b) < 1e-6 * abs(a)


def test_hamiltonian_T_space_independent_and_richardson_stable():
    kink = make_kink(P11, v=0.6)
    a = float(hamiltonian_T(kink, 0.0, WIDE))
    b = float(hamiltonian_T(kink, 1.0, WIDE))
    assert abs(a - b) < 1e-6 * abs(a)
    finer = GridWindow(-40.0, 40.0, -40.0, 40.0, 16001, 32001)
    c = float(hamiltonian_T(kink, 0.0, finer))
    assert abs(a - c) < 1e-6 * abs(a)
    # closed-form check: -8 m gamma |v| / beta^2
    assert abs(a + 8.0 * 1.25 * 0.6) < 1e-5


def test_hamiltonian_T_even_in_velocity():
    a = float(hamiltonian_T(make_kink(P11, v=0.6), 0.0, WIDE))
    b = float(hamiltonian_T(make_kink(P11, v=-0.6), 0.0, WIDE))
    assert abs(a - b) < 1e-8


def test_topological_charges_space():
    kink = make_kink(P11, v=0.5, orientation=1)
    assert topological_charges(kink, 0.0, "space") == (0, 1)
    anti = make_kink(P11, v=0.5, orientation=-1)
    assert topological_charges(anti, 0.0, "space") == (1, 0)


def test_topological_charges_time():
    kink = make_kink(P11, v=0.5, x0=0.0, orientation=1)
    # right of the kink center: the kink has already passed at large t
    assert topological_charges(kink, 2.0, "time") == (1, 0)


def test_static_kink_time_charges_rejected():
    kink = make_kink(P11, v=0.0)
    with pytest.raises(NonDecayingFieldError):
        topological_charges(kink, 0.5, "time")


def test_truncation_flag_on_narrow_window():
    kink = make_kink(P11, v=0.0)
    narrow = GridWindow(-4.0, 4.0, -4.0, 4.0, 801, 801)
    assert hamiltonian_S(kink, 0.0, narrow).truncated


def test_grid_field_bounds_and_order_caps():
    from sgdual.fields import GridField

    xs = np.linspace(-2.0, 2.0, 41)
    ts = np.linspace(-1.0, 1.0, 21)
    values = np.sin(xs)[:, None] * np.cos(ts)[None, :]
    grid = GridField(P11, xs, ts, values)
    assert abs(grid.derivative(0.3, 0.2, 0, 0) - math.sin(0.3) * math.cos(0.2)) < 1e-6
    assert abs(grid.derivative(0.3, 0.2, 1, 0) - math.cos(0.3) * math.cos(0.2)) < 1e-4
    with pytest.raises(ValueError):
        grid.derivative(5.0, 0.0, 0, 0)
    with pytest.raises(ValueError):
        grid.derivative(0.0, 0.0, 6, 0)


def _line_fields():
    from sgdual.fields import GridField

    xs = np.linspace(-2.0, 2.0, 41)
    ts = np.linspace(-1.0, 1.0, 21)
    values = np.sin(xs)[:, None] * np.cos(ts)[None, :]
    kink = make_kink(P11, v=0.4, x0=0.2)
    return [kink, make_vacuum(P11), GridField(P11, xs, ts, values)]


@pytest.mark.parametrize("picture", ["space", "time"])
def test_line_derivatives_match_field_bit_for_bit(picture):
    from sgdual.fields import Line

    s = np.linspace(-0.9, 0.9, 7)
    fixed = 0.35
    for field in _line_fields():
        line = Line(field, picture, fixed)
        other = np.full_like(s, fixed)
        x, t = (s, other) if picture == "space" else (other, s)
        got, want = line.at(s), field.sample(x, t)
        for name in ("phi", "phi_x", "phi_t"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for j in range(4):
            for cross in (0, 1):
                dx, dt = (j, cross) if picture == "space" else (cross, j)
                want = np.asarray(field.derivative(x, t, dx, dt))
                assert np.array_equal(np.asarray(line.partial(s, j, cross)), want)


def test_line_generator_and_normaliser_follow_the_picture():
    from sgdual.fields import Line
    from sgdual.lax import ce0, e0, hat_entries, spectral

    sp = spectral(1.3, P11)
    s = np.linspace(-0.9, 0.9, 7)
    other = np.full_like(s, 0.35)
    for field in _line_fields():
        space, time = Line(field, "space", 0.35), Line(field, "time", 0.35)
        for line, picture, x, t in ((space, "space", s, other), (time, "time", other, s)):
            want = hat_entries(picture, field.sample(x, t), sp, field.params)
            for got_entry, want_entry in zip(line.generator_entries(s, sp), want, strict=True):
                assert np.array_equal(got_entry, want_entry)
        assert np.array_equal(space.normaliser(-0.7, sp), e0(-0.7, sp))
        assert np.array_equal(time.normaliser(-0.7, sp), ce0(-0.7, sp))


@pytest.mark.parametrize("picture", ["space", "time"])
@pytest.mark.parametrize("lam", [0.37, 1.3 + 0.2j])
def test_generator_entries_of_three_node_rows_equal_three_row_calls(picture, lam):
    # the Magnus stepper samples its three Gauss nodes in one call on a (3, n) array
    from sgdual.fields import Line
    from sgdual.lax import spectral

    line = Line(make_kink(P11, v=-0.6, x0=0.3), picture, 0.2)
    sp = spectral(lam, P11)
    nodes = np.linspace(-35.0, 35.0, 3 * 1001).reshape(3, 1001)
    got = line.generator_entries(nodes, sp)
    assert got.shape == (3, 3, 1001)
    for i in range(3):
        assert np.array_equal(got[:, i], line.generator_entries(nodes[i], sp))


def test_arctan_exp_matches_the_masked_branches_bitwise():
    from sgdual.fields import _arctan_exp

    u = np.random.default_rng(5).uniform(-800.0, 800.0, 100_000)
    u[:6] = [-30.0, 30.0, 0.0, -29.9, 30.1, -800.0]
    want = np.arctan(np.exp(np.clip(u, -30.0, 30.0)))
    want[u > 30.0] = 0.5 * math.pi - np.exp(-u[u > 30.0])
    want[u < -30.0] = np.exp(u[u < -30.0])
    assert np.array_equal(_arctan_exp(u), want)
    assert np.array_equal(_arctan_exp(u.reshape(100, 1000)), want.reshape(100, 1000))
    assert _arctan_exp(3.0) == np.arctan(np.exp(3.0))


def test_line_rejects_unknown_picture_at_construction():
    from sgdual.fields import Line

    with pytest.raises(ValueError, match="unknown picture"):
        Line(make_vacuum(P11), "spacetime", 0.0)
