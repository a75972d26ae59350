import math

import numpy as np
import pytest

from sgdual.fields import FieldEvaluator, GridWindow, KinkField, Line, ModelParams, make_kink, make_vacuum
from sgdual.charges import (
    build_ledger,
    energy_identity,
    fit_charges_from_monodromy,
    lna_asymptotic_fit,
    riccati_residuals,
)

P11 = ModelParams(1.0, 1.0)
WIDE = GridWindow(40.0, 16001)

# closed-form oracle for the +1-oriented kink: a(lambda) = (lam - i mu)/(lam + i mu)
# with mu = sqrt((1-v)/(1+v)), hence I_1 = -2 mu, I_3 = 2 mu^3/3, I_{-1} = 2/mu,
# I_{-3} = -2/(3 mu^3), I_0 = -pi, and all even charges zero.


def blaschke_mu(v):
    return math.sqrt((1.0 - v) / (1.0 + v))


@pytest.fixture(scope="module")
def kink_space_ledger():
    kink = make_kink(P11, v=0.4)
    return kink, build_ledger(kink, "space", 0.0, 4, WIDE)


@pytest.fixture(scope="module")
def kink_time_ledger():
    kink = make_kink(P11, v=0.6)
    return kink, build_ledger(kink, "time", 0.0, 4, WIDE)


def test_vacuum_residuals_vanish():
    # Gamma = i sigma1 solves the vacuum's Riccati equation exactly, at every lambda and in both pictures
    pts = np.array([-1.0, 0.0, 2.0])
    for picture in ("space", "time"):
        res = riccati_residuals(make_vacuum(P11), picture, 0.0, 4, [0.5, 2.0, 25.0, 40.0 + 3.0j], pts)
        assert len(res) == 4 and max(res) < 1e-14


# off the real axis the (1,2) residual no longer equals the (2,1) one, so the conjugated p chain is checked on its own
LAMBDA_PAIRS = [(25.0, 50.0), (25.0 + 3.0j, 50.0 + 6.0j)]


def test_riccati_residual_scales_with_truncation_order():
    kink = make_kink(P11, v=0.4)
    pts = np.linspace(-3.0, 3.0, 7)
    for lam25, lam50 in LAMBDA_PAIRS:
        r25, r50 = riccati_residuals(kink, "space", 0.0, 3, [lam25, lam50], pts)
        # truncation at order N leaves an O(lambda^-N) defect
        assert 2.3 <= math.log2(r25 / r50) <= 3.7
        [r50_4] = riccati_residuals(kink, "space", 0.0, 4, [lam50], pts)
        assert 50.0 / 3.0 < r50 / r50_4 < 3.0 * 50.0


def test_riccati_residual_time_picture():
    kink = make_kink(P11, v=0.6)
    for lam25, lam50 in LAMBDA_PAIRS:
        r25, r50 = riccati_residuals(kink, "time", 0.0, 3, [lam25, lam50], np.linspace(-2.0, 2.0, 5))
        assert 2.3 <= math.log2(r25 / r50) <= 3.7


@pytest.mark.parametrize("picture", ["space", "time"])
def test_riccati_residuals_equal_one_lambda_calls_bitwise(picture):
    kink, pts = make_kink(P11, v=0.6), np.linspace(-2.0, 2.0, 5)
    lams = [25.0, 50.0, 30.0 + 4.0j]
    want = [riccati_residuals(kink, picture, 0.0, 3, [lam], pts)[0] for lam in lams]
    assert riccati_residuals(kink, picture, 0.0, 3, lams, pts) == want


def test_riccati_residuals_take_the_field_partials_once_for_all_lambdas(monkeypatch):
    partials, calls = Line.partials, []

    def counting(line, s, orders):
        calls.append(list(orders))  # one jet pass, and the orders it takes
        return partials(line, s, orders)

    monkeypatch.setattr(Line, "partials", counting)
    kink, pts = make_kink(P11, v=0.4), np.linspace(-3.0, 3.0, 7)
    passes = []
    for lams in ([25.0], [25.0, 50.0, 75.0]):
        calls.clear()
        riccati_residuals(kink, "space", 0.0, 3, lams, pts)
        passes.append(list(calls))
    assert passes[0] == passes[1] and len(passes[0]) == 1 and len(passes[0][0]) > 0


def test_riccati_residuals_sample_the_field_once_for_all_lambdas(monkeypatch):
    sample, shapes = KinkField.sample, []

    def counting(field, x, t):
        shapes.append(np.broadcast(x, t).shape)
        return sample(field, x, t)

    monkeypatch.setattr(KinkField, "sample", counting)
    pts = np.linspace(-3.0, 3.0, 7)
    riccati_residuals(make_kink(P11, v=0.4), "time", 0.2, 3, [25.0, 50.0, 30.0 + 4.0j], pts)
    assert shapes == [(7,)]


def test_order_cap():
    pts = np.linspace(-3.0, 3.0, 7)
    with pytest.raises(ValueError):
        riccati_residuals(make_vacuum(P11), "space", 0.0, 7, [25.0], pts)
    with pytest.raises(ValueError):
        build_ledger(make_vacuum(P11), "space", 0.0, 7, WIDE)
    # negative orders are refused too, with the allowed range in the message
    kink = make_kink(P11, v=0.4)
    with pytest.raises(ValueError, match=r"0 \.\. 6"):
        build_ledger(kink, "space", 0.0, -1, WIDE)
    with pytest.raises(ValueError, match=r"0 \.\. 6"):
        riccati_residuals(kink, "space", 0.0, -1, [25.0], pts)


def test_vacuum_ledger_is_zero():
    ledger = build_ledger(make_vacuum(P11), "space", 0.0, 3, WIDE)
    assert max(abs(v) for v in ledger.entries.values()) == 0.0


def test_space_charges_match_scattering_oracle(kink_space_ledger):
    _, ledger = kink_space_ledger
    mu = blaschke_mu(0.4)
    assert abs(ledger.value(1) - (-2.0 * mu)) < 1e-9
    assert abs(ledger.value(2)) < 1e-12
    assert abs(ledger.value(3) - 2.0 * mu**3 / 3.0) < 1e-9
    assert abs(ledger.value(4)) < 1e-12
    assert abs(ledger.value(0) - (-math.pi)) < 1e-9
    assert abs(ledger.value(-1) - 2.0 / mu) < 1e-9
    assert abs(ledger.value(-2)) < 1e-12
    assert abs(ledger.value(-3) - (-2.0 / (3.0 * mu**3))) < 1e-9


def test_space_charges_time_independent():
    kink = make_kink(P11, v=0.4)
    l0 = build_ledger(kink, "space", 0.0, 3, WIDE)
    l1 = build_ledger(kink, "space", 0.7, 3, WIDE)
    for n in l0.entries:
        assert abs(l0.entries[n] - l1.entries[n]) < 1e-6 * max(1.0, abs(l0.entries[n]))


def test_time_charges_space_independent():
    kink = make_kink(P11, v=0.6)
    l0 = build_ledger(kink, "time", 0.0, 3, WIDE)
    l1 = build_ledger(kink, "time", 1.0, 3, WIDE)
    for n in l0.entries:
        assert abs(l0.entries[n] - l1.entries[n]) < 1e-6 * max(1.0, abs(l0.entries[n]))


def test_time_charges_match_scattering_oracle(kink_time_ledger):
    _, ledger = kink_time_ledger
    gamma = 1.25
    assert abs(ledger.value(1) - 2.0 * gamma * (1.0 - 0.6)) < 1e-9
    assert abs(ledger.value(-1) - (-2.0 * gamma * (1.0 + 0.6))) < 1e-9
    assert abs(ledger.value(2)) < 1e-12
    # right-mover at fixed x: the kink has passed by late times, (Q-, Q+) = (1, 0)
    assert abs(ledger.value(0) - (-math.pi) * (0 - 1)) < 1e-9


def test_topological_charge_from_zero_side(kink_space_ledger):
    kink, ledger = kink_space_ledger
    from sgdual.fields import topological_charges

    qm, qp = topological_charges(kink, 0.0, "space")
    assert abs(ledger.value(0) - (-math.pi) * (qp - qm)) < 1e-9


def test_energy_identity_S_static_kink():
    kink = make_kink(P11, v=0.0)
    ledger = build_ledger(kink, "space", 0.0, 1, WIDE)
    rep = energy_identity(kink, 0.0, WIDE, ledger)
    assert abs(rep.rhs - 4.0) < 1e-5
    assert rep.relative_gap < 1e-5


def test_energy_identity_S_boosted_kink():
    kink = make_kink(P11, v=0.6)
    ledger = build_ledger(kink, "space", 0.0, 1, WIDE)
    rep = energy_identity(kink, 0.0, WIDE, ledger)
    assert abs(rep.rhs - 5.0) < 1e-5
    assert rep.relative_gap < 1e-5


def test_energy_identity_S_vacuum():
    vac = make_vacuum(P11)
    rep = energy_identity(vac, 0.0, WIDE, build_ledger(vac, "space", 0.0, 1, WIDE))
    assert rep.lhs == rep.rhs == 0.0


def test_energy_identity_T(kink_time_ledger):
    kink, ledger = kink_time_ledger
    rep = energy_identity(kink, 0.0, WIDE, ledger)
    assert abs(rep.rhs - (-3.0)) < 1e-5  # (1/2) H_T = -(1/2) 8 gamma |v|
    assert rep.relative_gap < 1e-5


def test_energy_identity_T_two_positions():
    kink = make_kink(P11, v=0.6)
    for x in (0.0, 1.0):
        ledger = build_ledger(kink, "time", x, 1, WIDE)
        rep = energy_identity(kink, x, WIDE, ledger)
        assert rep.relative_gap < 1e-5


def test_lna_fit_space_remainder_is_next_order_term(kink_space_ledger):
    kink, ledger = kink_space_ledger
    lams = [10.0, 14.68, 21.54, 31.62, 46.42, 68.13, 100.0]
    rep = lna_asymptotic_fit(kink, "space", 0.0, lams, ledger, 30.0)
    mu = blaschke_mu(0.4)
    fifth = 2.0 * mu**5 / 5.0
    # on a reflectionless solution the 4th-order charge vanishes, so the
    # post-3-term remainder is the lambda^-5 tail
    for lam, r in zip(rep.lambdas, rep.remainders):
        assert abs(r - fifth / lam**5) < 0.2 * fifth / lam**5 + 5e-12
    assert 4.5 < rep.slope < 5.5


def test_lna_fit_time_picture(kink_time_ledger):
    kink, ledger = kink_time_ledger
    lams = [10.0, 17.78, 31.62, 56.23, 100.0]
    rep = lna_asymptotic_fit(kink, "time", 0.3, lams, ledger, 40.0)
    assert 4.5 < rep.slope < 5.5
    assert np.all(rep.remainders < 1e-6)


def test_lna_fit_window_validation(kink_space_ledger):
    kink, ledger = kink_space_ledger
    with pytest.raises(ValueError):
        lna_asymptotic_fit(kink, "space", 0.0, [5.0, 20.0], ledger, 30.0)
    with pytest.raises(ValueError):
        lna_asymptotic_fit(kink, "space", 0.0, [10.0, 200.0], ledger, 30.0)


def test_recursion_vs_monodromy_fit(kink_space_ledger):
    kink, ledger = kink_space_ledger
    lams = np.geomspace(10.0, 100.0, 9)
    fitted = fit_charges_from_monodromy(kink, "space", 0.0, lams, 5, 30.0)
    scale = abs(ledger.value(1))
    for n in (1, 2):
        assert abs(fitted.value(n) - ledger.value(n)) < 1e-4 * scale
    assert fitted.provenance == "monodromy_fit"


def test_recursion_vs_monodromy_fit_time(kink_time_ledger):
    kink, ledger = kink_time_ledger
    lams = np.geomspace(10.0, 100.0, 9)
    fitted = fit_charges_from_monodromy(kink, "time", 0.3, lams, 5, 40.0)
    scale = abs(ledger.value(1))
    for n in (1, 2):
        assert abs(fitted.value(n) - ledger.value(n)) < 1e-4 * scale


class CountingField(FieldEvaluator):
    """Delegates to a wrapped solution and records every requested (dx, dt) order."""

    def __init__(self, inner):
        self.inner, self.params = inner, inner.params
        self.orders = []

    def derivative(self, x, t, dx, dt):
        self.orders.append((dx, dt))
        return self.inner.derivative(x, t, dx, dt)


@pytest.mark.parametrize("picture", ["space", "time"])
def test_build_ledger_takes_each_partial_once(picture):
    field = CountingField(make_kink(P11, v=0.4))
    order = 3
    ledger = build_ledger(field, picture, 0.0, order, GridWindow(10.0, 201))
    assert sorted(ledger.entries) == list(range(-order, order + 1))
    # jets of w reach degree order: running orders 0 .. order + 1 and cross orders 0 .. order
    assert len(field.orders) == len(set(field.orders)) == 2 * order + 3


def test_ledger_chain_levels_keep_only_the_degree_they_feed(monkeypatch):
    from sgdual import charges

    chain, levels = charges._riccati_chain, []

    def recording_chain(*args):
        out = chain(*args)
        levels.append([q.shape[1] for q in out])
        return out

    monkeypatch.setattr(charges, "_riccati_chain", recording_chain)
    order = 3
    build_ledger(make_kink(P11, v=0.4), "space", 0.0, order, GridWindow(10.0, 201))
    top = order + 1  # the ledger reads values only, so q_{order+1} has degree 0
    assert levels == [[top - n + 1 for n in range(order + 2)]] * 2


def test_jet_truncation_keeps_the_lower_coefficients_bitwise():
    from sgdual.charges import _jet_deriv, _jet_exp, _jet_mul

    rng = np.random.default_rng(7)
    a, b, g = (rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7)) for _ in range(3))
    mul, exp, deriv = _jet_mul(a, b), _jet_exp(g), _jet_deriv(a)
    for k in range(7):
        assert np.array_equal(_jet_mul(a[:, : k + 1], b[:, : k + 1]), mul[:, : k + 1])
        assert np.array_equal(_jet_exp(g[:, : k + 1]), exp[:, : k + 1])
        assert np.array_equal(_jet_deriv(a[:, : k + 2])[:, : k + 1], deriv[:, : k + 1])


@pytest.mark.parametrize("picture", ["space", "time"])
@pytest.mark.parametrize("name", ["kink", "pair-left", "pair-right"])
def test_low_ledger_entries_do_not_depend_on_the_order_bitwise(name, picture):
    # the energy suite reads n = -1, 0, 1 off the order-3 ledgers of the charges suite instead of building order 1
    from sgdual.defect import DefectParams, bt_kink_from_vacuum

    pair = bt_kink_from_vacuum(P11, DefectParams(2.0))
    field = {"kink": make_kink(P11, v=0.4), "pair-left": pair.left, "pair-right": pair.right}[name]
    window = GridWindow(40.0, 2 * math.ceil(400.0 * field.gamma) + 1)  # the suites' window at m = 1, W = 40
    for fixed in (0.0, 0.7):
        low, high = (build_ledger(field, picture, fixed, order, window).entries for order in (1, 3))
        assert sorted(low) == [-1, 0, 1]
        bits = lambda entries: [(entries[n].real.hex(), entries[n].imag.hex()) for n in (-1, 0, 1)]
        assert bits(low) == bits(high)


LEDGER_FIELDS = {
    "kink+0.4": make_kink(P11, v=0.4),
    "kink-0.3": make_kink(P11, v=-0.3),
    "antikink-beta2": make_kink(ModelParams(1.0, 2.0), v=0.2, orientation=-1),
    "vacuum": make_vacuum(P11),
}


@pytest.mark.parametrize("order", [1, 3, 6])
@pytest.mark.parametrize("picture", ["space", "time"])
@pytest.mark.parametrize("name", list(LEDGER_FIELDS))
def test_real_w_jets_give_the_complex_chains_bitwise(name, picture, order):
    from sgdual.charges import _line_jets, _riccati_chain

    field = LEDGER_FIELDS[name]
    line = Line(field, picture, 0.3)
    w, w_flip, ep, em, _ = _line_jets(line, GridWindow(10.0, 201).axis(), order)
    assert w.dtype == w_flip.dtype == np.float64  # phi is real, so the imaginary parts would be exactly 0
    sign = line.pick(1.0, -1.0)
    for jets, e_delta, e_sum in ((w, ep, em), (w_flip, em, ep)):  # the large-lambda chain and the flipped one
        real = _riccati_chain(jets, e_delta, e_sum, -sign, order + 1, order + 1, field.params)
        cplx = _riccati_chain(jets.astype(complex), e_delta, e_sum, -sign, order + 1, order + 1, field.params)
        assert [q.tobytes() for q in real] == [q.tobytes() for q in cplx]


def test_jet_product_of_a_real_and_a_complex_jet_keeps_the_imaginary_part():
    from sgdual.charges import _jet_mul

    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(5, 4)), rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    got = _jet_mul(a, b)
    assert got.dtype == complex and np.array_equal(got, _jet_mul(a.astype(complex), b))
    assert np.abs(got.imag).max() > 0


def test_unwrap_log_raises_on_branch_jump():
    from sgdual.charges import UnwindingError, _unwrap_log

    # consecutive phases 2.8 rad apart cannot be reconciled by whole turns
    values = np.array([np.exp(2.8j), np.exp(0.1j)])
    with pytest.raises(UnwindingError):
        _unwrap_log(values)


def test_unwrap_log_restores_continuity():
    from sgdual.charges import _unwrap_log

    # a smooth phase that crosses the principal-branch cut
    phases = np.linspace(2.9, 3.5, 7)
    logs = _unwrap_log(np.exp(1j * phases[::-1]))
    assert np.allclose(np.diff(logs.imag), phases[::-1][1] - phases[::-1][0])
