import numpy as np
import pytest

from sgdual.fields import FieldEvaluator, GridWindow, ModelParams, make_vacuum
from sgdual.lax import spectral
from sgdual.matcore import frob, inv2
from sgdual.defect import (
    DefectPair,
    DefectParams,
    L_equation_residual,
    b_factors,
    bt_kink_from_vacuum,
    c_function,
    canonical_residual,
    defect_matrix_L,
    defect_matrix_L_hat,
    defect_monodromy_S,
    defect_splitting_check,
    generating_relation_check,
    ham_shift_check,
)

P11 = ModelParams(1.0, 1.0)
WIDE = GridWindow(-40.0, 40.0, -40.0, 40.0, 16001, 16001)
T_GRID = np.linspace(-8.0, 8.0, 41)


def omega(beta, phi):
    """Gauge factor exp(i beta phi s3 / 4)."""
    return np.diag([np.exp(0.25j * beta * phi), np.exp(-0.25j * beta * phi)])


class ScaledField(FieldEvaluator):
    kind = "scaled"

    def __init__(self, base, factor):
        self.base = base
        self.factor = factor
        self.params = base.params

    def derivative(self, x, t, dx, dt):
        return self.factor * self.base.derivative(x, t, dx, dt)


@pytest.fixture(scope="module")
def pair_sigma2():
    return bt_kink_from_vacuum(P11, DefectParams(2.0))


@pytest.fixture(scope="module")
def vacuum_pair():
    return DefectPair(make_vacuum(P11), make_vacuum(P11), P11, DefectParams(2.0))


def test_defect_params_gate():
    with pytest.raises(ValueError):
        DefectParams(-1.0)


def test_bt_pair_velocities_and_residuals():
    for sigma, v_expect in [(1.0, 0.0), (2.0, -0.6), (3.0, -0.8)]:
        pair = bt_kink_from_vacuum(P11, DefectParams(sigma))
        assert abs(pair.right.v - v_expect) < 1e-14
        assert pair.condition_residual(T_GRID) < 1e-10


def test_vacuum_pair_is_exact(vacuum_pair):
    assert vacuum_pair.condition_residual(T_GRID) == 0.0


def test_pair_validation_rejects_mismatch(pair_sigma2):
    mismatched = DefectPair(pair_sigma2.left, pair_sigma2.right, P11, DefectParams(3.0))
    with pytest.raises(ValueError):
        mismatched.validate()


def test_parities(pair_sigma2):
    assert pair_sigma2.parities() == (0, 1)


def test_defect_matrix_vacuum_limit(vacuum_pair):
    sp = spectral(1.5, P11)
    want = np.array([[1.0, -2.0 / 1.5], [2.0 / 1.5, 1.0]], dtype=complex)
    assert frob(defect_matrix_L(vacuum_pair, 0.0, sp) - want) < 1e-14


def test_defect_matrix_term_by_term(pair_sigma2):
    sp = spectral(1.5, P11)
    t = 0.4
    beta, sig = 1.0, 2.0
    w = np.exp(0.25j * beta * pair_sigma2.right.sample(0.0, t).phi)
    nu = np.exp(0.25j * beta * pair_sigma2.left.sample(0.0, t).phi)
    om = np.diag([w, 1 / w])
    om_t = np.diag([nu, 1 / nu])
    sigma2 = np.array([[0, -1j], [1j, 0]])
    want = om @ inv2(om_t) - (1j * sig / sp.lam) * inv2(om_t) @ sigma2 @ om
    assert frob(defect_matrix_L(pair_sigma2, t, sp) - want) < 1e-14


def test_defect_matrix_large_lambda(pair_sigma2):
    sp = spectral(1e8, P11)
    t = 0.2
    w = np.exp(0.25j * pair_sigma2.right.sample(0.0, t).phi)
    nu = np.exp(0.25j * pair_sigma2.left.sample(0.0, t).phi)
    want = np.diag([w / nu, nu / w])
    assert frob(defect_matrix_L(pair_sigma2, t, sp) - want) < 1e-7


def test_gauged_defect_matrix_consistency(pair_sigma2):
    sp = spectral(1.5, P11)
    for t in (0.0, 0.8):
        om = omega(1.0, pair_sigma2.right.sample(0.0, t).phi)
        om_t = omega(1.0, pair_sigma2.left.sample(0.0, t).phi)
        via_gauge = inv2(om) @ defect_matrix_L(pair_sigma2, t, sp) @ om_t
        assert frob(via_gauge - defect_matrix_L_hat(pair_sigma2, t, sp)) < 1e-14


def test_L_equation_residual_vacuum(vacuum_pair):
    assert L_equation_residual(vacuum_pair, 0.0, spectral(1.5, P11), 1e-4) < 1e-12


def test_L_equation_residual_bt_pairs():
    for sigma in (1.0, 2.0, 3.0):
        pair = bt_kink_from_vacuum(P11, DefectParams(sigma))
        assert L_equation_residual(pair, 0.3, spectral(1.5, P11), 1e-4) < 1e-6


def test_L_equation_residual_negative_control(pair_sigma2):
    mismatched = DefectPair(pair_sigma2.left, pair_sigma2.right, P11, DefectParams(3.0))
    assert L_equation_residual(mismatched, 0.3, spectral(1.5, P11), 1e-4) > 1e-2


def test_defect_monodromy_diag_conserved(pair_sigma2):
    sp = spectral(1.5, P11)
    m0 = defect_monodromy_S(pair_sigma2, 0.0, sp, 30.0)
    m1 = defect_monodromy_S(pair_sigma2, 1.0, sp, 30.0)
    assert abs(m0[0, 0] - m1[0, 0]) < 1e-5
    assert abs(m0[1, 1] - m1[1, 1]) < 1e-5


def test_defect_monodromy_diag_conserved_vacuum(vacuum_pair):
    sp = spectral(1.5, P11)
    m0 = defect_monodromy_S(vacuum_pair, 0.0, sp, 20.0)
    m1 = defect_monodromy_S(vacuum_pair, 1.5, sp, 20.0)
    assert abs(m0[0, 0] - m1[0, 0]) < 1e-12


def test_defect_splitting(pair_sigma2):
    rep = defect_splitting_check(pair_sigma2, 0.7, spectral(1.5, P11), 30.0)
    assert rep.gap() < 1e-5


def test_defect_splitting_on_kink_demo_pair(pair_sigma2):
    # the kink demo's pair at its half-width: the half-line Simpson rules keep
    # their own fine grid, so the gap stays two digits below the 1e-5 gate
    rep = defect_splitting_check(pair_sigma2, 0.7, spectral(1.5, P11), 40.0)
    assert rep.gap() < 1e-7


def test_defect_splitting_direct_side_is_the_defect_monodromy(pair_sigma2):
    # the direct side is M_S as the Ms-diag-drift row builds it, not the trajectories' own endpoint
    sp = spectral(1.5, P11)
    rep = defect_splitting_check(pair_sigma2, 0.7, sp, 40.0)
    mono = defect_monodromy_S(pair_sigma2, 0.7, sp, 40.0)
    assert rep.direct == (np.log(mono[0, 0]), np.log(mono[1, 1]))


def test_b_factors_limits():
    sp = spectral(1e6, P11)
    bp, bm = b_factors(sp, DefectParams(2.0), (0, 1))
    assert frob(bp - np.eye(2)) < 1e-5
    assert frob(bm - np.eye(2)) < 1e-5


def test_b_factor_pole():
    with pytest.raises(ZeroDivisionError):
        b_factors(spectral(-2.0j, P11), DefectParams(2.0), (0, 0))


def test_c_function_values():
    d = DefectParams(2.0)
    assert abs(c_function(spectral(1.0, P11), d, (0, 0), "ratio") - 1.0) < 1e-15
    got = c_function(spectral(1.0, P11), d, (0, 1), "ratio")
    assert abs(got - (1.0 - 2.0j) / (1.0 + 2.0j)) < 1e-15
    # the product variant at equal parities reduces to lambda - i sigma,
    # which grows with lambda instead of tending to 1
    assert abs(c_function(spectral(1.0, P11), d, (0, 0), "product") - (1.0 - 2.0j)) < 1e-15
    big = c_function(spectral(1e4, P11), d, (0, 0), "product")
    assert abs(big) > 1e3


def test_c_function_ratio_consistent_with_b_factors():
    d = DefectParams(2.0)
    sp = spectral(1.7, P11)
    bp, bm = b_factors(sp, d, (0, 1))
    assert abs(bp[0, 0] / bm[0, 0] - c_function(sp, d, (0, 1), "ratio")) < 1e-14


def test_generating_relation_selects_ratio_form(pair_sigma2):
    sps = [spectral(l, P11) for l in (0.5, 1.0, 2.0, 4.0)]
    rep = generating_relation_check(pair_sigma2, 0.7, -1.3, sps, 40.0)
    assert rep.winner(1e-4) == "ratio"
    assert rep.max_gap["ratio"] < 1e-4
    assert rep.max_gap["product"] > 1e-2


def test_generating_relation_vacuum(vacuum_pair):
    sps = [spectral(l, P11) for l in (0.5, 2.0)]
    rep = generating_relation_check(vacuum_pair, 0.7, -1.3, sps, 20.0)
    for row in rep.rows:
        assert abs(complex(*row["ln_a"])) < 1e-9
        assert abs(complex(*row["ln_a_tilde"])) < 1e-9
        assert row["gap_ratio"] < 1e-9


def test_generating_relation_large_lambda_limit(pair_sigma2):
    parities = pair_sigma2.parities()
    val = c_function(spectral(1e6, P11), pair_sigma2.defect, parities, "ratio")
    assert abs(val - 1.0) < 1e-5


def test_generating_relation_probe_placement(pair_sigma2):
    with pytest.raises(ValueError):
        generating_relation_check(pair_sigma2, -0.5, -1.0, [spectral(1.0, P11)], 20.0)


def test_ham_shift(pair_sigma2):
    rep = ham_shift_check(pair_sigma2, WIDE)
    assert abs(rep.lhs - (-6.0)) < 1e-5
    assert rep.gap_ratio < 1e-4
    assert rep.gap_product > 1.0


def test_ham_shift_vacuum(vacuum_pair):
    rep = ham_shift_check(vacuum_pair, WIDE)
    assert rep.lhs == 0.0 and rep.rhs_ratio == 0.0 and rep.rhs_product == 0.0


def test_ham_shift_sigma_inversion():
    # sending sigma -> 1/sigma flips the sign of the (1/s - s) prefactor;
    # the parity jump flips too (the generated kink reverses direction), so
    # the full shift is invariant and both pairs still satisfy the identity
    assert abs((1.0 / 2.0 - 2.0) + (1.0 / 0.5 - 0.5)) < 1e-15
    a = ham_shift_check(bt_kink_from_vacuum(P11, DefectParams(2.0)), WIDE)
    b = ham_shift_check(bt_kink_from_vacuum(P11, DefectParams(0.5)), WIDE)
    assert bt_kink_from_vacuum(P11, DefectParams(0.5)).parities() == (1, 0)
    assert a.gap_ratio < 1e-4 and b.gap_ratio < 1e-4
    assert abs(a.rhs_ratio - b.rhs_ratio) < 1e-12


def test_canonical_residual_vacuum(vacuum_pair):
    res = canonical_residual(vacuum_pair, np.linspace(-5, 5, 21), 1e-4)
    assert res == (0.0, 0.0)


def test_canonical_residual_bt_pair(pair_sigma2):
    res_right, res_left = canonical_residual(pair_sigma2, np.linspace(-6, 6, 61), 1e-4)
    assert res_right < 1e-6
    assert res_left < 1e-6


def test_canonical_residual_negative_control(pair_sigma2):
    bad = DefectPair(pair_sigma2.left, ScaledField(pair_sigma2.right, 1.01), P11, DefectParams(2.0))
    res_right, res_left = canonical_residual(bad, np.linspace(-6, 6, 61), 1e-4)
    assert max(res_right, res_left) > 1e-3
