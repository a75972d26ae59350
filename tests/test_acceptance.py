"""Acceptance gate: every identity checked at its stated tolerance.

Each criterion prints one line

    [acceptance] C<nn> <name>: PASS|FAIL (measurements) [<elapsed> s]

before asserting, so a red run still reports every measured number.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they go.

C05 carries a strict xfail: on the exact solutions this library is scoped to
(vacuum, kinks, Backlund images of those), the scattering coefficient is a
finite Blaschke product, every even-order charge vanishes identically, and
the remainder of ln a after the three-term tail is the lambda^-5 term.  The
measured log-log slope is therefore 5, not 4; the stated window [3.7, 4.3]
cannot be met honestly, and the substantive recursion-vs-monodromy agreement
is asserted separately in C05b at the honest exponent.
"""

import math
import time

import numpy as np
import pytest

from sgdual.charges import (
    build_ledger,
    energy_identity,
    fit_charges_from_monodromy,
    lna_asymptotic_fit,
)
from sgdual.defect import (
    DefectPair,
    DefectParams,
    L_equation_residual,
    bt_kink_from_vacuum,
    c_function,
    canonical_residual,
    defect_monodromy_S,
    generating_relation_check,
    ham_shift_check,
)
from sgdual.fields import FieldEvaluator, FieldSample, GridWindow, ModelParams, hamiltonian_S, make_kink
from sgdual.lax import spectral, zero_curvature_residual
from sgdual.rmatrix import involution_check, transition_bracket_check, ultralocal_check
from sgdual.transition import appendix_equality_residual, monodromy

P11 = ModelParams(1.0, 1.0)
WIDE = GridWindow(-40.0, 40.0, -40.0, 40.0, 16001, 16001)
LAMBDAS = (0.5, 1.0, 2.0, 4.0)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(tag, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {tag}: {status} ({detail}) [{elapsed:.2f} s]")


def test_c01_zero_curvature():
    with _Timer() as t:
        kink = make_kink(P11, v=0.4)
        sp = spectral(1.2, P11)
        r1 = zero_curvature_residual(kink, 0.5, 0.1, sp, 1e-3)
        r2 = zero_curvature_residual(kink, 0.5, 0.1, sp, 5e-4)
        order = math.log2(r1 / r2)
    ok = r1 < 1e-5 and abs(order - 2.0) <= 0.3 and t.elapsed < 1.0
    _report("C01 zero-curvature", ok, f"residual={r1:.3e}, order={order:.3f}", t.elapsed)
    assert r1 < 1e-5
    assert abs(order - 2.0) <= 0.3
    assert t.elapsed < 1.0


def test_c02_monodromy_conservation():
    with _Timer() as t:
        kink = make_kink(P11, v=0.4)
        worst_a = worst_fa = 0.0
        for lam in LAMBDAS:
            sp = spectral(lam, P11)
            a0 = monodromy(kink, "space", 0.0, 30.0, sp).a_entry
            a2 = monodromy(kink, "space", 2.0, 30.0, sp).a_entry
            worst_a = max(worst_a, abs(abs(a0) - abs(a2)), abs(np.angle(a0) - np.angle(a2)))
            f0 = monodromy(kink, "time", 0.0, 50.0, sp).a_entry
            f1 = monodromy(kink, "time", 1.0, 50.0, sp).a_entry
            worst_fa = max(worst_fa, abs(f0 - f1))
    ok = worst_a < 1e-6 and worst_fa < 1e-6 and t.elapsed < 10.0
    _report("C02 monodromy-conservation", ok, f"a-drift={worst_a:.2e}, fa-drift={worst_fa:.2e}", t.elapsed)
    assert worst_a < 1e-6
    assert worst_fa < 1e-6
    assert t.elapsed < 10.0


def test_c03_energy_identity_space():
    with _Timer() as t:
        static = make_kink(P11, v=0.0)
        h_s = float(hamiltonian_S(static, 0.0, WIDE))
        ledger = build_ledger(static, "space", 0.0, 1, WIDE)
        rep = energy_identity(static, 0.0, WIDE, ledger)
        moving = make_kink(P11, v=0.4)
        rep_moving = energy_identity(moving, 0.0, WIDE, build_ledger(moving, "space", 0.0, 1, WIDE))
    ok = (
        abs(h_s - 8.0) < 1e-5
        and abs(rep.rhs - 4.0) < 1e-5
        and rep.relative_gap < 1e-4
        and rep_moving.relative_gap < 1e-4
        and t.elapsed < 5.0
    )
    _report(
        "C03 energy-identity-S", ok,
        f"H_S={h_s:.8f}, rhs={rep.rhs:.8f}, relgap={rep.relative_gap:.2e}", t.elapsed,
    )
    assert abs(h_s - 8.0) < 1e-5
    assert abs(rep.rhs - 4.0) < 1e-5
    assert rep.relative_gap < 1e-4
    assert rep_moving.relative_gap < 1e-4
    assert t.elapsed < 5.0


def test_c04_energy_identity_time():
    with _Timer() as t:
        kink = make_kink(P11, v=0.6)
        ledger = build_ledger(kink, "time", 0.0, 1, WIDE)
        rep = energy_identity(kink, 0.0, WIDE, ledger)
    ok = rep.relative_gap < 1e-4 and t.elapsed < 5.0
    _report("C04 energy-identity-T", ok, f"lhs={rep.lhs:.8f}, rhs={rep.rhs:.8f}, relgap={rep.relative_gap:.2e}", t.elapsed)
    assert rep.relative_gap < 1e-4
    assert t.elapsed < 5.0


_FIT_LAMBDAS = (10.0, 14.68, 21.54, 31.62, 46.42, 68.13, 100.0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "every even-order charge vanishes on the reflectionless solutions in "
        "scope, so the post-3-term remainder of ln a decays like lambda^-5; "
        "the honest measured slope is ~5, outside the stated window [3.7, 4.3]"
    ),
)
def test_c05_recursion_monodromy_slope_window():
    with _Timer() as t:
        kink = make_kink(P11, v=0.4)
        ledger = build_ledger(kink, "space", 0.0, 3, WIDE)
        rep = lna_asymptotic_fit(kink, "space", 0.0, _FIT_LAMBDAS, ledger, 30.0)
        kink_t = make_kink(P11, v=0.6)
        ledger_t = build_ledger(kink_t, "time", 0.0, 3, WIDE)
        rep_t = lna_asymptotic_fit(kink_t, "time", 0.0, _FIT_LAMBDAS, ledger_t, 40.0)
    ok = abs(rep.slope - 4.0) <= 0.3 and abs(rep_t.slope - 4.0) <= 0.3 and t.elapsed < 30.0
    _report("C05 recursion-monodromy slope", ok, f"slope_space={rep.slope:.3f}, slope_time={rep_t.slope:.3f}", t.elapsed)
    assert abs(rep.slope - 4.0) <= 0.3
    assert abs(rep_t.slope - 4.0) <= 0.3
    assert t.elapsed < 30.0


def test_c05b_recursion_monodromy_crosscheck():
    # the substantive content of C05: the recursion charges reproduce the
    # monodromy logarithm, with the remainder at the honest next order
    with _Timer() as t:
        kink = make_kink(P11, v=0.4)
        ledger = build_ledger(kink, "space", 0.0, 3, WIDE)
        rep = lna_asymptotic_fit(kink, "space", 0.0, _FIT_LAMBDAS, ledger, 30.0)
        fitted = fit_charges_from_monodromy(kink, "space", 0.0, np.geomspace(10.0, 100.0, 9), 5, 30.0)
        scale = abs(ledger.value(1))
        gap1 = abs(fitted.value(1) - ledger.value(1)) / scale
        gap2 = abs(fitted.value(2) - ledger.value(2)) / scale
        kink_t = make_kink(P11, v=0.6)
        ledger_t = build_ledger(kink_t, "time", 0.0, 3, WIDE)
        rep_t = lna_asymptotic_fit(kink_t, "time", 0.0, _FIT_LAMBDAS, ledger_t, 40.0)
    ok = gap1 < 1e-4 and gap2 < 1e-4 and 4.5 < rep.slope < 5.5 and 4.5 < rep_t.slope < 5.5 and t.elapsed < 30.0
    _report(
        "C05b recursion-monodromy cross-check", ok,
        f"charge gaps=({gap1:.2e}, {gap2:.2e}), slopes=({rep.slope:.3f}, {rep_t.slope:.3f})", t.elapsed,
    )
    assert gap1 < 1e-4 and gap2 < 1e-4
    assert 4.5 < rep.slope < 5.5
    assert 4.5 < rep_t.slope < 5.5
    assert t.elapsed < 30.0


def test_c06_appendix_equality():
    with _Timer() as t:
        kink = make_kink(P11, v=-0.6)
        sp = spectral(1.7, P11)
        res30 = appendix_equality_residual(kink, 1.0, 0.5, sp, 30.0)
        seq = [appendix_equality_residual(kink, 1.0, 0.5, sp, w) for w in (15.0, 25.0, 30.0)]
    ok = res30 < 1e-6 and seq[0] > seq[1] > seq[2] and t.elapsed < 10.0
    _report("C06 appendix-equality", ok, f"residual(W=30)={res30:.3e}, sequence={[f'{s:.2e}' for s in seq]}", t.elapsed)
    assert res30 < 1e-6
    assert seq[0] > seq[1] > seq[2]
    assert t.elapsed < 10.0


def test_c07_ultralocal_identity():
    with _Timer() as t:
        rng = np.random.default_rng(20260808)
        worst = 0.0
        for _ in range(20):
            sample = FieldSample(*rng.uniform(-3.0, 3.0, size=3))
            lam, mu = rng.uniform(0.3, 4.0, size=2)
            if abs(lam - mu) < 0.05:
                mu += 0.2
            for picture in ("space", "time"):
                worst = max(worst, ultralocal_check(picture, sample, spectral(lam, P11), spectral(mu, P11), P11))
        flipped = ultralocal_check(
            "time", FieldSample(0.3, -0.2, 0.5), spectral(1.3, P11), spectral(0.7, P11), P11, flip_sign=True
        )
    ok = worst < 1e-12 and flipped > 1e-2 and t.elapsed < 1.0
    _report("C07 ultralocal-r-matrix", ok, f"worst gap={worst:.2e}, flipped={flipped:.2e}", t.elapsed)
    assert worst < 1e-12
    assert flipped > 1e-2
    assert t.elapsed < 1.0


def test_c08_transition_bracket_halving():
    with _Timer() as t:
        kink = make_kink(P11, v=0.4)
        sp1, sp2 = spectral(1.3, P11), spectral(0.7, P11)
        g400 = transition_bracket_check(kink, 0.0, (-5.0, 5.0), sp1, sp2, 400).gap
        g800 = transition_bracket_check(kink, 0.0, (-5.0, 5.0), sp1, sp2, 800).gap
        ratio = g800 / g400
    ok = abs(ratio - 0.5) <= 0.15 and t.elapsed < 60.0
    _report("C08 transition-bracket", ok, f"gap(400)={g400:.3e}, gap(800)={g800:.3e}, ratio={ratio:.3f}", t.elapsed)
    assert abs(ratio - 0.5) <= 0.15
    assert t.elapsed < 60.0


def test_c09_defect_gate():
    with _Timer() as t:
        t_grid = np.linspace(-8.0, 8.0, 41)
        sp = spectral(1.5, P11)
        worst_cond = worst_leq = worst_drift = 0.0
        for sigma in (1.0, 2.0, 3.0):
            pair = bt_kink_from_vacuum(P11, DefectParams(sigma))
            worst_cond = max(worst_cond, pair.condition_residual(t_grid))
            worst_leq = max(worst_leq, L_equation_residual(pair, 0.3, sp, 1e-4))
            m0 = defect_monodromy_S(pair, 0.0, sp, 30.0)
            m1 = defect_monodromy_S(pair, 1.0, sp, 30.0)
            worst_drift = max(worst_drift, abs(m0[0, 0] - m1[0, 0]), abs(m0[1, 1] - m1[1, 1]))
    ok = worst_cond < 1e-10 and worst_leq < 1e-6 and worst_drift < 1e-5 and t.elapsed < 10.0
    _report(
        "C09 defect-gate", ok,
        f"conditions={worst_cond:.2e}, L-equation={worst_leq:.2e}, diag-drift={worst_drift:.2e}", t.elapsed,
    )
    assert worst_cond < 1e-10
    assert worst_leq < 1e-6
    assert worst_drift < 1e-5
    assert t.elapsed < 10.0


def test_c10_generating_relation():
    with _Timer() as t:
        pair = bt_kink_from_vacuum(P11, DefectParams(2.0))
        sps = [spectral(l, P11) for l in LAMBDAS]
        rep = generating_relation_check(pair, 0.7, -1.3, sps, 40.0)
        winner_limit = c_function(spectral(1e6, P11), pair.defect, pair.parities(), "ratio")
        hs = ham_shift_check(pair, WIDE)
    exactly_one = (rep.max_gap["ratio"] < 1e-4) != (rep.max_gap["product"] < 1e-4)
    ok = (
        rep.winner(1e-4) == "ratio"
        and exactly_one
        and abs(winner_limit - 1.0) < 1e-5
        and hs.gap_ratio < 1e-4
        and t.elapsed < 20.0
    )
    _report(
        "C10 generating-relation", ok,
        f"winner={rep.winner(1e-4)}, gaps={{ratio: {rep.max_gap['ratio']:.2e}, product: {rep.max_gap['product']:.2e}}}, "
        f"shift gap={hs.gap_ratio:.2e}", t.elapsed,
    )
    assert rep.winner(1e-4) == "ratio"
    assert exactly_one
    assert abs(winner_limit - 1.0) < 1e-5
    assert hs.gap_ratio < 1e-4
    assert t.elapsed < 20.0


class _ScaledField(FieldEvaluator):
    kind = "scaled"

    def __init__(self, base, factor):
        self.base, self.factor, self.params = base, factor, base.params

    def derivative(self, x, t, dx, dt):
        return self.factor * self.base.derivative(x, t, dx, dt)


def test_c11_canonical_residuals():
    with _Timer() as t:
        pair = bt_kink_from_vacuum(P11, DefectParams(2.0))
        grid = np.linspace(-6.0, 6.0, 61)
        res_r, res_l = canonical_residual(pair, grid, 1e-4)
        bad = DefectPair(pair.left, _ScaledField(pair.right, 1.01), P11, DefectParams(2.0))
        bad_r, bad_l = canonical_residual(bad, grid, 1e-4)
    ok = res_r < 1e-6 and res_l < 1e-6 and max(bad_r, bad_l) > 1e-3 and t.elapsed < 5.0
    _report(
        "C11 canonical-residuals", ok,
        f"valid=({res_r:.2e}, {res_l:.2e}), perturbed={max(bad_r, bad_l):.2e}", t.elapsed,
    )
    assert res_r < 1e-6 and res_l < 1e-6
    assert max(bad_r, bad_l) > 1e-3
    assert t.elapsed < 5.0


def test_c12_involution_proxy():
    with _Timer() as t:
        sps = (spectral(1.5, P11), spectral(0.8, P11))
        kink = make_kink(P11, v=0.4)
        kink_seq = [involution_check(kink, 0.7, sps, n, (-20.0, 20.0)) for n in (400, 800, 1600)]
        pair = bt_kink_from_vacuum(P11, DefectParams(2.0))
        right_seq = [involution_check(pair.right, 0.5, sps, n, (-14.0, 14.0)) for n in (400, 800, 1600)]
        left_seq = [involution_check(pair.left, -0.5, sps, n, (-14.0, 14.0)) for n in (400, 800, 1600)]

    def converged(seq):
        # a vacuum side is identically in involution: the proxy sits at
        # roundoff zero, where strict monotonicity degenerates
        return (seq[0] > seq[1] > seq[2]) or max(seq) < 1e-12

    ok = (
        kink_seq[1] < 5e-3
        and right_seq[1] < 5e-3
        and left_seq[1] < 5e-3
        and converged(kink_seq)
        and converged(right_seq)
        and converged(left_seq)
        and t.elapsed < 120.0
    )
    _report(
        "C12 involution-proxy", ok,
        f"kink n800={kink_seq[1]:.2e}, pair right n800={right_seq[1]:.2e}, pair left n800={left_seq[1]:.2e}",
        t.elapsed,
    )
    assert kink_seq[1] < 5e-3 and right_seq[1] < 5e-3 and left_seq[1] < 5e-3
    assert converged(kink_seq) and converged(right_seq) and converged(left_seq)
    assert t.elapsed < 120.0
