import re
import tracemalloc

import numpy as np
import pytest

from sgdual.fields import FieldSample, KinkField, Line, ModelParams, make_kink, make_vacuum, topological_charges
from sgdual.lax import build_V, ce_charged, spectral
from sgdual.matcore import ID2, det2, expm_su2, inv2, scan
from sgdual.defect import DefectParams, bt_kink_from_vacuum
from sgdual import rmatrix
from sgdual.rmatrix import (
    BracketReport,
    _site_factors,
    _site_products,
    _time_lattice,
    involution_check,
    lax_derivatives,
    r_matrix,
    r_matrix_trig,
    transition_bracket_check,
    ultralocal_check,
)

from oracles import expm_antihermitian

P11 = ModelParams(1.0, 1.0)
P14 = ModelParams(1.0, 4.0)


def test_r_matrix_pinned_values():
    # beta = 4 makes gamma = 1; then f(2,1) = -5/3 and g(2,1) = 4/3
    rv = r_matrix(2.0, 1.0, P14)
    assert abs(rv.f - (-5.0 / 3.0)) < 1e-15
    assert abs(rv.g - (4.0 / 3.0)) < 1e-15
    assert rv.gamma_const == 1.0


def test_r_matrix_corner_entries_vanish():
    rng = np.random.default_rng(2)
    for _ in range(5):
        lam, mu = rng.uniform(0.3, 3.0, size=2)
        if abs(lam - mu) < 0.05:
            mu += 0.3
        mat = r_matrix(lam, mu, P14).matrix
        assert mat[0, 0] == 0.0 and mat[3, 3] == 0.0
        assert mat[0, 3] == 0.0 and mat[3, 0] == 0.0


def test_r_matrix_antisymmetric_under_swap():
    rv = r_matrix(1.7, 0.6, P11)
    sw = r_matrix(0.6, 1.7, P11)
    assert abs(rv.f + sw.f) < 1e-15
    assert abs(rv.g + sw.g) < 1e-15
    assert np.allclose(rv.matrix, -sw.matrix)


def test_r_matrix_singularity():
    with pytest.raises(ZeroDivisionError):
        r_matrix(1.3, 1.3, P11)
    with pytest.raises(ZeroDivisionError):
        r_matrix(1.3, -1.3, P11)


def test_trigonometric_equivalence():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b = rng.uniform(0.1, 1.4, size=2)
        if abs(a - b) < 0.05:
            b += 0.2
        rational = r_matrix(np.exp(1j * a), np.exp(1j * b), P14).matrix
        assert np.max(np.abs(rational - r_matrix_trig(a - b, P14))) < 1e-12


def test_ultralocal_is_algebraically_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        sample = FieldSample(*rng.uniform(-3, 3, size=3))
        lam, mu = rng.uniform(0.3, 4.0, size=2)
        if abs(lam - mu) < 0.05:
            mu += 0.2
        for picture in ("space", "time"):
            gap = ultralocal_check(picture, sample, spectral(lam, P11), spectral(mu, P11), P11)
            assert gap < 1e-12


@pytest.mark.parametrize("picture", ["space", "time"])
def test_ultralocal_batch_is_bitwise_the_worst_single_draw(picture):
    rng = np.random.default_rng(20260808)
    samples, sps1, sps2 = [], [], []
    for _ in range(20):
        samples.append(rng.uniform(-3, 3, size=3))
        lam, mu = rng.uniform(0.3, 4.0, size=2)
        sps1.append(spectral(lam, P11))
        sps2.append(spectral(mu + 0.2 if abs(lam - mu) < 0.05 else mu, P11))
    single = [ultralocal_check(picture, FieldSample(*x), a, b, P11) for x, a, b in zip(samples, sps1, sps2)]
    batch = ultralocal_check(picture, FieldSample(*np.transpose(samples)), sps1, sps2, P11)
    assert batch == max(single)
    assert 0.0 < batch < 1e-12


def test_ultralocal_sign_flip_fails():
    sample = FieldSample(0.3, -0.2, 0.5)
    gap = ultralocal_check("time", sample, spectral(1.3, P11), spectral(0.7, P11), P11, flip_sign=True)
    assert gap > 1e-2


def test_ultralocal_vacuum_sample_nontrivial():
    # the bracket differentiates in phi, so the vacuum point is not degenerate
    gap = ultralocal_check("space", FieldSample(0.0, 0.0, 0.0), spectral(1.3, P11), spectral(0.7, P11), P11)
    assert gap < 1e-12


def test_transition_bracket_kink_first_order():
    kink = make_kink(P11, v=0.4)
    sp1, sp2 = spectral(1.3, P11), spectral(0.7, P11)
    r400 = transition_bracket_check(kink, 0.0, (-5.0, 5.0), sp1, sp2, 400)
    r800 = transition_bracket_check(kink, 0.0, (-5.0, 5.0), sp1, sp2, 800)
    assert isinstance(r400, BracketReport)
    assert 0.35 <= r800.gap / r400.gap <= 0.65
    assert r400.lhs_norm > 1e-3  # both sides genuinely nonzero


def test_transition_bracket_vacuum_sides_agree():
    vac = make_vacuum(P11)
    rep = transition_bracket_check(vac, 0.0, (-5.0, 5.0), spectral(1.3, P11), spectral(0.7, P11), 800)
    # phi-derivatives of V do not vanish at the vacuum, so both sides are
    # nonzero and must agree to discretisation accuracy
    assert rep.lhs_norm > 1e-3
    assert rep.gap < 1e-5


def test_transition_bracket_swap_invariance():
    kink = make_kink(P11, v=0.4)
    a = transition_bracket_check(kink, 0.0, (-5.0, 5.0), spectral(1.3, P11), spectral(0.7, P11), 400)
    b = transition_bracket_check(kink, 0.0, (-5.0, 5.0), spectral(0.7, P11), spectral(1.3, P11), 400)
    assert abs(a.gap - b.gap) < 0.2 * max(a.gap, b.gap)


def test_transition_bracket_site_floor():
    with pytest.raises(ValueError):
        transition_bracket_check(make_vacuum(P11), 0.0, (-5.0, 5.0), spectral(1.3, P11), spectral(0.7, P11), 50)


def test_involution_vacuum_exact_zero():
    val = involution_check(make_vacuum(P11), 0.0, (spectral(1.5, P11), spectral(0.8, P11)), 200, (-10.0, 10.0))
    assert val < 1e-20


def test_involution_kink_decreases_under_refinement():
    kink = make_kink(P11, v=0.4)
    sps = (spectral(1.5, P11), spectral(0.8, P11))
    vals = [involution_check(kink, 0.7, sps, n, (-20.0, 20.0)) for n in (400, 800, 1600)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[1] < 5e-3


def test_involution_defect_pair_both_sides():
    pair = bt_kink_from_vacuum(P11, DefectParams(2.0))
    sps = (spectral(1.5, P11), spectral(0.8, P11))
    right = [involution_check(pair.right, 0.5, sps, n, (-14.0, 14.0)) for n in (400, 800, 1600)]
    assert right[0] > right[1] > right[2]
    assert right[1] < 5e-3
    # the vacuum side is identically in involution; the proxy sits at roundoff
    left = involution_check(pair.left, -0.5, sps, 800, (-14.0, 14.0))
    assert left < 1e-12


def _involution_by_stacked_products(field, x_probe, sps, n_sites, interval):
    """involution_check as (n, 2, 2) prefix/suffix stacks, matmuls and einsum contractions."""
    a, b = interval
    qm, qp = topological_charges(field, x_probe, "time")
    delta, samples = _time_lattice(field, x_probe, interval, n_sites)
    grads = []
    for sp in sps:
        _, prefix, suffix, _ = _site_products(samples, sp, field.params, delta)
        head = (inv2(ce_charged(b, sp, qp)) @ suffix)[:, 0]
        tail = (prefix @ ce_charged(a, sp, qm))[..., 0]
        d_phi, d_mom = lax_derivatives("time", samples, sp, field.params)
        grads.append([delta * np.einsum("nb,nbc,nc->n", head, d, tail) for d in (d_phi, d_mom)])
    (dphi1, dmom1), (dphi2, dmom2) = grads
    return float(abs(np.sum(dphi1 * dmom2 - dmom1 * dphi2) / delta))


@pytest.mark.parametrize("n_sites", [400, 800, 1600])
def test_involution_matches_the_stacked_product_formula(n_sites):
    sps = (spectral(1.5, P11), spectral(0.8, P11))
    pair = bt_kink_from_vacuum(P11, DefectParams(2.0))
    for field, x, span in ((make_kink(P11, v=0.4), 0.7, 20.0), (pair.right, 0.5, 14.0)):
        want = _involution_by_stacked_products(field, x, sps, n_sites, (-span, span))
        assert abs(involution_check(field, x, sps, n_sites, (-span, span)) - want) <= 1e-9 * want


def _involution_with_both_scans(field, x_probe, sps, n_sites, interval):
    """involution_check as it was written with V and both scans of a point alive together, forward scan first."""
    a, b = interval
    qm, qp = topological_charges(field, x_probe, "time")
    delta, samples = _time_lattice(field, x_probe, interval, n_sites)
    grads = []
    for sp in sps:
        v, steps = _site_factors(samples, sp, field.params, delta)
        upto, down_to = scan(steps), scan(steps, reverse=True)
        row = inv2(ce_charged(b, sp, qp))[0]
        col = ce_charged(a, sp, qm)[:, 0]
        head = np.empty((2, n_sites), dtype=complex)
        head[:, :-1] = row[0] * down_to[0, :, 1:] + row[1] * down_to[1, :, 1:]
        head[:, -1] = row
        tail = np.empty((2, n_sites), dtype=complex)
        tail[:, 1:] = upto[:, 0, :-1] * col[0] + upto[:, 1, :-1] * col[1]
        tail[:, 0] = col
        d_phi, d_mom = lax_derivatives("time", samples, sp, field.params)
        da_dphi = head[0] * d_phi[:, 0, 1] * tail[1]
        da_dphi += head[1] * d_phi[:, 1, 0] * tail[0]
        da_dmom = head[0] * d_mom[:, 0, 0] * tail[0]
        da_dmom += head[1] * d_mom[:, 1, 1] * tail[1]
        grads.append((delta * da_dphi, delta * da_dmom))
    (dphi1, dmom1), (dphi2, dmom2) = grads
    return float(abs(np.sum(dphi1 * dmom2 - dmom1 * dphi2) / delta))


@pytest.mark.parametrize("n_sites", [200, 401, 1600])
def test_involution_with_one_scan_alive_is_bitwise_the_two_scan_form(n_sites):
    sps = (spectral(1.5, P11), spectral(0.8, P11))
    pair = bt_kink_from_vacuum(P11, DefectParams(2.0))
    cases = ((make_kink(P11, v=0.4), 0.7, 20.0), (make_kink(P11, v=-0.3, x0=0.2), 0.7, 20.0), (pair.right, 0.5, 14.0), (pair.left, -0.5, 14.0))
    for field, x, span in cases:
        for pts in (sps, sps[::-1]):
            want = _involution_with_both_scans(field, x, pts, n_sites, (-span, span))
            assert involution_check(field, x, pts, n_sites, (-span, span)).hex() == want.hex()


def _traced_peak(call):
    call()  # imports and cached tables
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_involution_holds_one_scan_at_a_time():
    # V and both scans of a point alive together peaked at 1.12 MB
    kink = make_kink(P11, v=0.4)
    sps = (spectral(1.5, P11), spectral(0.8, P11))
    assert _traced_peak(lambda: involution_check(kink, 0.7, sps, 1600, (-20.0, 20.0))) < 0.8e6


def test_transition_bracket_holds_one_block_at_a_time():
    # five (n, 4, 4) stacks of the whole lattice peaked at 1.00 MB
    kink = make_kink(P11, v=0.4)
    assert _traced_peak(lambda: transition_bracket_check(kink, 0.0, (-5.0, 5.0), spectral(1.3, P11), spectral(0.7, P11), 800)) < 0.6e6


@pytest.mark.parametrize("n_sites", [100, 401])
def test_bracket_report_does_not_depend_on_the_block_size(monkeypatch, n_sites):
    kink = make_kink(P11, v=0.4)
    check = lambda: np.array(transition_bracket_check(kink, 0.0, (-5.0, 5.0), spectral(1.3, P11), spectral(0.7, P11), n_sites)).tobytes()
    want = check()
    for block in (1, 7, 128, n_sites, n_sites + 1):
        monkeypatch.setattr(rmatrix, "_BLOCK", block)
        assert check() == want


@pytest.mark.parametrize("n_sites", [0, 1, 50, 99, 2.5, 150.5, 400.0, True, np.float64(200.0)])
def test_lattice_site_counts_are_refused_before_sampling(monkeypatch, n_sites):
    kink = make_kink(P11, v=0.4)
    calls = []
    sample = KinkField.sample
    monkeypatch.setattr(KinkField, "sample", lambda self, x, t: calls.append(1) or sample(self, x, t))
    sps = (spectral(1.5, P11), spectral(0.8, P11))
    with pytest.raises(ValueError, match=re.escape(f"at least 100 sites, got {n_sites!r}")):
        involution_check(kink, 0.7, sps, n_sites, (-20.0, 20.0))
    with pytest.raises(ValueError, match=re.escape(f"at least 100 sites, got {n_sites!r}")):
        transition_bracket_check(kink, 0.0, (-5.0, 5.0), *sps, n_sites)
    assert calls == []


def test_numpy_integer_site_counts_are_accepted():
    kink = make_kink(P11, v=0.4)
    sps = (spectral(1.5, P11), spectral(0.8, P11))
    assert involution_check(kink, 0.7, sps, np.int64(400), (-20.0, 20.0)) == involution_check(kink, 0.7, sps, 400, (-20.0, 20.0))
    assert transition_bracket_check(kink, 0.0, (-5.0, 5.0), *sps, np.int32(100)).n_sites == 100


@pytest.mark.parametrize("picture", ["space", "time"])
def test_lax_derivatives_over_arrays_match_per_site_calls(picture):
    kink = make_kink(P11, v=0.4, x0=0.3)
    samples = Line(kink, "time", 0.7).at(np.linspace(-10.0, 10.0, 401))
    sp = spectral(1.3, P11)
    d_phi, d_mom = lax_derivatives(picture, samples, sp, P11)
    per_site = [
        lax_derivatives(picture, FieldSample(float(p), float(px), float(pt)), sp, P11)
        for p, px, pt in zip(samples.phi, samples.phi_x, samples.phi_t)
    ]
    assert np.array_equal(d_phi, np.array([d[0] for d in per_site]))
    assert np.array_equal(d_mom, np.array([d[1] for d in per_site]))


def test_site_products_match_sequential_loop(monkeypatch):
    kink = make_kink(P11, v=0.4)
    sp = spectral(1.3, P11)
    n, delta = 101, 0.1
    t_sites = -5.0 + (np.arange(n) + 0.5) * delta
    points = Line(kink, "time", 0.2).points(t_sites)
    made = []

    def recording_expm(u):
        made.append(expm_su2(u))
        return made[-1]

    monkeypatch.setattr(rmatrix, "expm_su2", recording_expm)
    v, prefix, suffix, total = _site_products(kink.sample(*points), sp, P11, delta)
    lattice = np.moveaxis(made[0], -1, 0)  # the (n, 2, 2) stack of site factors
    assert len(made) == 1
    assert np.max(np.abs(det2(lattice) - 1.0)) <= 1e-15
    assert np.max(np.abs(np.conj(np.swapaxes(lattice, -1, -2)) @ lattice - ID2)) <= 1e-15
    steps = expm_antihermitian(delta * build_V(kink, *points, sp))
    assert np.max(np.abs(lattice - steps)) <= 1e-14
    acc = ID2
    for i in range(n):
        assert np.max(np.abs(prefix[i] - acc)) < 1e-13
        acc = steps[i] @ acc
    assert np.max(np.abs(total - acc)) < 1e-13
    acc = ID2
    for i in range(n - 1, -1, -1):
        assert np.max(np.abs(suffix[i] - acc)) < 1e-13
        acc = acc @ steps[i]


def test_lattice_checks_refuse_non_real_lambda():
    # the site factors exp(delta V) are su(2) elements, which delta V is only at real lambda
    kink = make_kink(P11, v=0.4)
    real = spectral(0.8, P11)
    for lam in (1.3 + 0.2j, -0.8j, 2000j):
        sp = spectral(lam, P11)
        calls = (
            lambda: transition_bracket_check(kink, 0.0, (-5.0, 5.0), sp, real, 400),
            lambda: transition_bracket_check(kink, 0.0, (-5.0, 5.0), real, sp, 400),
            lambda: involution_check(kink, 0.7, (sp, real), 400, (-20.0, 20.0)),
            lambda: involution_check(kink, 0.7, (real, sp), 400, (-20.0, 20.0)),
        )
        for call in calls:
            with pytest.raises(ValueError, match="real lambda"):
                call()


def test_each_check_samples_the_lattice_once(monkeypatch):
    kink = make_kink(P11, v=0.4)
    sizes = []
    sample = KinkField.sample

    def counting_sample(self, x, t):
        sizes.append(np.broadcast(x, t).size)  # a line passes its fixed coordinate as a scalar
        return sample(self, x, t)

    monkeypatch.setattr(KinkField, "sample", counting_sample)
    sps = (spectral(1.5, P11), spectral(0.8, P11))
    involution_check(kink, 0.7, sps, 800, (-20.0, 20.0))
    assert sizes == [800]
    sizes.clear()
    transition_bracket_check(kink, 0.0, (-5.0, 5.0), *sps, 400)
    assert sizes == [400]
