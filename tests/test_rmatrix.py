import numpy as np
import pytest

from sgdual.fields import FieldSample, KinkField, Line, ModelParams, make_kink, make_vacuum
from sgdual.lax import build_V, spectral
from sgdual.matcore import ID2, expm_sl2
from sgdual.defect import DefectParams, bt_kink_from_vacuum
from sgdual.rmatrix import (
    BracketReport,
    _site_products,
    involution_check,
    lax_derivatives,
    r_matrix,
    r_matrix_trig,
    transition_bracket_check,
    ultralocal_check,
)

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


def test_site_products_match_sequential_loop():
    kink = make_kink(P11, v=0.4)
    sp = spectral(1.3, P11)
    n, delta = 101, 0.1
    t_sites = -5.0 + (np.arange(n) + 0.5) * delta
    points = Line(kink, "time", 0.2).points(t_sites)
    v, prefix, suffix, total = _site_products(kink.sample(*points), sp, P11, delta)
    gen = delta * build_V(kink, *points, sp)
    steps = np.moveaxis(expm_sl2(gen[:, 0, 0], gen[:, 0, 1], gen[:, 1, 0]), -1, 0)
    acc = ID2
    for i in range(n):
        assert np.max(np.abs(prefix[i] - acc)) < 1e-13
        acc = steps[i] @ acc
    assert np.max(np.abs(total - acc)) < 1e-13
    acc = ID2
    for i in range(n - 1, -1, -1):
        assert np.max(np.abs(suffix[i] - acc)) < 1e-13
        acc = acc @ steps[i]


def test_each_check_samples_the_lattice_once(monkeypatch):
    kink = make_kink(P11, v=0.4)
    sizes = []
    sample = KinkField.sample

    def counting_sample(self, x, t):
        sizes.append(np.size(x))
        return sample(self, x, t)

    monkeypatch.setattr(KinkField, "sample", counting_sample)
    sps = (spectral(1.5, P11), spectral(0.8, P11))
    involution_check(kink, 0.7, sps, 800, (-20.0, 20.0))
    assert sizes == [800]
    sizes.clear()
    transition_bracket_check(kink, 0.0, (-5.0, 5.0), *sps, 400)
    assert sizes == [400]
