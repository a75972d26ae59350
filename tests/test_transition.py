import gc
import inspect
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from sgdual import defect, transition
from sgdual.cli import ScenarioConfig
from sgdual.fields import FieldSample, KinkField, Line, ModelParams, NonDecayingFieldError, VacuumField, make_kink, make_vacuum
from sgdual.lax import ce0, e0, hat_entries, spectral
from sgdual.matcore import _MU_SMALL, SIGMA2, _mul, comm, det2, expm_su2, frob, inv2, scan
from sgdual.suites import run_suite
from sgdual.transition import (
    MAX_STEPS,
    _CHUNK,
    _NODES,
    _SLOT_CAP,
    _combinations,
    _line_work,
    _mesh,
    _regularised,
    _TRAJECTORY_CHUNK,
    _su2_steps,
    _trajectory,
    appendix_equality_residuals,
    default_nsteps,
    jost,
    monodromies,
    monodromy,
    propagate,
)

from oracles import expm_antihermitian

P11 = ModelParams(1.0, 1.0)
SP13 = spectral(1.3, P11)


def propagate_trajectory(field, picture, fixed, start, stop, sp, nsteps):
    """(grid, Psi at every grid point): the chunks of transition._trajectory collected with np.concatenate."""
    psi = np.concatenate(list(_trajectory(field, picture, fixed, start, stop, sp, nsteps)))
    return np.linspace(start, stop, nsteps + 1), psi


def u_inf(sp):
    return -1j * sp.k1 * SIGMA2  # the space generator on a vacuum


def test_vacuum_propagation_is_constant_exponential():
    vac = make_vacuum(P11)
    res = propagate(vac, "space", 0.0, -10.0, 7.0, SP13, 2000)
    gen = 17.0 * u_inf(SP13)
    assert frob(res.matrix - expm_antihermitian(gen)) < 1e-10


def test_composition_on_kink():
    kink = make_kink(P11, v=0.4)
    full = propagate(kink, "space", 0.0, -20.0, 20.0, SP13, 4000).matrix
    left = propagate(kink, "space", 0.0, -20.0, 3.0, SP13, 2300).matrix
    right = propagate(kink, "space", 0.0, 3.0, 20.0, SP13, 1700).matrix
    assert frob(right @ left - full) < 1e-8


def test_unimodular_on_kink():
    kink = make_kink(P11, v=0.4)
    res = propagate(kink, "space", 0.0, -20.0, 20.0, SP13, 4000)
    assert abs(det2(res.matrix) - 1.0) < 1e-9


def test_trajectory_endpoint_matches_propagate():
    kink = make_kink(P11, v=0.4)
    grid, psi = propagate_trajectory(kink, "time", 0.5, -8.0, 8.0, SP13, 600)
    direct = propagate(kink, "time", 0.5, -8.0, 8.0, SP13, 600).matrix
    assert grid[0] == -8.0 and grid[-1] == 8.0
    assert frob(psi[-1] - direct) < 1e-12


def test_propagation_refuses_non_real_lambda():
    # the Magnus steps are su(2) elements, which the gauged generator is only at real lambda
    kink = make_kink(P11, v=0.4)
    for lam in (2000j, 1.3 + 0.2j, -0.8j):
        sp = spectral(lam, P11)
        calls = (
            lambda: propagate(kink, "space", 0.0, -40.0, 40.0, sp, 16),
            lambda: propagate(kink, "space", 0.0, 3.0, 3.0, sp),
            lambda: propagate_trajectory(kink, "time", 0.5, -8.0, 8.0, sp, 16),
            lambda: monodromy(kink, "space", 0.0, 30.0, sp),
            lambda: monodromy(make_kink(P11, v=0.0), "time", 0.2, 30.0, sp),  # before the vacuum check
            lambda: jost(kink, "time", 0.5, 0.2, sp, 30.0),
        )
        for call in calls:
            with pytest.raises(ValueError, match="real lambda"):
                call()


class _NaNVacuum(VacuumField):
    """A vacuum whose phi samples are NaN, so every Magnus exponent is non-finite."""

    def sample(self, x, t):
        s = super().sample(x, t)
        return FieldSample(s.phi + np.nan, s.phi_x, s.phi_t)


def test_nonfinite_exponent_raises():
    with pytest.raises(FloatingPointError):
        propagate(_NaNVacuum(P11), "space", 0.0, -5.0, 5.0, SP13, 16)


def _su2_batch(line, base, h, sp):
    """The su(2) transfer matrices of the steps at bases base and sizes h, as a (2, 2, n) batch."""
    return _su2_steps(_combinations(line, base, h), h, line, [sp])[:, :, 0]


def _sequential_loop(line, start, stop, n, graded):
    """Psi at every edge of the mesh, from one unchunked batch of its steps multiplied up one at a time."""
    base, h = _mesh(_line_work(line, start, stop) if graded else None, start, stop, SP13, n)[1](0, n)
    steps = np.moveaxis(_su2_batch(line, base, h, SP13), -1, 0)
    ref = np.empty((n + 1, 2, 2), dtype=complex)
    ref[0] = np.eye(2)
    for k in range(n):
        ref[k + 1] = steps[k] @ ref[k]
    return ref


@pytest.mark.parametrize("n", [1, 2, 3, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2**14 - 1, 2**14, 2**14 + 1])
def test_trajectory_and_chunked_product_match_sequential_loop(n):
    kink = make_kink(P11, v=0.4)
    line, start, stop = Line(kink, "time", 0.5), -6.0, 6.0
    ref = _sequential_loop(line, start, stop, n, graded=False)
    grid, psi = propagate_trajectory(kink, "time", 0.5, start, stop, SP13, n)
    assert np.array_equal(grid, np.linspace(start, stop, n + 1))
    rel = np.max(np.abs(psi - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
    assert np.max(rel) < 1e-13
    ref_total = _sequential_loop(line, start, stop, n, graded=True)[-1]
    total = propagate(kink, "time", 0.5, start, stop, SP13, n).matrix
    assert np.max(np.abs(total - ref_total)) < 1e-13 * np.max(np.abs(ref_total))


@pytest.mark.parametrize("n", [1, 2, _TRAJECTORY_CHUNK - 1, _TRAJECTORY_CHUNK, _TRAJECTORY_CHUNK + 1, 3 * _TRAJECTORY_CHUNK + 7])
def test_streamed_trajectory_is_bitwise_one_scan_of_all_steps(n):
    kink = make_kink(P11, v=0.4)
    line, start, stop = Line(kink, "space", 0.3), 9.0, -7.0
    base, h = _mesh(None, start, stop, SP13, n)[1](0, n)
    want = np.concatenate((np.eye(2, dtype=complex)[None], np.moveaxis(scan(_su2_batch(line, base, h, SP13)), -1, 0)))
    chunks = list(_trajectory(kink, "space", 0.3, start, stop, SP13, n))
    assert [len(psi) for psi in chunks] == [min(_TRAJECTORY_CHUNK, n - first) + (first == 0) for first in range(0, n, _TRAJECTORY_CHUNK)]
    assert np.concatenate(chunks).tobytes() == want.tobytes()


@pytest.mark.parametrize("nsteps", [0, -3, 2.5, 10.0, True])
@pytest.mark.parametrize("stepper", [propagate, propagate_trajectory])
def test_step_counts_below_one_are_refused(stepper, nsteps):
    with pytest.raises(ValueError, match="nsteps"):
        stepper(make_kink(P11, v=0.4), "space", 0.0, -5.0, 5.0, SP13, nsteps)


def _count_kink_samples(monkeypatch):
    sample, calls = KinkField.sample, []

    def counting(field, x, t):
        calls.append(np.shape(x))
        return sample(field, x, t)

    monkeypatch.setattr(KinkField, "sample", counting)
    return calls


@pytest.mark.parametrize("half_width", [0.0, -40.0, math.nan, math.inf, -math.inf])
def test_bad_half_widths_are_refused_before_any_probe(monkeypatch, half_width):
    # a negative W walks the line backwards (the conjugate a(lambda)) and puts jost's boundary data at the wrong end
    calls = _count_kink_samples(monkeypatch)
    kink = make_kink(P11, v=0.4)
    with pytest.raises(ValueError, match="half-width must be positive and finite"):
        monodromy(kink, "space", 0.0, half_width, spectral(0.5, P11))
    with pytest.raises(ValueError, match="half-width must be positive and finite"):
        jost(kink, "time", 0.5, 0.2, SP13, half_width)
    assert calls == []


@pytest.mark.parametrize("half_width", [0.0, -40.0, math.nan, math.inf, -math.inf])
def test_bad_splitting_half_widths_are_refused_before_any_trajectory(monkeypatch, half_width):
    # a negative W used to run both half-line trajectories from the wrong sides before jost refused it
    pair, starts = defect.bt_kink_from_vacuum(P11, defect.DefectParams(2.0)), []

    def recording(field, picture, fixed, start, stop, sp, nsteps):
        starts.append(start)
        return _trajectory(field, picture, fixed, start, stop, sp, nsteps)

    monkeypatch.setattr(defect, "_trajectory", recording)
    calls = _count_kink_samples(monkeypatch)
    with pytest.raises(ValueError, match="half-width must be positive and finite"):
        defect.defect_splitting_check(pair, 0.7, spectral(1.5, P11), half_width)
    assert starts == [] and calls == []


@pytest.mark.parametrize("half_width", [-40.0, -1e-300, math.nan, math.inf, -math.inf])
def test_default_nsteps_refuses_negative_and_nonfinite_half_widths(half_width):
    with pytest.raises(ValueError, match="half-width must be non-negative and finite"):
        default_nsteps(half_width, SP13)


def test_an_empty_interval_still_takes_no_steps():
    # _mesh asks default_nsteps for the count of an empty interval, W = 0, which takes the floor
    assert default_nsteps(0.0, SP13) == 64
    res = propagate(make_kink(P11, v=0.4), "space", 0.0, 2.5, 2.5, SP13)
    assert res.step_count == 0 and np.array_equal(res.matrix, np.eye(2))


@pytest.mark.parametrize("start, stop", [(math.nan, 5.0), (-5.0, math.inf), (-math.inf, 0.0)])
@pytest.mark.parametrize("stepper", [propagate, propagate_trajectory])
def test_nonfinite_ends_are_refused_before_any_probe(monkeypatch, stepper, start, stop):
    calls = _count_kink_samples(monkeypatch)
    with pytest.raises(ValueError, match="start and stop must be finite"):
        stepper(make_kink(P11, v=0.4), "space", 0.0, start, stop, SP13, 16)
    assert calls == []


def test_numpy_integer_step_counts_are_accepted():
    kink = make_kink(P11, v=0.4)
    for stepper in (propagate, propagate_trajectory):
        want = stepper(kink, "space", 0.0, -5.0, 5.0, SP13, 64)
        got = stepper(kink, "space", 0.0, -5.0, 5.0, SP13, np.int64(64))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _pairwise_tree(e):
    """The pairwise tree reduction that concatenates an odd level's last entry to the next level."""
    while e.shape[-1] > 1:
        n = e.shape[-1]
        paired = _mul(e[..., 1 : n - n % 2 : 2], e[..., 0 : n - n % 2 : 2])
        e = np.concatenate([paired, e[..., n - 1 :]], axis=-1) if n % 2 else paired
    return e


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 11, 13, 29, 64, 77, 1949])
def test_ordered_product_is_the_pairwise_tree_bitwise(n):
    rng = np.random.default_rng(n)
    steps = expm_su2(rng.uniform(-0.05, 0.05, size=(3, n)))
    got = transition._ordered_product(steps)
    assert got.shape == (2, 2, 1) and got.tobytes() == _pairwise_tree(steps).tobytes()


def test_outputs_do_not_depend_on_the_chunk_size(monkeypatch):
    # chunk products fold in the pairwise tree's order, so any power-of-two chunk gives the single tree's bits
    kink, vac, sp = make_kink(P11, v=KINK_V), make_vacuum(P11), spectral(0.005, P11)
    outputs = []
    for chunk in (64, 2**11, 2**14):
        monkeypatch.setattr(transition, "_CHUNK", chunk)
        got = [
            monodromy(kink, "space", 0.0, 40.0, sp),  # 9852 steps
            monodromy(kink, "time", 0.3, 50.0, sp),  # 23181 steps
            jost(kink, "space", 0.5, 0.0, sp, 40.0),
            propagate(kink, "time", 0.5, -6.0, 6.0, SP13, 6001),
            propagate(vac, "space", 0.0, -10.0, 7.0, SP13, 5000),  # a uniform mesh
        ]
        assert min(out.step_count for out in got[:2] + got[3:]) >= 5000
        outputs.append([np.asarray(out[0] if isinstance(out, tuple) else out).tobytes() for out in got])
    assert outputs[0] == outputs[1] == outputs[2]


def test_small_lambda_monodromy_memory_is_bounded():
    # nsteps grows as 1/lambda (about 49k steps here); chunks of 2^11 steps keep the peak flat
    v = 0.4
    mu = math.sqrt((1 - v) / (1 + v))
    lam = 1e-3
    kink = make_kink(P11, v=v)
    tracemalloc.start()
    try:
        mono = monodromy(kink, "space", 0.0, 40.0, spectral(lam, P11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8e6
    # Magnus truncation at the default step density, which scales like lambda
    assert abs(mono.a_entry - (lam - 1j * mu) / (lam + 1j * mu)) < 1e-9


def test_vacuum_monodromy_is_identity():
    vac = make_vacuum(P11)
    for picture in ("space", "time"):
        mono = monodromy(vac, picture, 0.0, 20.0, SP13)
        assert frob(mono.matrix - np.eye(2)) < 1e-10
        assert abs(mono.a_entry - 1.0) < 1e-10
        assert not mono.truncated


def test_kink_monodromy_half_width_convergence():
    kink = make_kink(P11, v=0.4)
    m25 = monodromy(kink, "space", 0.0, 25.0, SP13)
    m35 = monodromy(kink, "space", 0.0, 35.0, SP13)
    assert np.max(np.abs(m25.matrix - m35.matrix)) < 1e-7


def test_space_monodromy_time_invariant():
    kink = make_kink(P11, v=0.4)
    sps = [spectral(lam, P11) for lam in (0.5, 1.0, 2.0)]
    for vals in zip(*(monodromies(kink, "space", t, 30.0, sps) for t in (0.0, 1.0, 2.0))):
        assert max(abs(v.a_entry - vals[0].a_entry) for v in vals) < 1e-6


def test_time_monodromy_space_invariant():
    kink = make_kink(P11, v=0.4)
    for x in (0.0, 0.5, 1.0):
        sp = spectral(1.3, P11)
        f = monodromy(kink, "time", x, 50.0, sp).a_entry
        f0 = monodromy(kink, "time", 0.0, 50.0, sp).a_entry
        assert abs(f - f0) < 1e-6


def test_kink_scattering_is_reflectionless_blaschke():
    # independent closed-form oracle: a(lambda) = (lambda - i mu)/(lambda + i mu),
    # mu = sqrt((1-v)/(1+v)), for the +1-oriented kink; fa is its reciprocal
    v = 0.4
    mu = np.sqrt((1 - v) / (1 + v))
    kink = make_kink(P11, v=v)
    lams = (0.5, 1.0, 2.0, 4.0)
    sps = [spectral(lam, P11) for lam in lams]
    for lam, a, fa in zip(lams, monodromies(kink, "space", 0.0, 30.0, sps), monodromies(kink, "time", 0.3, 50.0, sps)):
        assert abs(a.a_entry - (lam - 1j * mu) / (lam + 1j * mu)) < 1e-7
        assert abs(fa.a_entry - (lam + 1j * mu) / (lam - 1j * mu)) < 1e-7


def test_monodromy_truncation_error_when_asymptote_missing():
    static = make_kink(P11, v=0.0)
    with pytest.raises(NonDecayingFieldError):
        monodromy(static, "time", 0.2, 30.0, SP13)


def test_monodromy_truncation_flag_for_short_window():
    kink = make_kink(P11, v=0.0)
    mono = monodromy(kink, "space", 0.0, 12.0, SP13)
    assert mono.truncated  # identifiable asymptote, but farther than 1e-8


def test_jost_vacuum_is_plane_wave():
    vac = make_vacuum(P11)
    assert frob(jost(vac, "space", 0.7, 0.0, SP13, 20.0) - e0(0.7, SP13)) < 1e-12
    assert frob(jost(vac, "time", 0.0, -1.2, SP13, 20.0) - ce0(-1.2, SP13)) < 1e-12


def test_jost_half_width_convergence():
    kink = make_kink(P11, v=0.4)
    a = jost(kink, "space", 0.5, 0.2, spectral(1.7, P11), 20.0)
    b = jost(kink, "space", 0.5, 0.2, spectral(1.7, P11), 30.0)
    assert frob(a - b) < 1e-7


def test_jost_first_column_bounded_for_real_lambda():
    kink = make_kink(P11, v=0.4)
    sp = spectral(1.7, P11)
    grid, psi = propagate_trajectory(kink, "space", 0.0, -25.0, 25.0, sp, 4000)
    boundary = e0(-25.0, sp)
    cols = psi @ boundary
    norms = np.sqrt(np.abs(cols[:, 0, 0]) ** 2 + np.abs(cols[:, 1, 0]) ** 2)
    assert np.max(norms) < 5.0


def test_appendix_equality_vacuum():
    vac = make_vacuum(P11)
    assert appendix_equality_residuals(vac, 0.7, -0.3, [(spectral(1.7, P11), 20.0)])[0] < 1e-12


def test_appendix_equality_left_moving_kink():
    kink = make_kink(P11, v=-0.6)
    [r] = appendix_equality_residuals(kink, 1.0, 0.5, [(spectral(1.7, P11), 30.0)])
    assert r < 1e-6


def test_appendix_equality_decreases_with_half_width():
    kink = make_kink(P11, v=-0.4)
    sp = spectral(1.7, P11)
    r = appendix_equality_residuals(kink, 1.0, 0.5, [(sp, w) for w in (15.0, 25.0, 35.0)])
    assert r[0] > r[1] > r[2]


def test_appendix_mismatch_for_right_mover_is_constant_transmission():
    # when the kink occupies the past corner the two Jost solutions differ by
    # the constant diag(a, conj-type) factor; verifies the constancy
    kink = make_kink(P11, v=0.4)
    sp = spectral(1.7, P11)

    def connecting(x, t):
        ps = jost(kink, "space", x, t, sp, 30.0) @ np.diag(
            [np.exp(-1j * sp.k0 * t), np.exp(1j * sp.k0 * t)]
        )
        ph = jost(kink, "time", x, t, sp, 30.0) @ np.diag(
            [np.exp(-1j * sp.k1 * x), np.exp(1j * sp.k1 * x)]
        )
        return np.linalg.solve(ph, ps)

    c1 = connecting(1.0, 0.5)
    c2 = connecting(-0.7, 1.3)
    assert frob(c1 - c2) < 1e-5
    mu = np.sqrt(0.6 / 1.4)
    assert abs(c1[0, 0] - (1.7 - 1j * mu) / (1.7 + 1j * mu)) < 1e-5


def test_default_nsteps_scales_with_frequency():
    assert default_nsteps(30.0, spectral(4.0, P11)) > default_nsteps(30.0, spectral(1.0, P11))


def test_default_nsteps_refuses_counts_past_the_cap():
    # the count is W max(|k0|, |k1|, m) STEP_DENSITY / pi, about 4.2 W / lambda at small lambda
    lam_cap = 30.0 * (200.0 / 3.0) / (4.0 * math.pi * MAX_STEPS)
    assert default_nsteps(30.0, spectral(1.01 * lam_cap, P11)) <= MAX_STEPS
    for lam in (0.99 * lam_cap, 1e-300, 1e20, 1e-320):
        with pytest.raises(ValueError, match="Magnus steps"):
            default_nsteps(30.0, spectral(lam, P11))


def test_vacuum_monodromy_is_identity_for_negative_beta():
    params = ModelParams(1.0, -1.0)
    vac = make_vacuum(params)
    for picture in ("space", "time"):
        mono = monodromy(vac, picture, 0.0, 20.0, spectral(1.3, params))
        assert frob(mono.matrix - np.eye(2)) < 1e-10
        assert not mono.truncated


KINK_V = 0.4
KINK_MU = math.sqrt((1 - KINK_V) / (1 + KINK_V))


def _blaschke_gap(lam, nsteps=None, picture="space", half_width=40.0):
    """Gap of a (space, t = 0) or fa (time, x = 0.3) to its Blaschke factor; fa is the reciprocal.

    nsteps=None is the monodromy at its default count; a forced count is
    propagated and regularised by the line's plane-wave normalisers.
    """
    kink = make_kink(P11, v=KINK_V)
    fixed, sign = (0.0, 1.0) if picture == "space" else (0.3, -1.0)
    sp = spectral(lam, P11)
    if nsteps is None:
        a = monodromy(kink, picture, fixed, half_width, sp).a_entry
    else:
        normaliser = Line(kink, picture, fixed).pick(e0, ce0)
        core = propagate(kink, picture, fixed, -half_width, half_width, sp, nsteps).matrix
        a = (inv2(normaliser(half_width, sp)) @ core @ normaliser(-half_width, sp))[0, 0]
    return abs(a - (lam - sign * 1j * KINK_MU) / (lam + sign * 1j * KINK_MU))


def test_magnus_step_is_sixth_order():
    # each halving of h shrinks the Blaschke gap by 2^6 (2^4 for a fourth-order step)
    ns = np.array([125, 250, 500, 1000])
    gaps = np.array([_blaschke_gap(0.2, int(n)) for n in ns])
    slope = -np.polyfit(np.log2(ns), np.log2(gaps), 1)[0]
    assert abs(slope - 6.0) < 0.5


def test_default_steps_reach_blaschke_oracle_over_lambda_range():
    for picture, half_width in (("space", 40.0), ("time", 50.0)):
        worst = max(_blaschke_gap(lam, None, picture, half_width) for lam in np.geomspace(0.01, 5.0, 30))
        assert worst <= 2e-8, picture


@pytest.mark.parametrize("lam", [0.2, 1.0, 50.0])
def test_graded_count_ignores_settled_tails(lam):
    # the count follows the integral of the step weight, which the settled tails barely add to;
    # a uniform mesh doubles its count with the window
    kink, sp = make_kink(P11, v=KINK_V), spectral(lam, P11)
    m40, m80 = (monodromy(kink, "space", 0.0, w, sp) for w in (40.0, 80.0))
    assert m80.step_count <= 1.1 * m40.step_count
    smallest, largest = m80.step_range
    assert largest > 10.0 * smallest  # short steps across the kink, long ones in the tails
    assert _blaschke_gap(lam, None, "space", 80.0) <= 2e-8


def test_monodromy_reports_its_step_count():
    sp = spectral(1.3, P11)
    mono = monodromy(make_vacuum(P11), "space", 0.0, 20.0, sp)
    # (200/3) W max(|k0|, |k1|, m) / pi steps, and m = 1 is the largest rate at lambda = 1.3
    assert mono.step_count == default_nsteps(20.0, sp) == math.ceil((200.0 / 3.0) * 20.0 / math.pi)
    assert propagate(make_vacuum(P11), "space", 0.0, -20.0, 20.0, sp, 100).step_count == 100


def test_only_the_kernels_take_a_step_count():
    # every other public function and class steps at the count derived from the solution
    def takes_a_count(obj):
        if not (inspect.isfunction(obj) or inspect.isclass(obj) and not issubclass(obj, BaseException)):
            return False
        return "nsteps" in inspect.signature(obj).parameters

    takers = {
        f"{module.__name__}.{name}"
        for module in (transition, defect)
        for name in module.__all__
        if takes_a_count(getattr(module, name))
    }
    assert takers == {"sgdual.transition.propagate"}


class _CountingKink(KinkField):
    """A kink that records the shape of every sample it is asked for, and counts its derivative calls."""

    def __init__(self, *args):
        super().__init__(*args)
        self.sampled = []
        self.derivatives = 0

    def sample(self, x, t):
        self.sampled.append(np.shape(x))
        return super().sample(x, t)

    def derivative(self, x, t, dx, dt):
        self.derivatives += 1
        return super().derivative(x, t, dx, dt)


def test_line_memo_hit_equals_a_cold_call_on_a_fresh_field():
    # the slot serves one line at a time, so each walker takes its whole lambda list on its own line
    sp = spectral(0.7, P11)
    walkers = (
        lambda field, sp: monodromy(field, "space", 0.0, 40.0, sp),
        lambda field, sp: jost(field, "space", 0.5, 0.0, sp, 40.0),
    )
    for walk in walkers:
        warm = _CountingKink(P11, KINK_V, 0.2, 1)
        for lam in np.geomspace(0.3, 3.0, 12):
            walk(warm, spectral(lam, P11))
        warm.sampled.clear()
        hit = walk(warm, sp)
        assert warm.sampled == []  # 0.7 shares the last lambda's count: neither the probe nor the nodes are sampled
        cold = _CountingKink(P11, KINK_V, 0.2, 1)
        miss = walk(cold, sp)
        assert [len(shape) for shape in cold.sampled] == [1, 2]  # the probe, then all three nodes in one call
        assert cold.derivatives == 0  # the vacuum ends are read off the probe
        if isinstance(hit, np.ndarray):
            assert np.array_equal(hit, miss)
        else:
            assert np.array_equal(hit.matrix, miss.matrix)
            assert (hit.tail_deviation, hit.truncated, hit.step_count, hit.step_range) == (
                miss.tail_deviation, miss.truncated, miss.step_count, miss.step_range
            )


def test_tail_deviation_is_the_closed_form_kink_tail():
    # phi sits (4/beta) arctan(exp(-m gamma W)) from its vacuum at both ends of [-W, W]
    kink = make_kink(P11, v=KINK_V)
    mono = monodromy(kink, "space", 0.0, 12.0, SP13)
    tail = (4.0 / P11.beta) * math.atan(math.exp(-P11.m * kink.gamma * 12.0))
    assert mono.tail_deviation == pytest.approx(tail, rel=1e-9)
    assert mono.truncated


def test_line_memo_keeps_no_error():
    # at W = 5 the kink still sits on the time line at x = 1: no vacuum at t = 5
    kink = make_kink(P11, v=KINK_V)
    for lam in (0.5, 0.5, 2.0):
        with pytest.raises(NonDecayingFieldError):
            monodromy(kink, "time", 1.0, 5.0, spectral(lam, P11))
    # the slot kept the line's probe, and nothing of the error
    slot = transition._slot
    assert slot.key == (weakref.ref(kink), "time", 1.0, -5.0, 5.0)
    assert all(isinstance(value, (tuple, np.ndarray, type(None))) for value in vars(slot).values())


def test_line_memo_is_bounded_and_keeps_no_field_alive():
    kinks = [make_kink(P11, v=KINK_V, x0=0.01 * k) for k in range(100)]
    for kink in kinks:
        monodromy(kink, "space", 0.0, 20.0, SP13)
        assert transition._slot.key[0]() is kink  # one slot, for the last line walked
    ref = weakref.ref(kinks[-1])
    del kink, kinks
    gc.collect()
    assert ref() is None and transition._slot.key[0]() is None
    # a probe longer than _PROBE_CAP points is not held, and empties the slot
    propagate(make_kink(P11, v=KINK_V), "space", 0.0, -2e4, 2e4, SP13, 64)
    assert transition._slot is None


def test_monodromy_peak_memory_at_small_lambda():
    # lambda = 0.01 takes about 4900 steps, the longest mesh of a lambda sweep
    sp = spectral(0.01, P11)
    monodromy(make_kink(P11, v=KINK_V), "space", 0.0, 40.0, sp)  # imports and cached tables
    kink = make_kink(P11, v=KINK_V)
    tracemalloc.start()
    try:
        monodromy(kink, "space", 0.0, 40.0, sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 0.384 MB measured, plus a 36 KB margin; broadcast products on the chunk tree's long levels took it to 0.433 MB
    assert peak <= 0.42e6


def test_a_wide_monodromy_keeps_its_probe_in_the_slot():
    # W = 2000 probes 4367 points, more than a chunk of steps: the second call samples no probe
    kink = _CountingKink(P11, KINK_V, 0.0, 1)
    for _ in range(2):
        monodromy(kink, "space", 0.0, 2000.0, SP13)
    probes = [shape for shape in kink.sampled if len(shape) == 1]
    assert probes == [(4367,)] and 4367 > _CHUNK


@pytest.mark.parametrize("lams, samples", [([1.3], 2), ([0.5, 1.3, 2.5, 4.0, 0.25], 6)])
def test_a_probe_too_long_for_the_slot_is_sampled_once_per_call(lams, samples):
    # W = 1e4 probes 21824 points, above _PROBE_CAP: the vacuum check and every mesh read one probe,
    # and each lambda samples its nodes once (counts 1625 x 3 and 1726 x 2, each above _CHUNK / 2, so none batch)
    kink = _CountingKink(P11, KINK_V, 0.0, 1)
    got = monodromies(kink, "space", 0.0, 1e4, [spectral(lam, P11) for lam in lams])
    assert [shape for shape in kink.sampled if len(shape) == 1] == [(21824,)]
    assert len(kink.sampled) == samples and transition._slot is None
    assert all(mono.step_count > _CHUNK // 2 for mono in got)


def test_every_walk_steps_a_list_of_spectral_points(monkeypatch):
    # one stepper: propagate, monodromy, jost, monodromies and the trajectories of the splitting check all hand _su2_steps a list
    kink, pair = make_kink(P11, v=KINK_V), defect.bt_kink_from_vacuum(P11, defect.DefectParams(2.0))
    steppers, su2_steps = [], transition._su2_steps
    monkeypatch.setattr(transition, "_su2_steps", lambda combos, h, line, sps, **kw: steppers.append(sps) or su2_steps(combos, h, line, sps, **kw))
    calls = {
        "propagate": lambda: propagate(kink, "time", 0.5, -6.0, 6.0, SP13, 300),
        "monodromy": lambda: monodromy(kink, "space", 0.0, 40.0, spectral(0.05, P11)),
        "jost": lambda: jost(kink, "space", 0.5, 0.0, SP13, 40.0),
        "monodromies": lambda: monodromies(kink, "time", 0.3, 50.0, [spectral(lam, P11) for lam in MIXED_LAMBDAS]),
        "defect_splitting_check": lambda: defect.defect_splitting_check(pair, 0.7, spectral(1.5, P11), 20.0),
    }
    for name, call in calls.items():
        steppers.clear()
        call()
        assert steppers and all(isinstance(sps, list) and sps for sps in steppers), name


def _line_of(picture):
    """The space line of the lambda sweep (t = 0, W = 40) or its time line (x = 0.3, W = 50), on a fresh counting kink."""
    fixed, half_width = (0.0, 40.0) if picture == "space" else (0.3, 50.0)
    return Line(_CountingKink(P11, KINK_V, 0.2, 1), picture, fixed), half_width


@pytest.mark.parametrize("picture", ["space", "time"])
def test_lambdas_that_share_a_count_share_the_mesh_and_the_nodes(picture):
    line, w = _line_of(picture)
    first, second = spectral(0.7, P11), spectral(1.3, P11)
    n, steps, _ = _mesh(_line_work(line, -w, w), -w, w, first)
    assert n <= _SLOT_CAP and _mesh(_line_work(line, -w, w), -w, w, second)[0] == n  # the rate is m at both
    edges = steps(0, n)
    again = _mesh(_line_work(line, -w, w), -w, w, second)[1](0, n)
    assert np.array_equal(edges[0], again[0]) and np.array_equal(edges[1], again[1])
    monodromy(line.field, picture, line.fixed, w, first)
    line.field.sampled.clear()
    hit = monodromy(line.field, picture, line.fixed, w, second)
    assert line.field.sampled == []  # neither the probe nor the nodes are sampled again
    cold = _CountingKink(P11, KINK_V, 0.2, 1)
    miss = monodromy(cold, picture, line.fixed, w, second)
    assert np.array_equal(hit.matrix, miss.matrix) and hit.step_count == miss.step_count == n


@pytest.mark.parametrize("picture", ["space", "time"])
@pytest.mark.parametrize("lam", [0.7, 2.5])
def test_slot_entries_equal_hat_entries_bitwise(picture, lam):
    # the slot keeps the lambda-free Magnus combinations of the node data; a hit must return a cold call's bits
    line, w = _line_of(picture)
    n, steps, work = _mesh(_line_work(line, -w, w), -w, w, SP13)
    monodromy(line.field, picture, line.fixed, w, SP13)
    assert transition._slot is work and work.combos[0] == n
    base, h = steps(0, n)
    combos = _combinations(line, base, h)
    assert work.combos[1].tobytes() == h.tobytes() and work.combos[2].tobytes() == combos.tobytes()
    sp = spectral(lam, P11)
    cold = _su2_batch(line, base, h, sp)
    hot = _su2_steps(work.combos[2], h, line, [sp])
    assert hot.tobytes() == cold.tobytes()
    assert work.combos[2].tobytes() == combos.tobytes()  # a hit leaves the slot as it was


def test_slot_holds_one_short_mesh_and_keeps_no_field_alive():
    kink = make_kink(P11, v=KINK_V)
    for lam in (1.3, 0.7, 0.2):
        monodromy(kink, "space", 0.0, 40.0, spectral(lam, P11))
        slot = transition._slot
        n, h, combos = slot.combos
        assert n <= _SLOT_CAP and h.shape == (n,) and combos.shape == (3, 3, n)
        assert slot.key == (weakref.ref(kink), "space", 0.0, -40.0, 40.0)
    # about 4900 steps on the same line: a mesh above the cap keeps the probe and drops the combinations
    monodromy(kink, "space", 0.0, 40.0, spectral(0.01, P11))
    assert transition._slot is slot and slot.combos is None
    ref = weakref.ref(kink)
    del kink
    gc.collect()
    assert ref() is None


def test_monodromy_suite_samples_the_nodes_of_each_line_once_per_count(monkeypatch):
    # on the kink demo, lambda = 0.5, 1 and 2 share a count on each of the four probe lines and 4 takes its own
    node_samples = []
    sample = KinkField.sample

    def counting(field, x, t):
        shape = np.broadcast(x, t).shape  # a line passes its fixed coordinate as a scalar
        if len(shape) == 2 and shape[0] == 3:
            node_samples.append(shape)
        return sample(field, x, t)

    monkeypatch.setattr(KinkField, "sample", counting)
    config = ScenarioConfig.load(Path(__file__).resolve().parents[1] / "demos" / "scenario_kink.json")
    assert run_suite("monodromy-conservation", config).passed
    assert len(node_samples) == 8  # 2 counts on each of 4 lines; 16 when the lines alternate per lambda


MIXED_LAMBDAS = [0.7, 1.3, 0.05, 2.5, 0.9, 4.0]  # counts 195 195 977 195 195 208 in space, 464 464 2323 464 464 493 in time


@pytest.mark.parametrize("picture", ["space", "time"])
def test_monodromies_equal_cold_per_lambda_calls_bitwise(picture):
    line, w = _line_of(picture)
    sps = [spectral(lam, P11) for lam in MIXED_LAMBDAS]
    got = monodromies(line.field, picture, line.fixed, w, sps)
    assert len({mono.step_count for mono in got}) == 3
    for sp, mono in zip(sps, got):
        cold = monodromy(_CountingKink(P11, KINK_V, 0.2, 1), picture, line.fixed, w, sp)  # a fresh field misses the slot
        assert np.array_equal(mono.matrix, cold.matrix)
        assert (mono.tail_deviation, mono.truncated, mono.step_count, mono.step_range) == (
            cold.tail_deviation, cold.truncated, cold.step_count, cold.step_range
        )


BATCH_LISTS = {
    "repeated": [0.7, 1.3, 0.7, 0.05, 1.3, 4.0, 0.7],
    "several-batches": list(np.linspace(0.6, 1.6, 30)),  # one count: 195 in space (3 batches), 464 in time (8 batches)
}


@pytest.mark.parametrize("picture", ["space", "time"])
@pytest.mark.parametrize("name", list(BATCH_LISTS))
def test_monodromy_batches_equal_cold_per_lambda_calls_bitwise(monkeypatch, picture, name):
    line, w = _line_of(picture)
    sps = [spectral(lam, P11) for lam in BATCH_LISTS[name]]
    steppers, su2_steps = [], transition._su2_steps
    monkeypatch.setattr(transition, "_su2_steps", lambda combos, h, line, sps, **kw: steppers.append(sps) or su2_steps(combos, h, line, sps, **kw))
    got = monodromies(line.field, picture, line.fixed, w, sps)
    monkeypatch.undo()
    if name == "several-batches":
        count = got[0].step_count
        assert len({mono.step_count for mono in got}) == 1 and 30 * count > 2 * _CHUNK
        assert [len(batch) for batch in steppers] == [len(sps[first : first + _CHUNK // count]) for first in range(0, 30, _CHUNK // count)]
    else:  # 0.7 and 1.3 share a count (in time, 4 x 464 steps fill a batch); 0.05 and 4 step alone, 0.05 in 2 chunks in time
        batches = [[0.7, 1.3, 0.7, 1.3, 0.7]] if picture == "space" else [[0.7, 1.3, 0.7, 1.3], [0.7]]
        alone = [[0.05], [4.0]] if picture == "space" else [[0.05], [0.05], [4.0]]
        assert [[sp.lam.real for sp in batch] for batch in steppers] == batches + alone
    for sp, mono in zip(sps, got):
        cold = monodromy(_CountingKink(P11, KINK_V, 0.2, 1), picture, line.fixed, w, sp)
        assert mono.matrix.tobytes() == cold.matrix.tobytes()
        assert (mono.tail_deviation, mono.truncated, mono.step_count, mono.step_range) == (
            cold.tail_deviation, cold.truncated, cold.step_count, cold.step_range
        )


@pytest.mark.parametrize("picture", ["space", "time"])
def test_monodromy_batches_on_a_vacuum_line_equal_cold_per_lambda_calls_bitwise(picture):
    # a vacuum steps on a uniform mesh, whose step size is one scalar
    sps = [spectral(lam, P11) for lam in (0.5, 0.9, 1.1, 2.0, 0.5, 3.0)]
    got = monodromies(make_vacuum(P11), picture, 0.3, 30.0, sps)
    assert len({mono.step_count for mono in got}) < len(sps)
    for sp, mono in zip(sps, got):
        cold = monodromy(make_vacuum(P11), picture, 0.3, 30.0, sp)
        assert mono.matrix.tobytes() == cold.matrix.tobytes()
        assert (mono.step_count, mono.step_range) == (cold.step_count, cold.step_range)


def test_appendix_residuals_equal_per_case_jost_residuals_bitwise():
    kink = make_kink(P11, -KINK_V, 0.0, 1)
    x, t = 1.0, 0.5
    cases = [(spectral(lam, P11), 40.0) for lam in (0.5, 1.0, 2.0, 4.0, 1.0)] + [(spectral(0.5, P11), w) for w in (15.0, 25.0, 35.0)]
    got = appendix_equality_residuals(kink, x, t, cases)
    for (sp, w), residual in zip(cases, got):
        fresh = make_kink(P11, -KINK_V, 0.0, 1)  # misses the slot
        space, time = (jost(fresh, picture, x, t, sp, w) for picture in ("space", "time"))
        ph_t = np.diag([np.exp(-1j * sp.k0 * t), np.exp(1j * sp.k0 * t)])
        ph_x = np.diag([np.exp(-1j * sp.k1 * x), np.exp(1j * sp.k1 * x)])
        assert residual.hex() == frob(space @ ph_t - time @ ph_x).hex()


def test_monodromies_peak_memory_over_a_long_lambda_list():
    # 200 lambda, 179 of them at the count 198: batches of 10 lambda x 198 steps, each at most _CHUNK
    sps = [spectral(lam, P11) for lam in np.geomspace(0.3, 5.0, 200)]
    monodromies(make_kink(P11, v=KINK_V), "space", 0.0, 40.0, sps[:2])  # imports and cached tables
    kink = make_kink(P11, v=KINK_V)
    tracemalloc.start()
    try:
        monodromies(kink, "space", 0.0, 40.0, sps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 0.452 MB measured, plus a 38 KB margin; 0.144 MB when each lambda stepped on its own, and 0.60 MB
    # when every lambda's mesh held its own scaled copy of the monitor integral
    assert peak <= 0.49e6


@pytest.mark.parametrize("where", [0, 2, 5])
def test_monodromies_refuse_a_non_real_lambda_anywhere_before_any_sample(where):
    kink = _CountingKink(P11, KINK_V, 0.2, 1)
    lams = [complex(lam) for lam in MIXED_LAMBDAS]
    lams[where] += 0.1j
    with pytest.raises(ValueError, match="real lambda"):
        monodromies(kink, "space", 0.0, 40.0, [spectral(lam, P11) for lam in lams])
    assert kink.sampled == []


def test_monodromies_of_an_empty_list_are_an_empty_list():
    kink = _CountingKink(P11, KINK_V, 0.2, 1)
    assert monodromies(kink, "space", 0.0, 40.0, []) == []
    assert kink.sampled == []
    with pytest.raises(ValueError, match="half-width"):
        monodromies(kink, "space", 0.0, -40.0, [])


def test_generating_relation_samples_the_nodes_of_each_line_once_per_count(monkeypatch):
    # on the defect demo's kink line (x = 0.7), lambda = 0.5, 1 and 2 share the count 279 and 4 takes 296
    node_samples = []
    sample = KinkField.sample

    def counting(field, x, t):
        shape = np.broadcast(x, t).shape  # a line passes its fixed coordinate as a scalar
        if len(shape) == 2 and shape[0] == 3:
            node_samples.append(shape)
        return sample(field, x, t)

    monkeypatch.setattr(KinkField, "sample", counting)
    config = ScenarioConfig.load(Path(__file__).resolve().parents[1] / "demos" / "scenario_defect.json")
    pair = defect.bt_kink_from_vacuum(config.params, defect.DefectParams(2.0), 0.0)
    report = defect.generating_relation_check(pair, 0.7, -1.3, [spectral(lam, config.params) for lam in config.lambdas], 40.0)
    assert report.winner(1e-4) == "ratio"
    assert len(node_samples) == 2  # 4 when the kink line and the vacuum line alternate per lambda


def test_appendix_suite_probes_each_jost_line_once(monkeypatch):
    # four half-widths (the span for every lambda, then 15, 25 and 35 at the first) in each picture: 8 lines
    probes = []
    sample = KinkField.sample

    def counting(field, x, t):
        shape = np.broadcast(x, t).shape  # a line passes its fixed coordinate as a scalar
        if len(shape) == 1:
            probes.append(shape)
        return sample(field, x, t)

    config = ScenarioConfig.load(Path(__file__).resolve().parents[1] / "demos" / "scenario_kink.json")
    monkeypatch.setattr(KinkField, "sample", counting)
    report = run_suite("appendix", config)
    monkeypatch.undo()
    assert report.passed
    assert len(probes) == 8  # 14 when each residual walks its space line, then its time line
    # the rows are the per-call residuals bitwise, on the mirrored (left-moving) kink the suite probes
    kink = make_kink(config.params, -KINK_V, 0.0, 1)
    want = [appendix_equality_residuals(kink, 1.0, 0.5, [(spectral(lam, config.params), 40.0)])[0] for lam in config.lambdas]
    got = [case.gap for case in report.cases if case.case.startswith("residual-lam=")]
    assert got == want


@pytest.mark.parametrize("picture", ["space", "time"])
@pytest.mark.parametrize("lam, half_width", [(0.3, 40.0), (2.5, 40.0), (1.3, 10.0)])
def test_closed_form_regularisation_equals_the_normalisers(picture, lam, half_width):
    kink, sp = make_kink(P11, v=KINK_V), spectral(lam, P11)
    line = Line(kink, picture, 0.3)
    normaliser = line.pick(e0, ce0)
    core = propagate(kink, picture, 0.3, -half_width, half_width, sp).matrix
    want = inv2(normaliser(half_width, sp)) @ core @ normaliser(-half_width, sp)
    got = _regularised(core, line.pick(sp.k1, sp.k0), half_width)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _matrix_magnus_steps(line, base, h, sp):
    """Transfer matrices from the matrix form of the sixth-order Magnus step, as an (n, 2, 2) stack, and |Omega|.

    An oracle independent of the su(2) kernel: the complex generator from
    lax.hat_entries at the Gauss nodes, commutators from matcore.comm and the
    eigendecomposition exponential of the tests' oracles module.
    """
    d, a01, a10 = hat_entries(line.picture, line.at(base + _NODES * h), sp, line.field.params)
    g = np.moveaxis(np.array([[d, a01], [a10, -d]]), (0, 1), (-2, -1)) * np.asarray(h)[..., None, None]  # (3, n, 2, 2)
    a1, a2, a3 = g[1], (math.sqrt(15.0) / 3.0) * (g[2] - g[0]), (10.0 / 3.0) * (g[2] - 2.0 * g[1] + g[0])
    c1 = comm(a1, a2)
    c2 = -comm(a1, 2.0 * a3 + c1) / 60.0
    omega = a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    return expm_antihermitian(omega), np.sqrt(np.abs(-det2(omega)))


@pytest.mark.parametrize("picture", ["space", "time"])
@pytest.mark.parametrize(
    "field, lam, start, stop, n, graded",
    [
        pytest.param("kink", 1.3, -20.0, 20.0, 300, True, id="kink"),
        pytest.param("kink", 0.05, -20.0, 20.0, 200, True, id="kink-long-steps"),  # |Omega| of order one
        pytest.param("kink", 0.7, 0.0, 2e-5, 64, False, id="kink-small-angle"),  # every |Omega| below the series threshold
        pytest.param("vacuum", 2.5, -10.0, 10.0, 100, False, id="vacuum"),
        pytest.param("vacuum", 1.0, -10.0, 10.0, 100, False, id="vacuum-k1-zero"),  # Omega = 0 exactly in space
    ],
)
def test_su2_steps_equal_the_matrix_magnus_oracle(picture, field, lam, start, stop, n, graded):
    fld = make_kink(P11, v=KINK_V, x0=0.2) if field == "kink" else make_vacuum(P11)
    line, sp = Line(fld, picture, 0.3), spectral(lam, P11)
    base, h = _mesh(_line_work(line, start, stop) if graded else None, start, stop, sp, n)[1](0, n)
    want, size = _matrix_magnus_steps(line, base, h, sp)
    got = np.moveaxis(_su2_batch(line, base, h, sp), -1, 0)
    assert np.max(np.abs(got - want)) <= 1e-14
    if stop - start < 1e-3:
        assert size.max() < _MU_SMALL
    if field == "vacuum" and lam == 1.0 and picture == "space":
        assert size.max() == 0.0 and np.array_equal(got, np.broadcast_to(np.eye(2), got.shape))
    assert np.max(np.abs(det2(got) - 1.0)) <= 1e-15
    unitarity = np.conj(np.swapaxes(got, -1, -2)) @ got - np.eye(2)
    assert np.max(np.abs(unitarity)) <= 1e-15
