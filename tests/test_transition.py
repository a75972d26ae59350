import gc
import inspect
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from sgdual import defect, transition
from sgdual.fields import FieldSample, KinkField, Line, ModelParams, NonDecayingFieldError, VacuumField, make_kink, make_vacuum
from sgdual.lax import ce0, e0, spectral, u_inf
from sgdual.matcore import det2, expm_sl2, frob, inv2
from sgdual.transition import (
    MAX_STEPS,
    _CHUNK,
    _magnus_steps,
    _mesh,
    appendix_equality_residual,
    default_nsteps,
    jost,
    monodromy,
    propagate,
    propagate_trajectory,
)

P11 = ModelParams(1.0, 1.0)
SP13 = spectral(1.3, P11)


def test_vacuum_propagation_is_constant_exponential():
    vac = make_vacuum(P11)
    res = propagate(vac, "space", 0.0, -10.0, 7.0, SP13, 2000)
    gen = 17.0 * u_inf(SP13)
    assert frob(res.matrix - expm_sl2(gen[0, 0], gen[0, 1], gen[1, 0])) < 1e-10


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


def test_nonfinite_propagation_raises():
    # a violently imaginary spectral point blows the exponential up
    bad = spectral(2000j, P11)
    kink = make_kink(P11, v=0.4)
    with pytest.raises(FloatingPointError):
        propagate(kink, "space", 0.0, -40.0, 40.0, bad, 16)


class _NaNVacuum(VacuumField):
    """A vacuum whose phi samples are NaN, so every Magnus exponent is non-finite."""

    def sample(self, x, t):
        s = super().sample(x, t)
        return FieldSample(s.phi + np.nan, s.phi_x, s.phi_t)


def test_nonfinite_exponent_raises():
    with pytest.raises(FloatingPointError):
        propagate(_NaNVacuum(P11), "space", 0.0, -5.0, 5.0, SP13, 16)


def _sequential_loop(line, start, stop, n, graded):
    """Psi at every edge of the mesh, from one unchunked batch of its steps multiplied up one at a time."""
    base, h = _mesh(line, start, stop, SP13, n, graded)[1](0, n)
    steps = np.moveaxis(_magnus_steps(line, base, h, SP13), -1, 0)
    ref = np.empty((n + 1, 2, 2), dtype=complex)
    ref[0] = np.eye(2)
    for k in range(n):
        ref[k + 1] = steps[k] @ ref[k]
    return ref


@pytest.mark.parametrize("n", [1, 2, 3, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1])
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


@pytest.mark.parametrize("nsteps", [0, -3])
@pytest.mark.parametrize("stepper", [propagate, propagate_trajectory])
def test_step_counts_below_one_are_refused(stepper, nsteps):
    with pytest.raises(ValueError, match="nsteps"):
        stepper(make_kink(P11, v=0.4), "space", 0.0, -5.0, 5.0, SP13, nsteps)


def test_small_lambda_monodromy_memory_is_bounded():
    # nsteps grows as 1/lambda (about 49k steps here); chunking keeps the peak flat
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
    assert peak < 40e6
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
    for lam in (0.5, 1.0, 2.0):
        sp = spectral(lam, P11)
        vals = [monodromy(kink, "space", t, 30.0, sp).a_entry for t in (0.0, 1.0, 2.0)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-6


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
    for lam in (0.5, 1.0, 2.0, 4.0):
        sp = spectral(lam, P11)
        a = monodromy(kink, "space", 0.0, 30.0, sp).a_entry
        assert abs(a - (lam - 1j * mu) / (lam + 1j * mu)) < 1e-7
        fa = monodromy(kink, "time", 0.3, 50.0, sp).a_entry
        assert abs(fa - (lam + 1j * mu) / (lam - 1j * mu)) < 1e-7


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
    assert appendix_equality_residual(vac, 0.7, -0.3, spectral(1.7, P11), 20.0) < 1e-12


def test_appendix_equality_left_moving_kink():
    kink = make_kink(P11, v=-0.6)
    r = appendix_equality_residual(kink, 1.0, 0.5, spectral(1.7, P11), 30.0)
    assert r < 1e-6


def test_appendix_equality_decreases_with_half_width():
    kink = make_kink(P11, v=-0.4)
    sp = spectral(1.7, P11)
    r = [appendix_equality_residual(kink, 1.0, 0.5, sp, w) for w in (15.0, 25.0, 35.0)]
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
        line = Line(kink, picture, fixed)
        core = propagate(kink, picture, fixed, -half_width, half_width, sp, nsteps).matrix
        a = (inv2(line.normaliser(half_width, sp)) @ core @ line.normaliser(-half_width, sp))[0, 0]
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
    assert takers == {"sgdual.transition.propagate", "sgdual.transition.propagate_trajectory"}


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
    warm = _CountingKink(P11, KINK_V, 0.2, 1)
    for lam in np.geomspace(0.3, 3.0, 12):
        monodromy(warm, "space", 0.0, 40.0, spectral(lam, P11))
        jost(warm, "space", 0.5, 0.0, spectral(lam, P11), 40.0)
    sp = spectral(0.7, P11)
    warm.sampled.clear()
    hits = monodromy(warm, "space", 0.0, 40.0, sp), jost(warm, "space", 0.5, 0.0, sp, 40.0)
    # a hit samples only the Gauss nodes of its steps, all three in one call
    assert [len(shape) for shape in warm.sampled] == [2, 2]
    cold = _CountingKink(P11, KINK_V, 0.2, 1)
    colds = monodromy(cold, "space", 0.0, 40.0, sp), jost(cold, "space", 0.5, 0.0, sp, 40.0)
    assert [len(shape) for shape in cold.sampled] == [1, 2, 1, 2]  # probe and nodes, twice
    assert cold.derivatives == 0  # the vacuum ends are read off the probe
    hit, miss = hits[0], colds[0]
    assert np.array_equal(hit.matrix, miss.matrix)
    assert (hit.tail_deviation, hit.truncated, hit.step_count, hit.step_range) == (
        miss.tail_deviation, miss.truncated, miss.step_count, miss.step_range
    )
    assert np.array_equal(hits[1], colds[1])


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


def test_line_memo_is_bounded_and_keeps_no_field_alive():
    kinks = [make_kink(P11, v=KINK_V, x0=0.01 * k) for k in range(100)]
    for kink in kinks:
        monodromy(kink, "space", 0.0, 20.0, SP13)
        assert len(transition._memo) <= transition._MEMO_SIZE
    ref = weakref.ref(kinks[-1])
    del kink, kinks
    gc.collect()
    assert ref() is None
    # a probe longer than a chunk is not held
    transition._memo.clear()
    propagate(make_kink(P11, v=KINK_V), "space", 0.0, -2e4, 2e4, SP13, 64)
    assert not transition._memo


def test_monodromy_peak_memory_at_small_lambda():
    # lambda = 0.01 takes about 4900 steps, all in one chunk: the largest batch of a lambda sweep
    sp = spectral(0.01, P11)
    monodromy(make_kink(P11, v=KINK_V), "space", 0.0, 40.0, sp)  # imports and cached tables
    kink = make_kink(P11, v=KINK_V)
    tracemalloc.start()
    try:
        monodromy(kink, "space", 0.0, 40.0, sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4e6
