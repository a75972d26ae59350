"""Named verification suites over a scenario configuration.

Each suite exercises one block of identities on the configured solution and
returns a Report whose cases carry (lhs, rhs, gap, tolerance).  Suites are
pure functions of the configuration, evaluate in a fixed order and seed any
randomness, so reports are reproducible bit for bit.

A config is resolved once, when it is loaded: ``solution`` builds its field
and defect pair, and ``geometry``, the one place where extents are decided,
its ``Geometry`` record.  Every line, span, grid, probe and spectral point of
a suite comes from that record, which each report carries under the metadata
key ``geometry``.  The config also holds the charge ledgers its suites built
(``_ledger``): the energy suite reads those of the charges suite when both
run in one process, and builds its own otherwise, with the same bits.

Skip rule: a static kink does not settle to a vacuum along t at fixed x, so
it has no time picture.  ``_has_picture`` alone decides this; every check on
a time-picture line is skipped on such a field, and the report notes the
skip under the metadata key ``time-picture``.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from .charges import build_ledger, energy_identity, riccati_residuals
from .defect import (
    DefectPair,
    DefectParams,
    L_equation_residual,
    bt_kink_from_vacuum,
    canonical_residual,
    defect_monodromy_S,
    defect_splitting_check,
    generating_relation_check,
    ham_shift_check,
)
from .fields import FieldEvaluator, FieldSample, GridWindow, make_kink, make_vacuum, topological_charges
from .lax import spectral, zero_curvature_residual
from .report import Report
from .rmatrix import involution_check, r_matrix, r_matrix_trig, transition_bracket_check, ultralocal_check
from .transition import appendix_equality_residuals, monodromies

__all__ = ["SUITES", "DESCRIPTIONS", "DEFAULT_TOLERANCES", "Geometry", "Solution", "geometry", "lambda_label", "run_suite", "solution"]

# one-line statement of the identity each suite verifies
DESCRIPTIONS = {
    "lax-residual": "zero-curvature residual U_t - V_x + [U,V] on exact solutions, with step-halving order",
    "monodromy-conservation": "time-invariance of a(lambda) and space-invariance of fa(lambda)",
    "charges": "charge ledgers from the Riccati recursions: conservation, topological entry, residual scaling",
    "energy-identities": "I_{-1} - I_1 = (beta^2/2m) H_S and J_1 + J_{-1} = (beta^2/2m) H_T",
    "appendix": "equality of the x- and t-normalised half-line (Jost-type) solutions",
    "defect": "defect-condition and L-equation residuals, conserved diag M_S, connection multiplier, energy shift, canonical residuals",
    "rmatrix": "ultralocal r-matrix brackets in both pictures, trigonometric form, finite-interval transition bracket",
    "involution": "lattice proxy for {fa(lambda), fa(mu)} in the equal-space bracket",
}

DEFAULT_TOLERANCES = {
    "lax_residual": 1e-5,
    "halving_order": 0.3,
    "monodromy_drift": 1e-6,
    "charge_drift": 1e-6,
    "topological": 1e-8,
    "riccati_scaling": 0.7,
    "energy_gap_rel": 1e-4,
    "appendix_residual": 1e-6,
    "defect_residual": 1e-10,
    "l_equation": 1e-6,
    "ms_drift": 1e-5,
    "splitting": 1e-5,
    "generating_gap": 1e-4,
    "ham_shift_gap": 1e-4,
    "canonical": 1e-6,
    "ultralocal": 1e-12,
    "sign_control": 1e-2,
    "trig_form": 1e-12,
    "bracket_ratio_err": 0.15,
    "involution": 5e-3,
}


def _tol(config, key):
    return config.tolerances.get(key, DEFAULT_TOLERANCES[key])


def lambda_label(lam) -> str:
    """The label of a spectral value in case names and metadata keys; a config whose values share one is refused."""
    return f"{lam:g}"


class Geometry(NamedTuple):
    """Every line, span, grid, probe and spectral point the suites use on one config; grids are (start, stop, count)."""

    span: float  # quadrature windows, appendix Jost lines, generating-relation monodromies
    half_width: float  # monodromy lines and M_S
    lax_point: tuple[float, float]  # (x, t)
    lax_h: float
    monodromy_probes: tuple[tuple[float, float], tuple[float, float]]  # (times of two space lines, positions of two time lines)
    charge_probes: tuple[tuple[float, float], tuple[float, float]]  # likewise
    riccati_lambdas: tuple[float, float]
    riccati_grid: tuple[float, float, int]
    appendix_point: tuple[float, float]  # (x, t)
    appendix_widths: tuple[float, ...]
    defect_lambda: float
    defect_h: float  # L-equation and canonical difference step
    l_equation_t: float
    splitting_t: float
    ms_times: tuple[float, float]
    condition_times: tuple[float, float, int]
    canonical_times: tuple[float, float, int]
    generating_probes: tuple[float, float]  # (right x, left x)
    rmatrix_interval: tuple[float, float]
    rmatrix_sites: tuple[int, int]
    rmatrix_lambdas: tuple[float, float]
    involution_lambdas: tuple[float, float]
    involution_sites: tuple[int, int, int]
    involution_bulk: tuple[float, float]  # (probe x, half-span)
    involution_pair: tuple[float, float]  # (probe x, half-span) of the right field; the left one's probe is -x
    vacuum_interval: tuple[float, float]
    vacuum_sites: int


def geometry(w: float) -> Geometry:
    """The one place where the suites' extents are decided, from W, its one input."""
    return Geometry(
        span=max(40.0, w), half_width=w,  # truncation along t decays only like exp(-m gamma |v| W)
        lax_point=(0.5, 0.1), lax_h=1e-3, monodromy_probes=((0.0, 2.0), (0.0, 1.0)), charge_probes=((0.0, 0.7), (0.0, 1.0)),
        riccati_lambdas=(25.0, 50.0), riccati_grid=(-3.0, 3.0, 7), appendix_point=(1.0, 0.5), appendix_widths=(15.0, 25.0, 35.0),
        defect_lambda=1.5, defect_h=1e-4, l_equation_t=0.3, splitting_t=0.7, ms_times=(0.0, 1.0),
        condition_times=(-8.0, 8.0, 41), canonical_times=(-6.0, 6.0, 61), generating_probes=(0.7, -1.3),
        rmatrix_interval=(-5.0, 5.0), rmatrix_sites=(400, 800), rmatrix_lambdas=(1.3, 0.7),
        involution_lambdas=(1.5, 0.8), involution_sites=(400, 800, 1600), involution_bulk=(0.7, 20.0),
        involution_pair=(0.5, 14.0), vacuum_interval=(-10.0, 10.0), vacuum_sites=400,
    )


class Solution(NamedTuple):
    """The built solution of a config: its kind, the bulk field the suites check and the pair the defect suite reads."""

    kind: str
    field: FieldEvaluator
    pair: DefectPair


def solution(params, keys) -> Solution:
    """Build a solution from its config keys; a constructor that cannot build it raises ValueError.

    The pair is the vacuum on both sides of a vacuum, else the Backlund kink at the solution's x0 glued to the vacuum.
    """
    keys = {"x0": 0.0, "orientation": 1, "sigma": 2.0, **keys}  # the defaults of the keys a config may leave out
    kind, x0, defect = keys["kind"], keys["x0"], DefectParams(keys["sigma"])
    if kind == "vacuum":
        field = make_vacuum(params)
        return Solution(kind, field, DefectPair(field, field, params, defect))
    pair = bt_kink_from_vacuum(params, defect, x0)
    if kind == "defect_pair":
        return Solution(kind, pair.right, pair)
    return Solution(kind, make_kink(params, keys["v"], x0, keys["orientation"]), pair)


def _window(geo, params, *fields) -> GridWindow:
    """Window of half-span geo.span for integrals of the fields: odd count, spacing at most 0.1/(m gamma).

    Simpson converges exponentially on analytic integrands that decay like sech(m gamma s).
    """
    gamma = max(f.gamma for f in fields)
    n = 2 * math.ceil(10.0 * geo.span * params.m * gamma) + 1
    return GridWindow(geo.span, n)


def _is_vacuum(field) -> bool:
    return field.kind == "vacuum"


def _has_picture(rep, field, picture) -> bool:
    """Whether the field settles to a vacuum along the lines of the picture; a skip is noted in rep."""
    if picture == "space" or _is_vacuum(field) or (field.kind == "kink" and field.v != 0.0):
        return True
    rep.metadata["time-picture"] = "skipped: solution has no time decay at fixed x"
    return False


def _ledger(config, picture, fixed, order, window):
    """A charge ledger of at least the order on the config's field, from the ones the config holds, or built and put there.

    The entries n = -k .. k of a ledger do not depend on its order beyond k
    (the chain levels are truncated jets), so the energy suite reads the
    order-3 ledgers the charges suite built on its lines, bit for bit the
    order-1 ones.
    """
    key = (config.solution.field, picture, fixed, window)
    ledger = config.ledgers.get(key)
    if ledger is None or max(ledger.entries) < order:
        ledger = config.ledgers[key] = build_ledger(config.solution.field, picture, fixed, order, window)
    return ledger


def _suite_lax(config, geo) -> Report:
    rep = Report("lax-residual")
    field = config.solution.field
    lam = config.lambdas[0]
    sp = spectral(lam, config.params)
    h = geo.lax_h
    r_h = zero_curvature_residual(field, *geo.lax_point, sp, h)
    r_h2 = zero_curvature_residual(field, *geo.lax_point, sp, h / 2.0)
    tol = _tol(config, "lax_residual")
    rep.add("residual-h", {"lambda": lam, "h": h}, r_h, 0.0, r_h, tol)
    rep.add("residual-h/2", {"lambda": lam, "h": h / 2.0}, r_h2, 0.0, r_h2, tol)
    if r_h > 1e-12:
        order = float(np.log2(r_h / r_h2))
        rep.add("halving-order", {"lambda": lam}, order, 2.0, abs(order - 2.0), _tol(config, "halving_order"))
    else:
        rep.metadata["halving"] = "skipped: residual at roundoff level on this solution"
    return rep


def _suite_monodromy(config, geo) -> Report:
    rep = Report("monodromy-conservation")
    field = config.solution.field
    w = geo.half_width
    tol = _tol(config, "monodromy_drift")
    steps = rep.metadata["step-counts"] = {}
    sizes = rep.metadata["step-sizes"] = {}  # [smallest, largest] |h| of each mesh
    sps = [spectral(lam, config.params) for lam in config.lambdas]
    for (picture, name, axis), probes in zip((("space", "a", "times"), ("time", "fa", "positions")), geo.monodromy_probes):
        if not _has_picture(rep, field, picture):
            continue
        m0s, m1s = (monodromies(field, picture, fixed, w, sps) for fixed in probes)
        for lam, m0, m1 in zip(config.lambdas, m0s, m1s):
            label = f"lam={lambda_label(lam)}"
            steps[f"{name}-{label}"], sizes[f"{name}-{label}"] = m0.step_count, list(m0.step_range)
            rep.add(f"{name}-drift-{label}", {"lambda": lam, axis: probes},
                    abs(m0.a_entry), abs(m1.a_entry), abs(m0.a_entry - m1.a_entry), tol)
    return rep


def _suite_charges(config, geo) -> Report:
    rep = Report("charges")
    field = config.solution.field
    win = _window(geo, config.params, field)
    tol = _tol(config, "charge_drift")
    for (picture, name, axis), probes in zip((("space", "I", "times"), ("time", "J", "positions")), geo.charge_probes):
        if not _has_picture(rep, field, picture):
            continue
        e0, e1 = (_ledger(config, picture, fixed, 3, win).entries for fixed in probes)
        for n in sorted(e0):
            scale = max(1.0, abs(e0[n]))
            rep.add(f"{name}-drift-n={n}", {"order": n, axis: probes},
                    abs(e0[n]), abs(e1[n]), abs(e0[n] - e1[n]) / scale, tol)
        if picture == "space":
            qm, qp = topological_charges(field, 0.0, "space")
            want = -np.pi * (qp - qm)
            rep.add("topological-entry", {"winding": [qm, qp]}, e0[0].real, want,
                    abs(e0[0] - want), _tol(config, "topological"))
    if not _is_vacuum(field):
        lams = geo.riccati_lambdas
        r_lo, r_hi = riccati_residuals(field, "space", 0.0, 3, lams, np.linspace(*geo.riccati_grid))
        exponent = float(np.log2(r_lo / r_hi) / np.log2(lams[1] / lams[0]))
        rep.add("riccati-residual-scaling", {"orders": 3, "lambdas": lams},
                exponent, 3.0, abs(exponent - 3.0), _tol(config, "riccati_scaling"))
    return rep


def _suite_energy(config, geo) -> Report:
    rep = Report("energy-identities")
    field = config.solution.field
    win = _window(geo, config.params, field)
    for picture, axis in (("space", "t"), ("time", "x")):
        if not _has_picture(rep, field, picture):
            continue
        ident = energy_identity(field, 0.0, win, _ledger(config, picture, 0.0, 1, win))
        rep.add(picture, {axis: 0.0}, ident.lhs, ident.rhs, ident.relative_gap, _tol(config, "energy_gap_rel"))
    return rep


def _suite_appendix(config, geo) -> Report:
    rep = Report("appendix")
    field = config.solution.field
    if not _has_picture(rep, field, "time"):
        return rep
    if field.kind == "kink" and field.v > 0.0:
        # the equality needs a vacuum past corner; right-movers differ by the
        # constant transmission factor, so probe the mirrored kink instead
        field = make_kink(field.params, -field.v, field.x0, field.orientation)
        rep.metadata["note"] = "mirrored to the left-moving kink (vacuum past corner)"
    tol = _tol(config, "appendix_residual")
    w, (x, t) = geo.span, geo.appendix_point
    widths = () if _is_vacuum(field) else geo.appendix_widths
    sps = [spectral(lam, config.params) for lam in config.lambdas]
    residuals = appendix_equality_residuals(field, x, t, [(sp, w) for sp in sps] + [(sps[0], wi) for wi in widths])
    for lam, res in zip(config.lambdas, residuals):
        rep.add(f"residual-lam={lambda_label(lam)}", {"lambda": lam, "x": x, "t": t, "W": w}, res, 0.0, res, tol)
    if widths:
        seq = residuals[len(sps) :]
        monotone = 1.0 if all(a > b for a, b in zip(seq, seq[1:])) else 0.0
        rep.add("half-width-monotone", {"W": widths}, monotone, 1.0, 1.0 - monotone, 0.0)
    return rep


def _suite_defect(config, geo) -> Report:
    rep = Report("defect")
    pair = config.solution.pair
    lam, h, w = geo.defect_lambda, geo.defect_h, geo.half_width
    sp = spectral(lam, config.params)
    res = pair.condition_residual(np.linspace(*geo.condition_times))
    rep.add("conditions-residual", {"sigma": pair.defect.sigma}, res, 0.0, res, _tol(config, "defect_residual"))
    leq = L_equation_residual(pair, geo.l_equation_t, sp, h)
    rep.add("L-equation", {"lambda": lam, "h": h}, leq, 0.0, leq, _tol(config, "l_equation"))
    m0, m1 = (defect_monodromy_S(pair, t, sp, w) for t in geo.ms_times)
    drift = max(abs(m0[0, 0] - m1[0, 0]), abs(m0[1, 1] - m1[1, 1]))
    rep.add("Ms-diag-drift", {"lambda": lam, "times": geo.ms_times}, abs(m0[0, 0]), abs(m1[0, 0]), drift, _tol(config, "ms_drift"))
    split = defect_splitting_check(pair, geo.splitting_t, sp, w)
    rep.add("Ms-splitting", {"lambda": lam, "t": geo.splitting_t}, 0.0, 0.0, split.gap(), _tol(config, "splitting"))
    rep.metadata["splitting-steps"] = {"steps": split.step_count, "chunk": split.chunk}
    if _has_picture(rep, pair.right, "time") and _has_picture(rep, pair.left, "time"):
        sps = [spectral(l, config.params) for l in config.lambdas]
        gen = generating_relation_check(pair, *geo.generating_probes, sps, geo.span)
        gate = _tol(config, "generating_gap")
        rep.metadata["c-candidate"] = gen.winner(gate) or "none"
        gap = gen.max_gap["ratio"]
        rep.add("generating-relation", {"lambdas": config.lambdas}, gap, 0.0, gap, gate)
        hs = ham_shift_check(pair, _window(geo, config.params, pair.left, pair.right))
        rep.add("ham-shift", {"sigma": pair.defect.sigma}, hs.lhs, hs.rhs_ratio, hs.gap_ratio, _tol(config, "ham_shift_gap"))
    res_r, res_l = canonical_residual(pair, np.linspace(*geo.canonical_times), h)
    rep.add("canonical-right", {"h": h}, res_r, 0.0, res_r, _tol(config, "canonical"))
    rep.add("canonical-left", {"h": h}, res_l, 0.0, res_l, _tol(config, "canonical"))
    return rep


def _suite_rmatrix(config, geo) -> Report:
    rep = Report("rmatrix")
    params = config.params
    rng = np.random.default_rng(20260808)
    draws = []
    for _ in range(20):
        sample = rng.uniform(-3.0, 3.0, size=3)
        lam, mu = rng.uniform(0.3, 4.0, size=2)
        if abs(lam - mu) < 0.05:
            mu += 0.2
        draws.append((sample, spectral(lam, params), spectral(mu, params)))
    samples, sps1, sps2 = zip(*draws)
    batch = FieldSample(*np.transpose(samples))
    worst = {picture: ultralocal_check(picture, batch, sps1, sps2, params) for picture in ("space", "time")}
    tol = _tol(config, "ultralocal")
    rep.add("ultralocal-space", {"samples": 20}, worst["space"], 0.0, worst["space"], tol)
    rep.add("ultralocal-time", {"samples": 20}, worst["time"], 0.0, worst["time"], tol)
    sp1, sp2 = (spectral(lam, params) for lam in geo.rmatrix_lambdas)
    flipped = ultralocal_check("time", FieldSample(0.3, -0.2, 0.5), sp1, sp2, params, flip_sign=True)
    ok = 1.0 if flipped > _tol(config, "sign_control") else 0.0
    rep.add("sign-control", {"flipped_gap": flipped}, ok, 1.0, 1.0 - ok, 0.0)
    rng2 = np.random.default_rng(7)
    trig_worst = 0.0
    for _ in range(10):
        a, b = rng2.uniform(0.1, 1.4, size=2)
        if abs(a - b) < 0.05:
            b += 0.2
        diff = np.max(np.abs(r_matrix(np.exp(1j * a), np.exp(1j * b), params).matrix - r_matrix_trig(a - b, params)))
        trig_worst = max(trig_worst, float(diff))
    rep.add("trig-form", {"angle_pairs": 10}, trig_worst, 0.0, trig_worst, _tol(config, "trig_form"))
    field = config.solution.field
    sites = geo.rmatrix_sites
    bracket_gap = lambda n: transition_bracket_check(field, 0.0, geo.rmatrix_interval, sp1, sp2, n).gap
    if _is_vacuum(field):  # the coarse lattice serves only the halving row
        fine = bracket_gap(sites[1])
        rep.add("bracket-agreement", {"sites": sites[1]}, fine, 0.0, fine, 1e-5)
    else:
        coarse, fine = bracket_gap(sites[0]), bracket_gap(sites[1])
        ratio, want = fine / coarse, sites[0] / sites[1]  # the O(delta) splitting error falls like 1/sites
        rep.add("bracket-halving", {"sites": sites}, ratio, want, abs(ratio - want), _tol(config, "bracket_ratio_err"))
    return rep


def _suite_involution(config, geo) -> Report:
    rep = Report("involution")
    field = config.solution.field
    sps = tuple(spectral(lam, config.params) for lam in geo.involution_lambdas)
    tol = _tol(config, "involution")
    if _is_vacuum(field):
        val = involution_check(field, 0.0, sps, geo.vacuum_sites, geo.vacuum_interval)
        rep.add("vacuum-exact", {"sites": geo.vacuum_sites}, val, 0.0, val, 1e-12)
        return rep
    sites = geo.involution_sites
    # (bulk field, probe x, half-span, bound case, decrease case, their inputs)
    probes = [(field, *geo.involution_bulk, f"bound-n{sites[1]}", "refinement-decrease", {"sites": sites[1]}, {"sites": sites})]
    if config.solution.kind == "defect_pair":
        pair, (x, span) = config.solution.pair, geo.involution_pair
        for side, bulk, probe in (("right", pair.right, x), ("left", pair.left, -x)):
            probes.append((bulk, probe, span, f"pair-{side}-bound-n{sites[1]}", f"pair-{side}-decrease", {"probe": probe}, {"probe": probe}))
    for bulk, x, span, bound, decrease, bound_inputs, decrease_inputs in probes:
        if not _has_picture(rep, bulk, "time"):
            continue
        seq = [involution_check(bulk, x, sps, n, (-span, span)) for n in sites]
        rep.add(bound, bound_inputs, seq[1], 0.0, seq[1], tol)
        ok = 1.0 if (seq[0] > seq[1] > seq[2] or max(seq) < 1e-12) else 0.0
        rep.add(decrease, decrease_inputs, ok, 1.0, 1.0 - ok, 0.0)
    return rep


SUITES = {
    "lax-residual": _suite_lax,
    "monodromy-conservation": _suite_monodromy,
    "charges": _suite_charges,
    "energy-identities": _suite_energy,
    "appendix": _suite_appendix,
    "defect": _suite_defect,
    "rmatrix": _suite_rmatrix,
    "involution": _suite_involution,
}


def run_suite(name: str, config) -> Report:
    """Run one suite on the config's geometry; a ValueError or ArithmeticError inside it becomes a single failing ``error`` case."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    start = time.perf_counter()
    geo = config.geometry
    try:
        report = SUITES[name](config, geo)
    except (ValueError, ArithmeticError) as exc:
        report = Report(name)
        report.add("error", {"error": f"{type(exc).__name__}: {exc}"}, math.nan, math.nan, math.inf, 0.0)
    report.timing = time.perf_counter() - start
    report.metadata.setdefault("verifies", DESCRIPTIONS[name])
    report.metadata["geometry"] = geo  # the one record of the config, shared by its reports
    return report
