"""Named verification suites over a scenario configuration.

Each suite exercises one block of identities on the configured solution and
returns a Report whose cases carry (lhs, rhs, gap, tolerance).  Suites are
pure functions of the configuration, evaluate in a fixed order and seed any
randomness, so reports are reproducible bit for bit.

Skip rule: a static kink does not settle to a vacuum along t at fixed x, so
it has no time picture.  ``_has_picture`` alone decides this; every check on
a time-picture line is skipped on such a field, and the report notes the
skip under the metadata key ``time-picture``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .charges import RiccatiCoefficients, build_ledger, energy_identity
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
from .fields import FieldSample, GridWindow, make_kink, make_vacuum, topological_charges
from .lax import spectral, zero_curvature_residual
from .report import Report
from .rmatrix import involution_check, r_matrix, r_matrix_trig, transition_bracket_check, ultralocal_check
from .transition import appendix_equality_residuals, monodromy

__all__ = ["SUITES", "DEFAULT_TOLERANCES", "lambda_label", "run_suite", "suite_descriptions"]

# one-line statement of the identity each suite verifies
_DESCRIPTIONS = {
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


def _span(config) -> float:
    """Half-span of the quadrature windows and the time-axis lines: truncation along t decays only like exp(-m gamma |v| W)."""
    return max(40.0, config.half_width)


def _bulk_field(config):
    sol = config.solution
    params = config.params
    if sol["kind"] == "vacuum":
        return make_vacuum(params)
    if sol["kind"] == "kink":
        return make_kink(params, sol["v"], sol.get("x0", 0.0), sol.get("orientation", 1))
    return _pair(config).right


def _pair(config) -> DefectPair:
    sol = config.solution
    params = config.params
    sigma = DefectParams(sol.get("sigma", 2.0))
    if sol["kind"] == "vacuum":
        return DefectPair(make_vacuum(params), make_vacuum(params), params, sigma)
    return bt_kink_from_vacuum(params, sigma, sol.get("x0", 0.0))


def _window(config, *fields) -> GridWindow:
    """Window for integrals of the fields: odd count, spacing at most 0.1/(m gamma).

    Simpson converges exponentially on analytic integrands that decay like sech(m gamma s).
    """
    span = _span(config)
    gamma = max(f.gamma for f in fields)
    n = 2 * math.ceil(10.0 * span * config.params.m * gamma) + 1
    return GridWindow(-span, span, -span, span, n, n)


def _is_vacuum(field) -> bool:
    return field.kind == "vacuum"


def _has_picture(rep, field, picture) -> bool:
    """Whether the field settles to a vacuum along the lines of the picture; a skip is noted in rep."""
    if picture == "space" or _is_vacuum(field) or (field.kind == "kink" and field.v != 0.0):
        return True
    rep.metadata["time-picture"] = "skipped: solution has no time decay at fixed x"
    return False


def _suite_lax(config) -> Report:
    rep = Report("lax-residual")
    field = _bulk_field(config)
    lam = config.lambdas[0]
    sp = spectral(lam, config.params)
    h = 1e-3
    r_h = zero_curvature_residual(field, 0.5, 0.1, sp, h)
    r_h2 = zero_curvature_residual(field, 0.5, 0.1, sp, h / 2.0)
    tol = _tol(config, "lax_residual")
    rep.add("residual-h", {"lambda": lam, "h": h}, r_h, 0.0, r_h, tol)
    rep.add("residual-h/2", {"lambda": lam, "h": h / 2.0}, r_h2, 0.0, r_h2, tol)
    if r_h > 1e-12:
        order = float(np.log2(r_h / r_h2))
        rep.add("halving-order", {"lambda": lam}, order, 2.0, abs(order - 2.0), _tol(config, "halving_order"))
    else:
        rep.metadata["halving"] = "skipped: residual at roundoff level on this solution"
    return rep


def _suite_monodromy(config) -> Report:
    rep = Report("monodromy-conservation")
    field = _bulk_field(config)
    w = config.half_width
    tol = _tol(config, "monodromy_drift")
    steps = rep.metadata["step-counts"] = {}
    sizes = rep.metadata["step-sizes"] = {}  # [smallest, largest] |h| of each mesh
    for picture, name, axis, probes in (("space", "a", "times", [0.0, 2.0]), ("time", "fa", "positions", [0.0, 1.0])):
        if not _has_picture(rep, field, picture):
            continue
        # one line at a time, so that the lambdas sharing a count share its mesh and nodes
        m0s, m1s = ([monodromy(field, picture, fixed, w, spectral(lam, config.params)) for lam in config.lambdas] for fixed in probes)
        for lam, m0, m1 in zip(config.lambdas, m0s, m1s):
            label = f"lam={lambda_label(lam)}"
            steps[f"{name}-{label}"], sizes[f"{name}-{label}"] = m0.step_count, list(m0.step_range)
            rep.add(f"{name}-drift-{label}", {"lambda": lam, axis: probes},
                    abs(m0.a_entry), abs(m1.a_entry), abs(m0.a_entry - m1.a_entry), tol)
    return rep


def _suite_charges(config) -> Report:
    rep = Report("charges")
    field = _bulk_field(config)
    win = _window(config, field)
    tol = _tol(config, "charge_drift")
    for picture, name, axis, probes in (("space", "I", "times", [0.0, 0.7]), ("time", "J", "positions", [0.0, 1.0])):
        if not _has_picture(rep, field, picture):
            continue
        e0, e1 = (build_ledger(field, picture, fixed, 3, win).entries for fixed in probes)
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
        rc = RiccatiCoefficients(field, "space", 0.0, 3)
        pts = np.linspace(-3.0, 3.0, 7)
        exponent = float(np.log2(rc.riccati_residual(25.0, pts) / rc.riccati_residual(50.0, pts)))
        rep.add("riccati-residual-scaling", {"orders": 3, "lambdas": [25.0, 50.0]},
                exponent, 3.0, abs(exponent - 3.0), _tol(config, "riccati_scaling"))
    return rep


def _suite_energy(config) -> Report:
    rep = Report("energy-identities")
    field = _bulk_field(config)
    win = _window(config, field)
    for picture, axis in (("space", "t"), ("time", "x")):
        if not _has_picture(rep, field, picture):
            continue
        ident = energy_identity(field, 0.0, win, build_ledger(field, picture, 0.0, 1, win))
        scale = max(abs(ident.lhs), abs(ident.rhs), 1.0)
        rep.add(picture, {axis: 0.0}, ident.lhs, ident.rhs, ident.gap / scale, _tol(config, "energy_gap_rel"))
    return rep


def _suite_appendix(config) -> Report:
    rep = Report("appendix")
    field = _bulk_field(config)
    if not _has_picture(rep, field, "time"):
        return rep
    if field.kind == "kink" and field.v > 0.0:
        # the equality needs a vacuum past corner; right-movers differ by the
        # constant transmission factor, so probe the mirrored kink instead
        field = make_kink(field.params, -field.v, field.x0, field.orientation)
        rep.metadata["note"] = "mirrored to the left-moving kink (vacuum past corner)"
    tol = _tol(config, "appendix_residual")
    w = _span(config)
    widths = () if _is_vacuum(field) else (15.0, 25.0, 35.0)
    sps = [spectral(lam, config.params) for lam in config.lambdas]
    residuals = appendix_equality_residuals(field, 1.0, 0.5, [(sp, w) for sp in sps] + [(sps[0], wi) for wi in widths])
    for lam, res in zip(config.lambdas, residuals):
        rep.add(f"residual-lam={lambda_label(lam)}", {"lambda": lam, "x": 1.0, "t": 0.5, "W": w}, res, 0.0, res, tol)
    if widths:
        seq = residuals[len(sps) :]
        monotone = 1.0 if seq[0] > seq[1] > seq[2] else 0.0
        rep.add("half-width-monotone", {"W": [15.0, 25.0, 35.0]}, monotone, 1.0, 1.0 - monotone, 0.0)
    return rep


def _suite_defect(config) -> Report:
    rep = Report("defect")
    pair = _pair(config)
    sp = spectral(1.5, config.params)
    t_grid = np.linspace(-8.0, 8.0, 41)
    res = pair.condition_residual(t_grid)
    rep.add("conditions-residual", {"sigma": pair.defect.sigma}, res, 0.0, res, _tol(config, "defect_residual"))
    leq = L_equation_residual(pair, 0.3, sp, 1e-4)
    rep.add("L-equation", {"lambda": 1.5, "h": 1e-4}, leq, 0.0, leq, _tol(config, "l_equation"))
    w = config.half_width
    m0 = defect_monodromy_S(pair, 0.0, sp, w)
    m1 = defect_monodromy_S(pair, 1.0, sp, w)
    drift = max(abs(m0[0, 0] - m1[0, 0]), abs(m0[1, 1] - m1[1, 1]))
    rep.add("Ms-diag-drift", {"lambda": 1.5, "times": [0.0, 1.0]}, abs(m0[0, 0]), abs(m1[0, 0]), drift, _tol(config, "ms_drift"))
    split = defect_splitting_check(pair, 0.7, sp, w)
    rep.add("Ms-splitting", {"lambda": 1.5, "t": 0.7}, 0.0, 0.0, split.gap(), _tol(config, "splitting"))
    if _has_picture(rep, pair.right, "time") and _has_picture(rep, pair.left, "time"):
        sps = [spectral(l, config.params) for l in config.lambdas]
        gen = generating_relation_check(pair, 0.7, -1.3, sps, _span(config))
        gate = _tol(config, "generating_gap")
        rep.metadata["c-candidate"] = gen.winner(gate) or "none"
        gap = gen.max_gap["ratio"]
        rep.add("generating-relation", {"lambdas": config.lambdas}, gap, 0.0, gap, gate)
        hs = ham_shift_check(pair, _window(config, pair.left, pair.right))
        rep.add("ham-shift", {"sigma": pair.defect.sigma}, hs.lhs, hs.rhs_ratio, hs.gap_ratio, _tol(config, "ham_shift_gap"))
    res_r, res_l = canonical_residual(pair, np.linspace(-6.0, 6.0, 61), 1e-4)
    rep.add("canonical-right", {"h": 1e-4}, res_r, 0.0, res_r, _tol(config, "canonical"))
    rep.add("canonical-left", {"h": 1e-4}, res_l, 0.0, res_l, _tol(config, "canonical"))
    return rep


def _suite_rmatrix(config) -> Report:
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
    flipped = ultralocal_check("time", FieldSample(0.3, -0.2, 0.5), spectral(1.3, params), spectral(0.7, params), params, flip_sign=True)
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
    field = _bulk_field(config)
    sp1, sp2 = spectral(1.3, params), spectral(0.7, params)
    g400 = transition_bracket_check(field, 0.0, (-5.0, 5.0), sp1, sp2, 400)
    g800 = transition_bracket_check(field, 0.0, (-5.0, 5.0), sp1, sp2, 800)
    if _is_vacuum(field):
        rep.add("bracket-agreement", {"sites": 800}, g800.gap, 0.0, g800.gap, 1e-5)
    else:
        ratio = g800.gap / g400.gap
        rep.add("bracket-halving", {"sites": [400, 800]}, ratio, 0.5, abs(ratio - 0.5), _tol(config, "bracket_ratio_err"))
    return rep


def _suite_involution(config) -> Report:
    rep = Report("involution")
    field = _bulk_field(config)
    sps = (spectral(1.5, config.params), spectral(0.8, config.params))
    tol = _tol(config, "involution")
    if _is_vacuum(field):
        val = involution_check(field, 0.0, sps, 400, (-10.0, 10.0))
        rep.add("vacuum-exact", {"sites": 400}, val, 0.0, val, 1e-12)
        return rep
    # (bulk field, probe x, half-span, bound case, decrease case, their inputs)
    probes = [(field, 0.7, 20.0, "bound-n800", "refinement-decrease", {"sites": 800}, {"sites": [400, 800, 1600]})]
    if config.solution["kind"] == "defect_pair":
        pair = _pair(config)
        for side, bulk, x in (("right", pair.right, 0.5), ("left", pair.left, -0.5)):
            probes.append((bulk, x, 14.0, f"pair-{side}-bound-n800", f"pair-{side}-decrease", {"probe": x}, {"probe": x}))
    for bulk, x, span, bound, decrease, bound_inputs, decrease_inputs in probes:
        if not _has_picture(rep, bulk, "time"):
            continue
        seq = [involution_check(bulk, x, sps, n, (-span, span)) for n in (400, 800, 1600)]
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


def suite_descriptions() -> dict:
    return dict(_DESCRIPTIONS)


def run_suite(name: str, config) -> Report:
    """Run one suite; a ValueError or ArithmeticError inside it becomes a single failing ``error`` case."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    start = time.perf_counter()
    try:
        report = SUITES[name](config)
    except (ValueError, ArithmeticError) as exc:
        report = Report(name)
        report.add("error", {"error": f"{type(exc).__name__}: {exc}"}, math.nan, math.nan, math.inf, 0.0)
    report.timing = time.perf_counter() - start
    report.metadata.setdefault("verifies", _DESCRIPTIONS[name])
    return report
