"""Frozen-Backlund defect at x = 0: pairs, defect matrix, monodromies.

Two bulk solutions phi-tilde (x < 0) and phi (x > 0) are glued by the defect
conditions at x = 0,

    phi~_x - phi_t = (m/beta) [ s sin(beta(phi~ + phi)/2) + sin(beta(phi~ - phi)/2)/s ]
    phi~_t - phi_x = (m/beta) [ s sin(beta(phi~ + phi)/2) - sin(beta(phi~ - phi)/2)/s ]

with defect parameter s > 0.  These are the Backlund relations frozen at the
defect location; read as a PDE system over the whole plane they generate new
solutions from old, and seeding with the vacuum yields the kink with velocity
v = (1 - s^2)/(1 + s^2) and orientation -1 (``bt_kink_from_vacuum``).

The defect matrix

    L = Om Om~^-1 - (i s / lambda) Om~^-1 sigma2 Om,   Om = exp(i beta phi s3/4),

intertwines the two time Lax problems, L_t = V L - L V~, exactly when the
defect conditions hold.  Its gauged form L_hat = Om^-1 L Om~ enters the
full-line space monodromy M_S = T_hat_+^-1(0) L_hat T~_hat_-(0), whose
diagonal is automatically conserved in time.

In the equal-space picture the defect connects the two time monodromies
through constant diagonal factors B_pm built from the parities
p_pm = (Q~_pm + Q_pm) mod 2 of the time-direction windings.  Two closed
forms for the resulting multiplier C(lambda) = fa / fa~ circulate:

    ratio form:    (lambda - i s (-1)^{p+}) / (lambda - i s (-1)^{p-})
    product form:  (lambda - i s (-1)^{p+})(lambda + i s (-1)^{p-})/(lambda + i s)

Only the ratio form follows from the diagonal B_pm algebra and tends to 1 as
lambda -> infinity; both are carried side by side and the generating-relation
check lets the measured monodromies decide.  The matching equal-space
Hamiltonian shift is H_T = H~_T + (2m/beta^2)(1/s - s)((-1)^{p+} - (-1)^{p-});
the (s + 1/s) variant tied to the product form is reported alongside.

Finally, the defect conditions are the canonical transformation generated by
S_T = integral dt of L_defect = (phi~ phi_t - phi phi~_t)/2 - B with respect
to the equal-space bracket; ``canonical_residual`` verifies the variational
form of that statement directly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fields import (
    FieldEvaluator,
    FieldSample,
    GridWindow,
    Line,
    ModelParams,
    hamiltonian_T,
    make_kink,
    make_vacuum,
    simpson_uniform,
    topological_charges,
)
from .lax import SpectralPoint, build_V, e0, hat_entries
from .matcore import frob, inv2
from .transition import _TRAJECTORY_CHUNK, STEP_DENSITY, _check_span, _trajectory, default_nsteps, jost, monodromies

__all__ = [
    "DefectParams",
    "DefectPair",
    "bt_kink_from_vacuum",
    "defect_matrix_L",
    "defect_matrix_L_hat",
    "L_equation_residual",
    "defect_monodromy_S",
    "defect_splitting_check",
    "b_factors",
    "c_function",
    "generating_relation_check",
    "ham_shift_check",
    "canonical_residual",
]

PAIR_GATE = 1e-8  # relative: validate scales it by m/|beta|, as the condition terms scale


class DefectParams(NamedTuple("DefectParams", [("sigma", float)])):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace validates too

    def __new__(cls, sigma: float):
        if not 0 < sigma < math.inf:
            raise ValueError(f"defect parameter sigma must be positive and finite, got {sigma}")
        return super().__new__(cls, sigma)


class DefectPair(NamedTuple):
    left: FieldEvaluator
    right: FieldEvaluator
    params: ModelParams
    defect: DefectParams

    def boundary(self, t) -> tuple[FieldSample, FieldSample]:
        """(left, right) samples at x = 0 and times t: the one sampler of the defect line."""
        return tuple(Line(f, "time", 0.0).at(t) for f in (self.left, self.right))

    def condition_residual(self, t_grid) -> float:
        """Max violation of both defect conditions at x = 0 over the grid."""
        sl, sr = self.boundary(t_grid)
        b_phi, b_phi_tilde = _b_gradient(self.params, self.defect, sr.phi, sl.phi)
        r1 = sl.phi_x - sr.phi_t + b_phi_tilde
        r2 = sl.phi_t - sr.phi_x + b_phi
        return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))

    def validate(self) -> "DefectPair":
        """Refuse a pair whose condition residual exceeds PAIR_GATE m/|beta|, the scale of the conditions' terms."""
        res = self.condition_residual(np.linspace(-8.0, 8.0, 33))
        gate = PAIR_GATE * self.params.m / abs(self.params.beta)
        if res > gate:
            raise ValueError(f"defect-condition residual {res:.3e} exceeds gate {gate:.3e} = {PAIR_GATE} m/|beta|")
        return self

    def parities(self) -> tuple[int, int]:
        """(p_plus, p_minus) with p_pm = (Q~_pm + Q_pm) mod 2 at x = 0."""
        lqm, lqp = topological_charges(self.left, 0.0, "time")
        rqm, rqp = topological_charges(self.right, 0.0, "time")
        return (lqp + rqp) % 2, (lqm + rqm) % 2


def bt_kink_from_vacuum(params: ModelParams, defect: DefectParams, x0: float = 0.0) -> DefectPair:
    """Vacuum on the left glued to the kink the Backlund map generates.

    Slopes a = -m(s + 1/s)/2 in x and b = -m(s - 1/s)/2 in t give velocity
    v = (1 - s^2)/(1 + s^2), Lorentz factor (s + 1/s)/2 and orientation -1;
    the defect conditions then hold identically in t.
    """
    sig = defect.sigma
    v = (1.0 - sig * sig) / (1.0 + sig * sig)
    kink = make_kink(params, v=v, x0=x0, orientation=-1)
    return DefectPair(make_vacuum(params), kink, params, defect).validate()


# ---------------------------------------------------------------------------
# defect matrix and the space-picture defect monodromy
# ---------------------------------------------------------------------------


def defect_matrix_L(pair: DefectPair, t: float, sp: SpectralPoint) -> np.ndarray:
    """L(t, lambda) built from the boundary values of both fields at x = 0."""
    beta = pair.params.beta
    sig = pair.defect.sigma
    left, right = pair.boundary(t)
    w = np.exp(0.25j * beta * np.asarray(right.phi))
    nu = np.exp(0.25j * beta * np.asarray(left.phi))
    lam = sp.lam
    return np.array(
        [[w / nu, -sig / (lam * nu * w)], [sig * nu * w / lam, nu / w]], dtype=complex
    )


def defect_matrix_L_hat(pair: DefectPair, t: float, sp: SpectralPoint) -> np.ndarray:
    """Gauged defect matrix Om^-1 L Om~ = 1 - (i s/lambda) sigma2 e^{i beta(phi+phi~) s3/2}."""
    beta = pair.params.beta
    sig = pair.defect.sigma
    left, right = pair.boundary(t)
    theta = 0.5 * beta * (right.phi + left.phi)
    lam = sp.lam
    return np.array(
        [[1.0, -(sig / lam) * np.exp(-1j * theta)], [(sig / lam) * np.exp(1j * theta), 1.0]],
        dtype=complex,
    )


def L_equation_residual(pair: DefectPair, t: float, sp: SpectralPoint, h: float) -> float:
    """Norm of L_t - (V L - L V~) at x = 0, L_t by central differences."""
    if not h > 0:
        raise ValueError("step h must be positive")
    l_dot = (defect_matrix_L(pair, t + h, sp) - defect_matrix_L(pair, t - h, sp)) / (2.0 * h)
    ell = defect_matrix_L(pair, t, sp)
    v_right = build_V(pair.right, 0.0, t, sp)
    v_left = build_V(pair.left, 0.0, t, sp)
    return frob(l_dot - (v_right @ ell - ell @ v_left))


def defect_monodromy_S(pair: DefectPair, t: float, sp: SpectralPoint, half_width: float) -> np.ndarray:
    """M_S(t, lambda) = T_hat_+^-1(0, t) L_hat(t) T~_hat_-(0, t).

    Time evolution rotates only the off-diagonal entries, so diag(M_S) is a
    conserved generating function for the system with the defect.
    """
    plus = jost(pair.right, "space", 0.0, t, sp, half_width, side=+1)
    minus = jost(pair.left, "space", 0.0, t, sp, half_width, side=-1)
    return inv2(plus) @ defect_matrix_L_hat(pair, t, sp) @ minus


class SplittingReport(NamedTuple):
    direct: tuple[complex, complex]
    half_line_plus: tuple[complex, complex]
    half_line_minus: tuple[complex, complex]
    defect_term: tuple[complex, complex]
    step_count: int  # Magnus steps of each half-line trajectory
    chunk: int  # steps sampled, stepped and scanned at once

    def gap(self) -> float:
        out = 0.0
        for k in range(2):
            total = self.half_line_plus[k] + self.half_line_minus[k] + self.defect_term[k]
            diff = total - self.direct[k]
            # images under the exponential are what matters; mod out 2 pi i
            diff = complex(diff.real, (diff.imag + math.pi) % (2.0 * math.pi) - math.pi)
            out = max(out, abs(diff))
        return out


def defect_splitting_check(pair: DefectPair, t: float, sp: SpectralPoint, half_width: float) -> SplittingReport:
    """Split ln diag(M_S) into bulk integrals plus the defect generating term.

    The half-line pieces are quadratures of the (1,1)/(2,2) components of
    U_hat_d + U_hat_o Gamma + i k1 s3, with Gamma read pointwise off the
    propagated half-line solutions (Gamma_+ normalised at +infinity on the
    right field, Gamma~_- at -infinity on the left), by Simpson's rule on
    their uniform trajectory grid.  The defect term is ln diag[(1 +
    Gamma_+)^-1 L_hat (1 + Gamma~_-)] at x = 0, with the exact (1 - p q)
    normalisation rather than its large-lambda limit 1/2.  The direct side is
    ln diag of defect_monodromy_S: Jost solutions at the default count on the
    graded mesh, a discretisation independent of the trajectories.  Each
    trajectory is read chunk by chunk as transition._trajectory yields it:
    q, p and the two integrands are formed per chunk, and only the
    integrands are kept over the whole grid.  A half-width that is not
    positive and finite raises ValueError before any trajectory runs.
    """
    _check_span(-half_width, half_width, half_width)
    # Simpson on the trajectory's own grid needs a finer spacing than the Magnus steps
    nsteps = default_nsteps(half_width, sp, density=3.0 * STEP_DENSITY)
    nsteps += nsteps % 2  # Simpson below wants an even step count

    def half_line(fld, side):
        start = side * half_width
        grid = np.linspace(start, 0.0, nsteps + 1)
        line, norm = Line(fld, "space", t), e0(start, sp)
        int11, int22 = np.empty(nsteps + 1, dtype=complex), np.empty(nsteps + 1, dtype=complex)
        end = 0
        # Psi E0 chunk by chunk: only q, p and the integrands of each chunk are kept
        for psi in _trajectory(fld, "space", t, start, 0.0, sp, nsteps):
            part = slice(end, end + len(psi))
            end = part.stop
            # psi @ E0 as one 2-D product: the rows of every psi times the normaliser
            traj = (psi.reshape(-1, 2) @ norm).reshape(psi.shape)
            q = traj[:, 1, 0] / traj[:, 0, 0]
            p = traj[:, 0, 1] / traj[:, 1, 1]
            d, a01, a10 = hat_entries("space", line.at(grid[part]), sp, fld.params)
            int11[part] = d + a01 * q + 1j * sp.k1
            int22[part] = -d + a10 * p - 1j * sp.k1
            del psi, traj, d, a01, a10  # freed before the next chunk is stepped; q and p stay for gamma0
        h = grid[1] - grid[0]
        # the + trajectory runs from the far end towards 0; flip so h > 0
        if h < 0:
            int11, int22 = int11[::-1], int22[::-1]
            h = -h
        val11 = simpson_uniform(int11, h)
        val22 = simpson_uniform(int22, h)
        gamma0 = np.array([[0.0, p[-1]], [q[-1], 0.0]], dtype=complex)
        return (val11, val22), gamma0

    (ip11, ip22), gamma_plus = half_line(pair.right, +1)
    (im11, im22), gamma_minus = half_line(pair.left, -1)
    lhat = defect_matrix_L_hat(pair, t, sp)
    core = inv2(np.eye(2) + gamma_plus) @ lhat @ (np.eye(2) + gamma_minus)
    defect_term = (np.log(core[0, 0]), np.log(core[1, 1]))
    mono = defect_monodromy_S(pair, t, sp, half_width)
    direct = (np.log(mono[0, 0]), np.log(mono[1, 1]))
    return SplittingReport(direct, (ip11, ip22), (im11, im22), defect_term, nsteps, _TRAJECTORY_CHUNK)


# ---------------------------------------------------------------------------
# equal-space picture: connection factors, generating relation, energy shift
# ---------------------------------------------------------------------------


def b_factors(sp: SpectralPoint, defect: DefectParams, parities: tuple[int, int]):
    """Constant diagonal factors B_pm = lambda/(lambda + i s)(1 - (i s/lambda)(-1)^{p_pm} s3).

    The common scalar normalisation cancels between B_+ and B_-^{-1} in the
    connection formula, so only the ratio of diagonal entries is observable.
    """
    lam = sp.lam
    sig = defect.sigma
    if abs(lam + 1j * sig) < 1e-12:
        raise ZeroDivisionError("lambda = -i sigma is a pole of the connection factors")
    out = []
    for p in parities:
        sgn = (-1.0) ** p
        pref = lam / (lam + 1j * sig)
        out.append(np.diag([pref * (1.0 - 1j * sig * sgn / lam), pref * (1.0 + 1j * sig * sgn / lam)]))
    return out[0], out[1]


def c_function(sp: SpectralPoint, defect: DefectParams, parities: tuple[int, int], form: str = "ratio") -> complex:
    """Multiplier C(lambda) relating the two sides' generating functions.

    form='ratio' is the expression the diagonal B_pm algebra yields and the
    one the monodromy oracle confirms; form='product' is the circulating
    alternative, kept verbatim for comparison (note it grows linearly in
    lambda, so it cannot satisfy ln C -> 0).
    """
    lam = sp.lam
    sig = defect.sigma
    sp_, sm_ = (-1.0) ** parities[0], (-1.0) ** parities[1]
    if form == "ratio":
        den = lam - 1j * sig * sm_
        if abs(den) < 1e-12:
            raise ZeroDivisionError("lambda hits the pole of the ratio form")
        return complex((lam - 1j * sig * sp_) / den)
    if form == "product":
        if abs(lam + 1j * sig) < 1e-12:
            raise ZeroDivisionError("lambda = -i sigma is a pole of the product form")
        return complex((lam - 1j * sig * sp_) * (lam + 1j * sig * sm_) / (lam + 1j * sig))
    raise ValueError(f"unknown C form {form!r}")


class GeneratingRelationReport(NamedTuple):
    parities: tuple[int, int]
    rows: list

    @property
    def max_gap(self) -> dict:
        return {
            form: max(row[f"gap_{form}"] for row in self.rows) for form in ("ratio", "product")
        }

    def winner(self, gate: float) -> str | None:
        """The one C(lambda) form whose worst gap is within the gate, or None."""
        gaps = self.max_gap
        ok = [form for form in ("ratio", "product") if gaps[form] <= gate]
        return ok[0] if len(ok) == 1 else None


def generating_relation_check(
    pair: DefectPair,
    x_right: float,
    x_left: float,
    sp_list,
    half_width: float,
) -> GeneratingRelationReport:
    """Measure ln fa - ln fa~ and compare against both C(lambda) candidates.

    fa is the time-monodromy (1,1) entry computed on the right field at
    x_right > 0, fa~ the same on the left field at x_left < 0.
    """
    if not (x_right > 0.0 > x_left):
        raise ValueError("probes must sit on their respective sides of the defect")
    parities = pair.parities()
    fas = [m.a_entry for m in monodromies(pair.right, "time", x_right, half_width, sp_list)]
    fa_tildes = [m.a_entry for m in monodromies(pair.left, "time", x_left, half_width, sp_list)]
    rows = []
    for sp, fa, fa_tilde in zip(sp_list, fas, fa_tildes):
        ln_a, ln_a_tilde = np.log(fa), np.log(fa_tilde)
        row = {
            "lambda": float(sp.lam.real),
            "ln_a": [ln_a.real, ln_a.imag],
            "ln_a_tilde": [ln_a_tilde.real, ln_a_tilde.imag],
        }
        for form in ("ratio", "product"):
            predicted = c_function(sp, pair.defect, parities, form)
            # branch-free comparison on the multiplier scale
            row[f"gap_{form}"] = float(abs(fa / fa_tilde - predicted))
        rows.append(row)
    return GeneratingRelationReport(parities, rows)


class HamShiftReport(NamedTuple):
    lhs: float
    rhs_ratio: float
    rhs_product: float

    @property
    def gap_ratio(self) -> float:
        return abs(self.lhs - self.rhs_ratio)

    @property
    def gap_product(self) -> float:
        return abs(self.lhs - self.rhs_product)


def ham_shift_check(pair: DefectPair, window: GridWindow) -> HamShiftReport:
    """Equal-space Hamiltonian shift across the defect, both closed forms.

    lhs = H_T - H~_T from quadrature at x = 0 on both sides; rhs_ratio
    carries the (1/s - s) prefactor that expanding the ratio-form ln C
    produces, rhs_product the (s + 1/s) variant.
    """
    parities = pair.parities()
    lhs = float(hamiltonian_T(pair.right, 0.0, window)) - float(hamiltonian_T(pair.left, 0.0, window))
    return HamShiftReport(lhs, *_energy_shifts(pair, parities))


def _energy_shifts(pair: DefectPair, parities) -> tuple[float, float]:
    """(2m/beta^2) f(s) ((-1)^{p+} - (-1)^{p-}) with f = 1/s - s (ratio form) and s + 1/s (product form)."""
    m, beta = pair.params.m, pair.params.beta
    sig = pair.defect.sigma
    jump = (-1.0) ** parities[0] - (-1.0) ** parities[1]
    scale = 2.0 * m / beta**2
    return scale * (1.0 / sig - sig) * jump, scale * (sig + 1.0 / sig) * jump


# ---------------------------------------------------------------------------
# defect potential and canonical residuals
# ---------------------------------------------------------------------------


def _b_gradient(params: ModelParams, defect: DefectParams, phi, phi_tilde):
    """(dB/dphi, dB/dphi~) of the defect potential B.

    B = (2m/beta^2)[s cos(beta(phi~+phi)/2) + cos(beta(phi~-phi)/2)/s].

    The defect conditions read phi~_x - phi_t + dB/dphi~ = 0 and
    phi~_t - phi_x + dB/dphi = 0: the canonical transformation generated by B.
    """
    m, beta = params.m, params.beta
    sig = defect.sigma
    s_plus = np.sin(0.5 * beta * (phi_tilde + phi))
    s_minus = np.sin(0.5 * beta * (phi_tilde - phi))
    return (m / beta) * (-sig * s_plus + s_minus / sig), (m / beta) * (-sig * s_plus - s_minus / sig)


def canonical_residual(pair: DefectPair, t_grid, h: float) -> tuple[float, float]:
    """Variational residuals of the generating-functional characterisation.

    Checks Pi(0,t) = dL/dphi - d/dt dL/dphi_t and the mirrored relation with
    the opposite overall sign for the left field; partials of L_defect are
    analytic, the total time derivative is a central difference of step h.
    """
    t = np.asarray(t_grid, dtype=float)
    sl, sr = pair.boundary(t)
    dB_dphi, dB_dphi_tilde = _b_gradient(pair.params, pair.defect, sr.phi, sl.phi)
    # d/dt of dL/d(phi_t) = phi~/2 and of dL/d(phi~_t) = -phi/2
    sl_p, sr_p = pair.boundary(t + h)
    sl_m, sr_m = pair.boundary(t - h)
    ddt_half_tilde = (sl_p.phi - sl_m.phi) / (4.0 * h)
    ddt_half = (sr_p.phi - sr_m.phi) / (4.0 * h)
    rhs_right = (-0.5 * sl.phi_t - dB_dphi) - ddt_half_tilde
    rhs_left = -((0.5 * sr.phi_t - dB_dphi_tilde) + ddt_half)
    res_right = np.max(np.abs(sr.Pi - rhs_right))
    res_left = np.max(np.abs(sl.Pi - rhs_left))
    return float(res_right), float(res_left)
