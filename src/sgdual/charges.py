"""Dual conserved-charge hierarchies from the Riccati dressing expansions.

Writing the half-line solution as R = (1 + Gamma) e^Y / sqrt(2) with Gamma
off-diagonal and Y diagonal turns the auxiliary problem into a Riccati
equation for Gamma and a quadrature for Y.  Expanding at large lambda gives
coefficients Gamma_n local in the field; their (2,1) components q_n obey

    q_{n+1} = -(2i/m) q_n' - (beta/m) w q_n + s (i/2) e_+ delta_{n,1}
              + (i/2) sum_{p=1}^{n} q_p q_{n+1-p}
              + s (i/2) e_- sum_{p=0}^{n-1} q_p q_{n-1-p},      q_0 = i,

with w = phi_t + phi_x (the on-shell value of both pi + phi_x and
phi_t - Pi), e_pm = exp(+-i beta phi), and the sign s = -1 in the space
picture, s = +1 in the time picture.  The (1,1) components decouple the same
way and are not needed for the charges.  For a real field the (1,2)
components are p_n = -conj(q_n): conjugating the recursion flips the sign of
its derivative term and swaps e_+ <-> e_-, which is the (1,2) recursion.  The
small-lambda side follows from the substitution symmetry "flip phi, keep
the momentum": primed coefficients are the same recursion evaluated with
w -> phi_t - phi_x (space picture, times -1 in the time picture) and
e_+ <-> e_-.

Charge densities, all verified here by conservation and by cross-checking
against the monodromy logarithm ln a (space) / ln fa (time):

    space, large lambda: y_n'   = (i m/4) (q_{n+1} - e_- q_{n-1} + i d_{n1})
    time,  large lambda: Y_n'   = (i m/4) (q_{n+1} + e_- q_{n-1} - i d_{n1})
    space, small lambda: y'_n'  = (i m/4) (-1)^(n+1) (e_+ q'_{n-1} - q'_{n+1})
                                  + (m/4) d_{n1}; order 0: -(beta/2) phi_x
    time,  small lambda: Y'_n'  = (i m/4) (e_+ q'_{n-1} + q'_{n+1} - i d_{n1});
                                  order 0: -(beta/2) phi_t

I_n (space) is time-conserved, J_n (time) space-conserved;
I_{-1} - I_1 = (beta^2/2m) H_S and J_1 + J_{-1} = (beta^2/2m) H_T.

Field dependence enters through truncated Taylor jets along the running
coordinate, so the q_n' derivatives are exact to roundoff; no nested finite
differences anywhere.  A derivative uses up one degree, so a chain of top
degree D keeps q_n at degree D - n and needs w and e_pm to degree D - 1; a
ledger reads values only, so its D is order + 1.  ``build_ledger`` takes one
pass over the derivative orders along its line -- each field partial once --
for the jets of w, w' and e_pm, then runs the large-lambda chain and the
flipped chain from them, one after the other.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fields import FieldEvaluator, Line, hamiltonian_S, hamiltonian_T, simpson_uniform
from .lax import hat_entries, spectral
from .transition import monodromy

__all__ = [
    "riccati_residuals",
    "ChargeLedger",
    "IdentityReport",
    "LnaFitReport",
    "UnwindingError",
    "build_ledger",
    "energy_identity",
    "lna_asymptotic_fit",
    "fit_charges_from_monodromy",
]

MAX_ORDER = 6  # higher coefficients are numerically noisy and out of scope
_LNA_TERMS = 3  # series terms lna_asymptotic_fit subtracts, so the remainder starts at lambda^-4


class UnwindingError(ValueError):
    """Branch continuity of the complex logarithm could not be enforced."""


# ---------------------------------------------------------------------------
# truncated Taylor jets: arrays (npts, deg+1) of coefficients f^(j)/j!, float64
# for w and w', complex otherwise
# ---------------------------------------------------------------------------


def _jet_mul(a, b):
    """Truncated product of two jets of one degree, of the dtype of both (a real jet times a complex one is complex)."""
    deg = a.shape[1] - 1
    out = np.zeros(a.shape, dtype=np.result_type(a, b))
    for k in range(deg + 1):
        out[:, k] = np.einsum("ij,ij->i", a[:, : k + 1], b[:, k::-1])
    return out


def _jet_exp(g):
    out = np.zeros_like(g, dtype=complex)
    out[:, 0] = np.exp(g[:, 0])
    for k in range(1, g.shape[1]):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + j * g[:, j] * out[:, k - j]
        out[:, k] = acc / k
    return out


def _jet_deriv(a):
    """Derivative of a degree-d jet, a jet of degree d - 1."""
    return a[:, 1:] * np.arange(1, a.shape[1])


def _line_jets(line: Line, svals: np.ndarray, deg: int):
    """One pass over the derivative orders along the line: (w, w', e_+, e_-, slope).

    w is the cross derivative plus the next running derivative, phi_t + phi_x;
    the flipped w' takes the cross minus the next running derivative, which
    is phi_t - phi_x in space and phi_x - phi_t in time.  slope is the plain
    running derivative phi_x (space) or phi_t (time).  Every field partial
    comes from one Line.partials pass, each order once (a kink evaluates u,
    sech u and tanh u once for all of them).  phi is real, so e_- is the
    conjugate of e_+, and w and w' are held as float64 jets: half the memory
    of complex jets whose imaginary parts are exactly 0, and the same chain
    bit for bit, since _jet_mul casts a real operand to complex before it
    multiplies.
    """
    beta = line.field.params.beta
    npts = svals.size
    phi = np.zeros((npts, deg + 1), dtype=complex)
    w, w_flip = (np.zeros((npts, deg + 1)) for _ in range(2))
    partials = line.partials(svals, [(0, 0)] + [order for j in range(deg + 1) for order in ((j, 1), (j + 1, 0))])
    run = np.asarray(next(partials))
    fact = 1.0
    for j in range(deg + 1):
        if j:
            fact *= j
        cross = np.asarray(next(partials))
        run_next = np.asarray(next(partials))
        if j == 0:
            slope = run_next
        phi[:, j] = run / fact
        w[:, j] = (cross + run_next) / fact
        w_flip[:, j] = (cross - run_next) / fact
        run = run_next
    ep = _jet_exp(1j * beta * phi)
    return w, w_flip, ep, ep.conj(), slope


def _riccati_chain(w, e_delta, e_sum, sign_b, n_max, top, params):
    """Jets of the (2,1) chain q_n, n = 0 .. n_max, from jets of w and e_pm.

    Level n keeps degree top - n.  The large-lambda chain takes
    (e_delta, e_sum) = (e_+, e_-), and the flipped branch swaps them with
    w -> w'.  sign_b is s of the recursion: -1 in the space picture, +1 in
    time.
    """
    m, beta = params.m, params.beta
    out = [np.zeros((w.shape[0], top + 1), dtype=complex)]
    out[0][:, 0] = 1j
    for n in range(n_max):
        k = top - n  # every operand of q_{n+1} is cut to its degree top - n - 1
        nxt = (-2j / m) * _jet_deriv(out[n]) - (beta / m) * _jet_mul(w[:, :k], out[n][:, :k])
        if n == 1:
            nxt = nxt + sign_b * 0.5j * e_delta[:, :k]
        for p in range(1, n + 1):
            nxt = nxt + 0.5j * _jet_mul(out[p][:, :k], out[n + 1 - p][:, :k])
        for p in range(0, n):
            nxt = nxt + sign_b * 0.5j * _jet_mul(e_sum[:, :k], _jet_mul(out[p][:, :k], out[n - 1 - p][:, :k]))
        out.append(nxt)
    return out


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order {order} outside the supported range 0 .. {MAX_ORDER}")


def riccati_residuals(field: FieldEvaluator, picture: str, fixed: float, order: int, lams, svals) -> list[float]:
    """Max norm of the order-truncated series' residual in the matrix Riccati ODE, at each lambda of lams.

    Along the line of the picture at fixed, over running coordinates svals.
    Scales as lambda^-order at large lambda; the independent gate that a
    transcription error in the recursion cannot pass.  The residual needs
    values and first derivatives up to order, so the chains take top degree
    D = order + 1; one jet pass, one chain and one field sample serve every
    lambda, and the (1,2) chain is p_n = -conj(q_n).
    """
    _check_order(order)
    line = Line(field, picture, fixed)
    svals = np.atleast_1d(np.asarray(svals, dtype=float))
    w, _, ep, em, _ = _line_jets(line, svals, order)
    q_jets = _riccati_chain(w, ep, em, line.pick(-1.0, 1.0), order, order + 1, field.params)
    p_jets = [-q.conj() for q in q_jets]
    sample = line.at(svals)
    residuals = []
    for lam in lams:
        # Gamma = [[0, p], [q, 0]] and its running derivative, summed over the orders
        q, p, q_s, p_s = (np.zeros(svals.size, dtype=complex) for _ in range(4))
        for n in range(order + 1):
            q += q_jets[n][:, 0] * lam ** (-n)
            p += p_jets[n][:, 0] * lam ** (-n)
            q_s += _jet_deriv(q_jets[n])[:, 0] * lam ** (-n)
            p_s += _jet_deriv(p_jets[n])[:, 0] * lam ** (-n)
        # off-diagonal entries of G_o + G_d Gamma - Gamma G_d - Gamma G_o Gamma; the diagonal vanishes
        d, a01, a10 = hat_entries(picture, sample, spectral(lam, field.params), field.params)
        rhs01 = a01 + d * p - p * -d - p * a10 * p
        rhs10 = a10 + -d * q - q * d - q * a01 * q
        residuals.append(float(max(np.max(np.abs(p_s - rhs01)), np.max(np.abs(q_s - rhs10)))))
    return residuals


class ChargeLedger(NamedTuple):
    """Finite charge sets keyed by integer order.

    Positive keys hold the large-lambda charges (I_n or J_n), key 0 and the
    negative keys hold the small-lambda side (I_{-n}, J_{-n}).
    """

    picture: str
    entries: dict
    provenance: str = "recursion"

    def value(self, n: int) -> complex:
        return self.entries[n]


def build_ledger(field, picture, fixed, order, window) -> ChargeLedger:
    """Charges n = -order .. order along one line, by quadrature of the local densities.

    One jet pass feeds both branches: the large-lambda chain gives n >= 1,
    the running slope gives n = 0, and the flipped chain (w -> w',
    e_+ <-> e_-) gives n <= -1.  The two chains are built one after the other
    so that only one is held at a time.
    """
    _check_order(order)
    m, beta = field.params.m, field.params.beta
    line = Line(field, picture, fixed)
    svals = window.axis()
    h = svals[1] - svals[0]
    w, w_flip, ep, em, slope = _line_jets(line, svals, order)
    sign = line.pick(1.0, -1.0)
    entries = {}
    q = _riccati_chain(w, ep, em, -sign, order + 1, order + 1, field.params)
    for n in range(1, order + 1):
        density = q[n + 1][:, 0] - sign * em[:, 0] * q[n - 1][:, 0]
        if n == 1:
            density = density + sign * 1j
        entries[n] = (0.25j * m) * simpson_uniform(density, h)
    del q
    # order 0: -(beta/2) times phi_x (space) or phi_t (time), the running slope
    entries[0] = complex(simpson_uniform(-0.5 * beta * slope, h))
    q = _riccati_chain(w_flip, em, ep, -sign, order + 1, order + 1, field.params)
    for n in range(1, order + 1):
        if picture == "space":
            density = (-1.0) ** (n + 1) * (ep[:, 0] * q[n - 1][:, 0] - q[n + 1][:, 0])
        else:
            density = ep[:, 0] * q[n - 1][:, 0] + q[n + 1][:, 0]
        if n == 1:
            density = density - 1j
        entries[-n] = (0.25j * m) * simpson_uniform(density, h)
    return ChargeLedger(picture, entries)


class IdentityReport(NamedTuple):
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def relative_gap(self) -> float:
        """The gap relative to the larger side, or absolute when both sides are below 1."""
        return self.gap / max(abs(self.lhs), abs(self.rhs), 1.0)


def energy_identity(field, fixed, window, ledger: ChargeLedger) -> IdentityReport:
    """I_{-1} - I_1 against (beta^2 / 2m) H_S, or J_1 + J_{-1} against (beta^2 / 2m) H_T.

    The ledger's picture picks the identity; fixed is t (space) or x (time).
    The time-picture identity integrates over t; conservation in x is what
    the drift checks probe.
    """
    m, beta = field.params.m, field.params.beta
    if ledger.picture == "space":
        lhs, energy = ledger.value(-1) - ledger.value(1), hamiltonian_S(field, fixed, window)
    else:
        lhs, energy = ledger.value(1) + ledger.value(-1), hamiltonian_T(field, fixed, window)
    rhs = (beta * beta / (2.0 * m)) * float(energy)
    return IdentityReport(float(lhs.real), rhs)


class LnaFitReport(NamedTuple):
    picture: str
    lambdas: np.ndarray
    log_mono: np.ndarray
    series: np.ndarray
    remainders: np.ndarray
    slope: float


def _unwrap_log(values: np.ndarray) -> np.ndarray:
    """Continuous log along an ascending lambda ray, anchored at the far end.

    ln a -> 0 as lambda -> infinity, so the principal branch is correct at
    the largest lambda; branch counts are then walked downwards.
    """
    logs = np.log(values.astype(complex))
    for k in range(len(logs) - 2, -1, -1):
        jump = (logs[k] - logs[k + 1]).imag
        logs[k] -= 2j * math.pi * round(jump / (2.0 * math.pi))
        if abs((logs[k] - logs[k + 1]).imag) > 0.5 * math.pi:
            raise UnwindingError(
                f"branch jump of {abs((logs[k] - logs[k+1]).imag):.3f} rad "
                "after unwinding; refine the lambda grid"
            )
    return logs


def _log_monodromy(field, picture, fixed, lambdas, half_width) -> np.ndarray:
    """Unwrapped ln a (space) or ln fa (time) along an ascending real lambda ray."""
    a_vals = [monodromy(field, picture, fixed, half_width, spectral(lam, field.params)).a_entry for lam in lambdas]
    return _unwrap_log(np.asarray(a_vals))


def lna_asymptotic_fit(
    field,
    picture,
    fixed,
    lambdas,
    ledger: ChargeLedger,
    half_width: float,
) -> LnaFitReport:
    """Remainder exponent of ln a (or ln fa) minus the three-term series.

    Lambda must be a real ascending ray inside [10, 100] so the branch anchor
    at the far end is trustworthy.  The slope is the least-squares exponent
    of |remainder| vs lambda on a log-log scale.
    """
    lambdas = np.asarray(sorted(float(l) for l in lambdas))
    if lambdas.size < 2:
        raise ValueError("need at least two lambda values to fit a slope")
    if lambdas[0] < 10.0 or lambdas[-1] > 100.0:
        raise ValueError("fit window is the real ray between 10 and 100")
    log_mono = _log_monodromy(field, picture, fixed, lambdas, half_width)
    # the series i * sum_{n=1..3} entry_n / lambda^n
    series = np.asarray([1j * sum(ledger.entries[n] * lam ** (-n) for n in range(1, _LNA_TERMS + 1)) for lam in lambdas])
    remainders = np.abs(log_mono - series)
    mask = remainders > 0
    slope = float(-np.polyfit(np.log10(lambdas[mask]), np.log10(remainders[mask]), 1)[0])
    return LnaFitReport(picture, lambdas, log_mono, series, remainders, slope)


def fit_charges_from_monodromy(
    field,
    picture,
    fixed,
    lambdas,
    n_terms: int,
    half_width: float,
) -> ChargeLedger:
    """Charges by least squares of ln a against the inverse-power series.

    Fully independent of the Riccati recursion: only the monodromy pipeline
    enters.  Fitting a couple of orders beyond the ones of interest keeps the
    tail from biasing the low coefficients.
    """
    lambdas = np.asarray(sorted(float(l) for l in lambdas))
    log_mono = _log_monodromy(field, picture, fixed, lambdas, half_width)
    design = np.column_stack([lambdas ** (-float(n)) for n in range(1, n_terms + 1)])
    coeffs, *_ = np.linalg.lstsq(design, (log_mono / 1j), rcond=None)
    entries = {n: complex(coeffs[n - 1]) for n in range(1, n_terms + 1)}
    return ChargeLedger(picture, entries, provenance="monodromy_fit")
