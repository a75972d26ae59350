"""Propagation of the auxiliary linear problem and regularised monodromies.

Transition matrices solve dPsi/ds = G(s) Psi with G the gauged generator
U_hat (space picture, t frozen) or V_hat (time picture, x frozen), normalised
to the identity at the start point.  Stepping uses the sixth-order Magnus
scheme on the three Gauss-Legendre nodes c = 1/2 - sqrt(15)/10, 1/2,
1/2 + sqrt(15)/10 (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009).  With
A_i = h G(s_k + c_i h),

    a1 = A2,  a2 = (sqrt(15)/3)(A3 - A1),  a3 = (10/3)(A3 - 2 A2 + A1),
    C1 = [a1, a2],  C2 = -(1/60)[a1, 2 a3 + C1],
    Omega = a1 + a3/12 + (1/240)[-20 a1 - a3 + C1, a2 + C2],
    Psi_{k+1} = exp(Omega) Psi_k,

with the closed-form 2x2 exponential.  Omega is assembled entry by entry as
[[x0, x1], [x2, -x0]] from the three independent entries of the traceless
generator, so it is traceless by construction and det Psi = 1 holds to
roundoff; the step is exact for constant generators -- vacuum monodromies
come out as the identity at machine precision instead of accumulating local
truncation error.  The default count over [-W, W] is
STEP_DENSITY * W * max(|k0|, |k1|, m) / pi with STEP_DENSITY = 200/3, a
third of what the fourth-order two-node scheme needed for the same gates.
Measured on the v = 0.4 kink at lambda = 0.2, W = 40: each halving of h
shrinks the Blaschke gap |a - (lambda - i mu)/(lambda + i mu)| by 2^6.0
(3.7e-3 at 125 steps, 1.4e-8 at 1000); at the default density the gap stays
at or below 1.1e-8 for lambda in [0.01, 5].  (A classical RK4 update was
tried first and could not reach the 1e-10 vacuum gate at sane step counts.)

Steps are held in matcore's entry layout, a tuple (e00, e01, e10, e11) of
1-D arrays, and generated and reduced in chunks of at most 2^14 steps: the
product folds chunk by chunk (a pairwise tree within a chunk), the
trajectory by a log-depth scan, so memory stays bounded however small lambda
makes the step size.

Whole-line monodromies are regularised by the plane-wave normalisers:
E0(W)^-1 T_hat(W, -W) E0(-W) in space, and the cE0 analogue in time.  Their
(1, 1) entries a(lambda), fa(lambda) are the conserved generating functions
checked throughout the test-suite.  Half-line (Jost-type) solutions carry the
E0 boundary data at the far end instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldEvaluator, Line
from .lax import SpectralPoint
from .matcore import _mul, _stack22, expm_sl2, frob, inv2, scan

__all__ = [
    "TransitionResult",
    "Monodromy",
    "MAX_STEPS",
    "default_nsteps",
    "propagate",
    "propagate_trajectory",
    "monodromy",
    "jost",
    "appendix_equality_residual",
]

_NODES = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)  # Gauss-Legendre
STEP_DENSITY = 200.0 / 3.0  # steps per period 2 pi / max(|k0|, |k1|, m) of the generator
_ASYMPTOTE_TOL = 1e-8
_CHUNK = 2**14  # steps generated and reduced at once; bounds memory at small lambda
MAX_STEPS = 2**22  # default step counts beyond this are refused: extreme lambda or W
_IDENTITY = tuple(np.array([v], dtype=complex) for v in (1.0, 0.0, 0.0, 1.0))


@dataclass(frozen=True)
class TransitionResult:
    matrix: np.ndarray
    start: float
    stop: float
    picture: str
    sp: SpectralPoint
    step_count: int


@dataclass(frozen=True)
class Monodromy:
    matrix: np.ndarray
    picture: str
    truncation: float
    tail_deviation: float
    truncated: bool
    step_count: int

    @property
    def a_entry(self) -> complex:
        return complex(self.matrix[0, 0])


def default_nsteps(half_width: float, sp: SpectralPoint, density: float = STEP_DENSITY) -> int:
    """Step count scaled with the generator frequency, density W max(|k0|,|k1|,m)/pi.

    Raises ValueError when that count exceeds MAX_STEPS (or is not finite).
    """
    rate = max(abs(sp.k0), abs(sp.k1), sp.m)
    count = density * half_width * rate / math.pi
    if not count <= MAX_STEPS:
        raise ValueError(
            f"{count:.3g} Magnus steps needed at lambda = {sp.lam:g}, W = {half_width:g}; the cap is {MAX_STEPS}"
        )
    return max(64, int(math.ceil(count)))


def _chunks(nsteps: int):
    """Step indices in consecutive chunks of at most _CHUNK."""
    for first in range(0, nsteps, _CHUNK):
        yield np.arange(first, min(first + _CHUNK, nsteps))


def _add_comm(out, a, b, c):
    """out += c [A, B] in place, for entry lists of traceless A = [[a0, a1], [a2, -a0]] and B alike."""
    out[0] += c * (a[1] * b[2] - b[1] * a[2])
    out[1] += (2.0 * c) * (a[0] * b[1] - a[1] * b[0])
    out[2] += (2.0 * c) * (a[2] * b[0] - a[0] * b[2])


def _magnus_steps(line, start, h, ks, sp):
    """Entries of the transfer matrices E_k for step indices ks, in propagation order.

    The node entries are combined in place and dropped once used, so a chunk
    holds at most four entry triples at a time.
    """
    base = start + h * ks
    a3 = list(line.generator_entries(base + _NODES[0] * h, sp))  # G1, then G1 + G3
    a2 = list(line.generator_entries(base + _NODES[2] * h, sp))  # G3, then G3 - G1
    for k in range(3):
        a3[k] += a2[k]
        a2[k] *= 2.0
        a2[k] -= a3[k]
    a1 = list(line.generator_entries(base + _NODES[1] * h, sp))
    del base
    for k in range(3):
        a3[k] -= 2.0 * a1[k]
        a1[k] *= h  # alpha1 = h G2
        a2[k] *= (math.sqrt(15.0) / 3.0) * h  # alpha2 = (sqrt 15/3) h (G3 - G1)
        a3[k] *= (10.0 / 3.0) * h  # alpha3 = (10/3) h (G3 - 2 G2 + G1)
    z = [2.0 * x for x in a3]
    _add_comm(z, a1, a2, 1.0)  # 2 alpha3 + C1, C1 = [alpha1, alpha2]
    _add_comm(a2, a1, z, -1.0 / 60.0)  # alpha2 + C2, C2 = -(1/60)[alpha1, 2 alpha3 + C1]
    for k in range(3):
        z[k] -= 3.0 * a3[k]  # -20 alpha1 - alpha3 + C1
        z[k] -= 20.0 * a1[k]
        a1[k] += a3[k] / 12.0  # alpha1 + alpha3/12
    del a3
    # Omega = alpha1 + alpha3/12 + (1/240)[-20 alpha1 - alpha3 + C1, alpha2 + C2]
    _add_comm(a1, z, a2, 1.0 / 240.0)
    del z, a2
    steps = expm_sl2(*a1)
    if not all(np.isfinite(e).all() for e in steps):
        raise FloatingPointError(
            "propagation blew up; reduce the step size or keep lambda on the real ray"
        )
    return steps


def _ordered_product(e):
    """Product e[n-1] @ ... @ e[0] of an entry batch by pairwise tree reduction."""
    while e[0].shape[0] > 1:
        n = e[0].shape[0]
        even = 2 * (n // 2)
        paired = _mul(tuple(x[1:even:2] for x in e), tuple(x[0:even:2] for x in e))
        if n % 2:
            paired = tuple(np.concatenate([p, x[-1:]]) for p, x in zip(paired, e))
        e = paired
    return e


def propagate(
    field: FieldEvaluator,
    picture: str,
    fixed: float,
    start: float,
    stop: float,
    sp: SpectralPoint,
    nsteps: int,
) -> TransitionResult:
    """Transition matrix Psi(stop) with Psi(start) = 1."""
    line = Line(field, picture, fixed)
    if nsteps < 1:
        raise ValueError("nsteps must be >= 1")
    if stop == start:
        return TransitionResult(np.eye(2, dtype=complex), start, stop, picture, sp, 0)
    h = (stop - start) / nsteps
    total = _IDENTITY
    for ks in _chunks(nsteps):
        total = _mul(_ordered_product(_magnus_steps(line, start, h, ks, sp)), total)
    return TransitionResult(_stack22(*total)[0], start, stop, picture, sp, nsteps)


def propagate_trajectory(field, picture, fixed, start, stop, sp, nsteps) -> tuple[np.ndarray, np.ndarray]:
    """Grid points and Psi at each of them (inclusive scan of the steps)."""
    line = Line(field, picture, fixed)
    h = (stop - start) / nsteps
    out = np.empty((nsteps + 1, 2, 2), dtype=complex)
    out[0] = np.eye(2)
    total = _IDENTITY
    for ks in _chunks(nsteps):
        psi = _mul(scan(_magnus_steps(line, start, h, ks, sp)), total)
        out[ks + 1] = _stack22(*psi)
        total = tuple(x[-1:] for x in psi)
    return np.linspace(start, stop, nsteps + 1), out


def monodromy(
    field: FieldEvaluator,
    picture: str,
    fixed: float,
    half_width: float,
    sp: SpectralPoint,
    nsteps: int | None = None,
) -> Monodromy:
    """Regularised whole-line monodromy over [-W, W] in x or t.

    Raises NonDecayingFieldError when no vacuum is identifiable at the
    endpoints; a softer miss (beyond 1e-8 but identifiable) only flags the
    result as truncated.
    """
    line = Line(field, picture, fixed)
    dev = max(line.vacuum(sign * half_width)[1] for sign in (-1, +1))
    if nsteps is None:
        nsteps = default_nsteps(half_width, sp)
    core = propagate(field, picture, fixed, -half_width, half_width, sp, nsteps)
    mat = inv2(line.normaliser(half_width, sp)) @ core.matrix @ line.normaliser(-half_width, sp)
    return Monodromy(mat, picture, half_width, dev, dev > _ASYMPTOTE_TOL, core.step_count)


def jost(
    field: FieldEvaluator,
    picture: str,
    x: float,
    t: float,
    sp: SpectralPoint,
    half_width: float,
    nsteps: int | None = None,
    side: int = -1,
) -> np.ndarray:
    """Half-line solution normalised to the plane wave at side*infinity.

    side=-1 gives T_hat_-(x, t) (space) or cT_hat_-(x, t) (time); side=+1 the
    plus variants used by the defect monodromy.
    """
    if side not in (-1, +1):
        raise ValueError("side must be -1 or +1")
    if nsteps is None:
        nsteps = default_nsteps(half_width, sp)
    line, stop = Line.through(field, picture, x, t)
    start = side * half_width
    res = propagate(field, picture, line.fixed, start, stop, sp, nsteps)
    return res.matrix @ line.normaliser(start, sp)


def appendix_equality_residual(
    field: FieldEvaluator,
    x: float,
    t: float,
    sp: SpectralPoint,
    half_width: float,
    nsteps: int | None = None,
) -> float:
    """Norm of T_hat_-(x,t) e^{-i k0 t s3} - cT_hat_-(x,t) e^{-i k1 x s3}.

    Both sides solve the same pair of equations with the same boundary data
    at -infinity in x and in t, so the residual is truncation-limited.
    """
    space_side = jost(field, "space", x, t, sp, half_width, nsteps, side=-1)
    time_side = jost(field, "time", x, t, sp, half_width, nsteps, side=-1)
    ph_t = np.diag([np.exp(-1j * sp.k0 * t), np.exp(1j * sp.k0 * t)])
    ph_x = np.diag([np.exp(-1j * sp.k1 * x), np.exp(1j * sp.k1 * x)])
    return frob(space_side @ ph_t - time_side @ ph_x)
