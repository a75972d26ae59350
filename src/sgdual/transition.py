"""Propagation of the auxiliary linear problem and regularised monodromies.

Transition matrices solve dPsi/ds = G(s) Psi with G the gauged generator
U_hat (space picture, t frozen) or V_hat (time picture, x frozen), normalised
to the identity at the start point.  Stepping uses the fourth-order Magnus
scheme on two Gauss nodes,

    Psi_{k+1} = exp( (h/2)(G1 + G2) + (sqrt(3) h^2 / 12) [G2, G1] ) Psi_k,

with the closed-form 2x2 exponential.  The exponent is assembled entry by
entry as [[x0, x1], [x2, -x0]] from the three independent entries of the
traceless generator, so it is traceless by construction and det Psi = 1
holds to roundoff; the step is exact for constant generators -- vacuum
monodromies come out as the identity at machine precision instead of
accumulating local truncation error.  (A classical RK4 update was tried first
and could not reach the 1e-10 vacuum gate at sane step counts; the Magnus
update costs the same two generator evaluations per step.)

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
    "default_nsteps",
    "propagate",
    "propagate_trajectory",
    "monodromy",
    "jost",
    "appendix_equality_residual",
]

_GAUSS_OFFSETS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_ASYMPTOTE_TOL = 1e-8
_CHUNK = 2**14  # steps generated and reduced at once; bounds memory at small lambda
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

    @property
    def a_entry(self) -> complex:
        return complex(self.matrix[0, 0])


def default_nsteps(half_width: float, sp: SpectralPoint, density: float = 200.0) -> int:
    """Step count scaled with the generator frequency, 200 W max(|k0|,|k1|,m)/pi."""
    rate = max(abs(sp.k0), abs(sp.k1), sp.m)
    return max(64, int(math.ceil(density * half_width * rate / math.pi)))


def _chunks(nsteps: int):
    """Step indices in consecutive chunks of at most _CHUNK."""
    for first in range(0, nsteps, _CHUNK):
        yield np.arange(first, min(first + _CHUNK, nsteps))


def _magnus_steps(line, start, h, ks, sp):
    """Entries of the transfer matrices E_k for step indices ks, in propagation order."""
    base = start + h * ks
    g1 = line.generator(base + _GAUSS_OFFSETS[0] * h, sp)
    g2 = line.generator(base + _GAUSS_OFFSETS[1] * h, sp)
    p0, p1, p2 = g1[:, 0, 0], g1[:, 0, 1], g1[:, 1, 0]
    q0, q1, q2 = g2[:, 0, 0], g2[:, 0, 1], g2[:, 1, 0]
    # (h/2)(G1 + G2) + c [G2, G1], written out: for traceless A = [[a0, a1], [a2, -a0]]
    # and B alike, [A, B] = [[a1 b2 - b1 a2, 2(a0 b1 - a1 b0)], [2(a2 b0 - a0 b2), -(a1 b2 - b1 a2)]]
    c = math.sqrt(3.0) * h * h / 12.0
    half = h / 2.0
    x0 = half * (p0 + q0) + c * (q1 * p2 - p1 * q2)
    x1 = half * (p1 + q1) + (2.0 * c) * (q0 * p1 - q1 * p0)
    x2 = half * (p2 + q2) + (2.0 * c) * (q2 * p0 - q0 * p2)
    steps = expm_sl2(x0, x1, x2)
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
    core = propagate(field, picture, fixed, -half_width, half_width, sp, nsteps).matrix
    mat = inv2(line.normaliser(half_width, sp)) @ core @ line.normaliser(-half_width, sp)
    return Monodromy(mat, picture, half_width, dev, dev > _ASYMPTOTE_TOL)


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
