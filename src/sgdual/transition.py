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
truncation error.

The step edges follow the solution (de Boor's equidistribution, 1973).  The
global error is a sum of h_k^7 times the local deviation of the generator
from a constant, so for a fixed count it is smallest with h proportional to
dev^(-1/7).  The monitor is

    dev(s) = |d| + |a01 - a01(start)| + |a10 - a10(start)|,

from the entries [[d, a01], [a10, -d]] of the gauged generator probed at
spacing 1/(m gamma), gamma the field's Lorentz factor.  The weight is
w = max(dev / max dev, 1e-16)^(1/7), and the edges invert the cumulative
trapezoid integral of w.  The default count is
1.3 STEP_DENSITY W_eff max(|k0|, |k1|, m) / pi with W_eff = (1/2) int w ds,
STEP_DENSITY = 200/3 steps per period of the generator and a floor of 64.
A settled tail has w near 0.005, so it adds almost nothing to W_eff: the
count follows the width of the solution, not of the window (on the v = 0.4
kink, W = 80 takes 1% more steps than W = 40).  On a vacuum dev = 0: the
mesh is uniform and W_eff is the half-width, at the density STEP_DENSITY.
propagate_trajectory always steps uniformly, since Simpson rules run on
its grid.

Measured on the v = 0.4 kink: at lambda = 0.2, W = 40, each halving of h
shrinks the Blaschke gap |a - (lambda - i mu)/(lambda + i mu)| by 2^6.0
(1.4e-7 at 125 steps, 5.4e-13 at 1000; the uniform mesh gave 3.7e-3 and
1.4e-8).  With the default counts, the worst gap over 30 log-spaced lambda
in [0.01, 5] is 2.8e-9 in the space picture (W = 40; the uniform mesh gave
1.2e-8 at 4.3 times the steps) and 4.1e-10 in the time picture (x = 0.3,
W = 50; uniform: 1.5e-9 at 2.3 times the steps).  The factor 1.3 was set
by measurement: at 1.0 the space gap grows to 1.35e-8.  (A classical RK4
update was tried first and could not reach the 1e-10 vacuum gate at sane
step counts.)

Steps are generated and reduced in chunks of at most 2^14 steps: the product
folds chunk by chunk (a pairwise tree within a chunk), the trajectory by a
log-depth scan, so memory stays bounded however small lambda makes the step
size.  A chunk samples the field at the three nodes of all its steps in one
Line.generator_entries call on a (3, n) array of points, combines the node
rows into Omega in place, and holds its transfer matrices in matcore's
(2, 2, n) batch layout, so the numpy calls per chunk do not grow with n.

The work on a line that does not depend on lambda -- the probe points of the
mesh with the field sampled there, and the vacuum offsets at +-W of a
monodromy -- is memoised for the _MEMO_SIZE most recent keys (field,
picture, fixed coordinate, interval); only the generator entries and the
mesh are recomputed per lambda.  Fields are immutable, so a memo hit
returns the bits of a cold call.  The memo holds fields by weak reference,
never keeps a raised error, and does not keep probes longer than a chunk.

Whole-line monodromies are regularised by the plane-wave normalisers:
E0(W)^-1 T_hat(W, -W) E0(-W) in space, and the cE0 analogue in time.  Their
(1, 1) entries a(lambda), fa(lambda) are the conserved generating functions
checked throughout the test-suite.  Half-line (Jost-type) solutions carry the
E0 boundary data at the far end instead.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .fields import FieldEvaluator, Line
from .lax import SpectralPoint, hat_entries
from .matcore import _mul, expm_sl2, frob, inv2, scan

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

_NODES = np.array([[0.5 - math.sqrt(15.0) / 10.0], [0.5], [0.5 + math.sqrt(15.0) / 10.0]])  # Gauss-Legendre, a column
STEP_DENSITY = 200.0 / 3.0  # steps per period 2 pi / max(|k0|, |k1|, m) of the generator
_GRADED_DENSITY = 1.3 * STEP_DENSITY  # calibrated on the graded mesh; see the module docstring
_WEIGHT_FLOOR = 1e-16  # floor of the normalised monitor, so that the settled tails still get steps
_ASYMPTOTE_TOL = 1e-8
_CHUNK = 2**14  # steps generated and reduced at once; bounds memory at small lambda
MAX_STEPS = 2**22  # default step counts beyond this are refused: extreme lambda or W
_IDENTITY = np.eye(2, dtype=complex)[:, :, None]  # a batch of one
_MEMO_SIZE = 8  # lines whose lambda-independent work is kept; a lambda sweep walks one line at a time
_memo = OrderedDict()  # (what, weak field, picture, fixed, start, stop) -> lambda-independent work


@dataclass(frozen=True)
class TransitionResult:
    matrix: np.ndarray
    step_count: int
    step_range: tuple[float, float]  # smallest and largest |h| of the mesh


@dataclass(frozen=True)
class Monodromy:
    matrix: np.ndarray
    tail_deviation: float
    truncated: bool
    step_count: int
    step_range: tuple[float, float]  # smallest and largest |h| of the mesh

    @property
    def a_entry(self) -> complex:
        return complex(self.matrix[0, 0])


def default_nsteps(half_width: float, sp: SpectralPoint, density: float = STEP_DENSITY) -> int:
    """Step count scaled with the generator frequency, density W max(|k0|,|k1|,m)/pi.

    W is the half-width of a uniform mesh, or (1/2) int w ds of a graded one.
    Raises ValueError when that count exceeds MAX_STEPS (or is not finite).
    """
    rate = max(abs(sp.k0), abs(sp.k1), sp.m)
    count = density * half_width * rate / math.pi
    if not count <= MAX_STEPS:
        raise ValueError(
            f"{count:.3g} Magnus steps needed at lambda = {sp.lam:g}, half-width {half_width:g}; the cap is {MAX_STEPS}"
        )
    return max(64, int(math.ceil(count)))


def _line_work(what, line, start, stop, compute):
    """compute(), kept for the _MEMO_SIZE most recent (what, line, interval) keys.

    A field is immutable, so work that does not depend on lambda depends only
    on the key.  The key holds the field by weak reference, so the memo keeps
    no field alive and a new field never matches a dead one.  A raised error
    is not kept: the next call raises it again.
    """
    key = (what, weakref.ref(line.field), line.picture, line.fixed, start, stop)
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key]
    work = _memo[key] = compute()
    if len(_memo) > _MEMO_SIZE:
        _memo.popitem(last=False)
    return work


def _probe(line, start, stop, count):
    """(probe, sample): count probe points of the monitor, at spacing at most 1/(m gamma), and the field there."""
    probe = np.linspace(start, stop, count)
    return probe, line.field.sample(*line.points(probe))


def _mesh(line, start, stop, sp, nsteps=None, graded=True):
    """(nsteps, steps): the step count, and a map steps(first, last) to the bases and sizes of steps first..last-1.

    Graded, the edges invert the cumulative trapezoid integral of the weight
    w = max(dev / max dev, 1e-16)^(1/7), probed at spacing 1/(m gamma), and
    nsteps=None takes the default count for the half-width (1/2) int w ds.
    On a vacuum (dev = 0), or with graded=False, the mesh is uniform and
    the size is one scalar h.
    """
    if nsteps is not None and nsteps < 1:
        raise ValueError("nsteps must be >= 1")
    weight = None
    if graded and stop != start:
        field = line.field
        count = math.ceil(abs(stop - start) * field.params.m * field.gamma) + 2
        # a probe longer than a chunk (thousands of field widths) is resampled per call rather than held
        probe, sample = (
            _line_work("probe", line, start, stop, lambda: _probe(line, start, stop, count))
            if count <= _CHUNK
            else _probe(line, start, stop, count)
        )
        d, a01, a10 = hat_entries(line.picture, sample, sp, field.params)
        dev = np.abs(d) + np.abs(a01 - a01[0]) + np.abs(a10 - a10[0])
        if dev.max() > 0.0:
            weight = np.maximum(dev / dev.max(), _WEIGHT_FLOOR) ** (1.0 / 7.0)
    if weight is None:
        if nsteps is None:
            nsteps = default_nsteps(0.5 * abs(stop - start), sp)
        h = (stop - start) / nsteps  # one scalar h, not differenced edges: the uniform steps keep their roundoff
        return nsteps, lambda first, last: (start + h * np.arange(first, last), h)
    cum = np.concatenate(([0.0], np.cumsum(weight[1:] + weight[:-1]))) * (0.5 * abs(probe[1] - probe[0]))
    if nsteps is None:
        nsteps = default_nsteps(0.5 * cum[-1], sp, _GRADED_DENSITY)
    cum *= nsteps / cum[-1]
    cum[-1] = nsteps  # the last edge is stop exactly

    def steps(first, last):
        edges = np.interp(np.arange(first, last + 1), cum, probe)
        return edges[:-1], np.diff(edges)

    return nsteps, steps


def _step_chunks(line, mesh, sp):
    """(first, h, E) for consecutive chunks of at most _CHUNK steps: first index, signed sizes, transfer matrices."""
    nsteps, steps = mesh
    for first in range(0, nsteps, _CHUNK):
        base, h = steps(first, min(first + _CHUNK, nsteps))
        yield first, h, _magnus_steps(line, base, h, sp)


def _add_comm(out, a, b, c):
    """out += c [A, B] in place, for entry lists of traceless A = [[a0, a1], [a2, -a0]] and B alike."""
    out[0] += c * (a[1] * b[2] - b[1] * a[2])
    out[1] += (2.0 * c) * (a[0] * b[1] - a[1] * b[0])
    out[2] += (2.0 * c) * (a[2] * b[0] - a[0] * b[2])


def _magnus_steps(line, base, h, sp):
    """Transfer matrices E_k = exp(Omega_k) of the steps [base, base + h] as a (2, 2, n) batch, in propagation order.

    One generator_entries call samples the three nodes of every step, as g[e, i]
    for entry e of [[d, a01], [a10, -d]] at node i.  The node rows are combined
    in place into alpha1..alpha3 and Omega, and Omega is copied out so that
    the nodes are freed before the exponential.
    """
    g = line.generator_entries(base + _NODES * h, sp)
    a3, a1, a2 = g[:, 0], g[:, 1], g[:, 2]  # G1, G2, G3 until combined
    a3 += a2  # G1 + G3
    a2 *= 2.0
    a2 -= a3  # G3 - G1
    a3 -= 2.0 * a1  # G3 - 2 G2 + G1
    a1 *= h  # alpha1 = h G2
    a2 *= (math.sqrt(15.0) / 3.0) * h  # alpha2 = (sqrt 15/3) h (G3 - G1)
    a3 *= (10.0 / 3.0) * h  # alpha3 = (10/3) h (G3 - 2 G2 + G1)
    z = 2.0 * a3
    _add_comm(z, a1, a2, 1.0)  # 2 alpha3 + C1, C1 = [alpha1, alpha2]
    _add_comm(a2, a1, z, -1.0 / 60.0)  # alpha2 + C2, C2 = -(1/60)[alpha1, 2 alpha3 + C1]
    z -= 3.0 * a3  # -20 alpha1 - alpha3 + C1
    z -= 20.0 * a1
    a1 += a3 / 12.0  # alpha1 + alpha3/12
    # Omega = alpha1 + alpha3/12 + (1/240)[-20 alpha1 - alpha3 + C1, alpha2 + C2]
    _add_comm(a1, z, a2, 1.0 / 240.0)
    omega = a1.copy()
    del g, a1, a2, a3, z
    steps = expm_sl2(*omega)
    if not np.isfinite(steps).all():
        raise FloatingPointError(
            "propagation blew up; reduce the step size or keep lambda on the real ray"
        )
    return steps


def _ordered_product(e):
    """Product e[..., n-1] @ ... @ e[..., 0] of a (2, 2, n) batch by pairwise tree reduction, as a batch of one."""
    while e.shape[-1] > 1:
        n = e.shape[-1]
        even = 2 * (n // 2)
        paired = _mul(e[..., 1:even:2], e[..., 0:even:2])
        e = np.concatenate([paired, e[..., -1:]], axis=-1) if n % 2 else paired
    return e


def propagate(
    field: FieldEvaluator,
    picture: str,
    fixed: float,
    start: float,
    stop: float,
    sp: SpectralPoint,
    nsteps: int | None = None,
) -> TransitionResult:
    """Transition matrix Psi(stop) with Psi(start) = 1, stepped on the graded mesh of the line.

    nsteps is the step count on that mesh; None takes the default count.
    This and propagate_trajectory are the only public functions that take a
    count: monodromy, jost and the defect checks always step at the default,
    and an explicit count is for refinement studies and for
    defect_splitting_check, whose half-lines share its Simpson count.
    """
    line = Line(field, picture, fixed)
    mesh = _mesh(line, start, stop, sp, nsteps)
    if stop == start:
        return TransitionResult(np.eye(2, dtype=complex), 0, (0.0, 0.0))
    total, smallest, largest = _IDENTITY, math.inf, 0.0
    for _, h, steps in _step_chunks(line, mesh, sp):
        total = _mul(_ordered_product(steps), total)
        smallest, largest = min(smallest, np.abs(h).min()), max(largest, np.abs(h).max())
    return TransitionResult(total[:, :, 0], mesh[0], (float(smallest), float(largest)))


def propagate_trajectory(field, picture, fixed, start, stop, sp, nsteps) -> tuple[np.ndarray, np.ndarray]:
    """Grid points and Psi at each of them (inclusive scan of the steps).

    The grid is uniform, unlike propagate's mesh, so that Simpson rules can run on it.
    """
    line = Line(field, picture, fixed)
    mesh = _mesh(line, start, stop, sp, nsteps, graded=False)
    out = np.empty((nsteps + 1, 2, 2), dtype=complex)
    out[0] = np.eye(2)
    total = _IDENTITY
    for first, _, steps in _step_chunks(line, mesh, sp):
        psi = _mul(scan(steps), total)
        out[first + 1 : first + 1 + psi.shape[-1]] = np.moveaxis(psi, -1, 0)
        total = psi[..., -1:]
    return np.linspace(start, stop, nsteps + 1), out


def monodromy(
    field: FieldEvaluator,
    picture: str,
    fixed: float,
    half_width: float,
    sp: SpectralPoint,
) -> Monodromy:
    """Regularised whole-line monodromy over [-W, W] in x or t.

    Raises NonDecayingFieldError when no vacuum is identifiable at the
    endpoints; a softer miss (beyond 1e-8 but identifiable) only flags the
    result as truncated.
    """
    line = Line(field, picture, fixed)
    dev = _line_work(
        "vacuum", line, -half_width, half_width,
        lambda: max(line.vacuum(sign * half_width)[1] for sign in (-1, +1)),
    )
    core = propagate(field, picture, fixed, -half_width, half_width, sp)
    mat = inv2(line.normaliser(half_width, sp)) @ core.matrix @ line.normaliser(-half_width, sp)
    return Monodromy(mat, dev, dev > _ASYMPTOTE_TOL, core.step_count, core.step_range)


def jost(
    field: FieldEvaluator,
    picture: str,
    x: float,
    t: float,
    sp: SpectralPoint,
    half_width: float,
    side: int = -1,
) -> np.ndarray:
    """Half-line solution normalised to the plane wave at side*infinity.

    side=-1 gives T_hat_-(x, t) (space) or cT_hat_-(x, t) (time); side=+1 the
    plus variants used by the defect monodromy.
    """
    if side not in (-1, +1):
        raise ValueError("side must be -1 or +1")
    line, stop = Line.through(field, picture, x, t)
    start = side * half_width
    res = propagate(field, picture, line.fixed, start, stop, sp)
    return res.matrix @ line.normaliser(start, sp)


def appendix_equality_residual(
    field: FieldEvaluator,
    x: float,
    t: float,
    sp: SpectralPoint,
    half_width: float,
) -> float:
    """Norm of T_hat_-(x,t) e^{-i k0 t s3} - cT_hat_-(x,t) e^{-i k1 x s3}.

    Both sides solve the same pair of equations with the same boundary data
    at -infinity in x and in t, so the residual is truncation-limited.
    """
    space_side = jost(field, "space", x, t, sp, half_width)
    time_side = jost(field, "time", x, t, sp, half_width)
    ph_t = np.diag([np.exp(-1j * sp.k0 * t), np.exp(1j * sp.k0 * t)])
    ph_x = np.diag([np.exp(-1j * sp.k1 * x), np.exp(1j * sp.k1 * x)])
    return frob(space_side @ ph_t - time_side @ ph_x)
