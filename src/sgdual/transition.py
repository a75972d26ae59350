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
    Psi_{k+1} = exp(Omega) Psi_k.

Propagation takes real lambda only (ValueError otherwise).  There the
gauged generator [[d, a01], [a10, -d]] has Re d = 0 and a01 = -conj(a10)
exactly, so it lies in su(2), and each step runs in real arithmetic on its
coordinates u = (Im d, Re a01, Im a01) = (Im d, zeta cos(beta phi) - lambda
m/4, -zeta sin(beta phi)), lax's (w3, w2, w1): a commutator is twice the
cross product, and exp(Omega) = cos|u| + sinc|u| Omega (matcore.expm_su2)
is unitary with determinant 1 to roundoff.  The step is exact for
constant generators -- vacuum monodromies come out as the identity at
machine precision.  a1..a3 are linear in the node rows (Im d, cos beta phi,
sin beta phi): _combinations forms them free of lambda, and _su2_steps
scales the rows by (1, zeta, -zeta), shifts a1's middle row by -h lambda
m/4, and takes three cross products and one exponential.

The step edges follow the solution (de Boor's equidistribution, 1973).  The
global error is a sum of h_k^7 times the local deviation of the generator
from a constant, so for a fixed count it is smallest with h proportional to
dev^(-1/7).  For the entries [[d, a01], [a10, -d]] of the gauged generator,
|a01 - a01(start)| + |a10 - a10(start)| = (m / (2 |lambda|)) |E - E(start)|
with E = e^{i beta phi}.  The monitor takes that sum at lambda = 1,

    dev(s) = |d| + (m/2) |E - E(start)|,

probed at spacing 1/(m gamma), gamma the field's Lorentz factor, so the mesh
does not depend on lambda: on the kink both terms are proportional to
sech u, and only the count changes with lambda.  The weight is
w = max(dev / max dev, 1e-16)^(1/7), and the edges invert the cumulative
trapezoid integral of w.  The default count is
1.3 STEP_DENSITY W_eff max(|k0|, |k1|, m) / pi with W_eff = (1/2) int w ds,
STEP_DENSITY = 200/3 steps per period of the generator and a floor of 64.
A settled tail has w near 0.005, so it adds almost nothing to W_eff: the
count follows the width of the solution, not of the window (on the v = 0.4
kink, W = 80 takes 1% more steps than W = 40).  On a vacuum dev = 0: the
mesh is uniform and W_eff is the half-width, at the density STEP_DENSITY.
A trajectory (_trajectory) always steps uniformly, since Simpson rules run
on its grid.

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

One walk steps every line (_walk): propagate, monodromy and jost, and the
lambda lists of monodromies and of appendix_equality_residuals (the cases
of each half-width as one list, the space Jost lines before the time lines).
A walk resolves the line's lambda-free work once, so a probe too long for
the slot is sampled once and monodromies reads its vacuum ends off the same
work.  The mesh is free of lambda, so the lambdas that share a step count
share the mesh, one node sample and one _combinations block (from the slot
when the count is at most _SLOT_CAP).  A group of two or more at a count of
at most _CHUNK / 2 steps in batches of at most _CHUNK lambda x steps; any
other lambda steps alone.  _su2_steps scales and shifts the block on a
lambda axis and takes one expm_su2 of the (2, 2, L, n) batch; a lambda alone
on a freshly sampled chunk is scaled in place, which keeps the peak of a
one-lambda walk.  Every entry goes through the same elementwise operations
as in its own walk, so a batched result is the lone lambda's bit for bit.
_folded generates and reduces the steps in chunks of 2^11 (_CHUNK).  Each
chunk is reduced by a pairwise tree, and the chunk products are folded on a
binary-counter stack in the order of the same tree: two products of equal
size merge as soon as both exist, and what is left at the end folds from the
newest down.  A chunk of 2^c steps is a complete subtree of the pairwise tree
over all the steps, so the product is bit for bit that single tree's,
whatever the chunk size.  A chunk samples the field at the three nodes of
all its steps in one Line.at call on a (3, n) array of points, combines the
node rows into Omega in place, frees them before the exponential, and holds
its transfer matrices in matcore's batch layout, so the numpy calls per
chunk do not grow with n.  A W = 40 kink monodromy peaks at 0.38 MB
(tracemalloc) for any lambda, 4.9k or 98k steps alike; it grows with W only
through its probe of about 2 m gamma W points.  On the v = 0.4 kink a
200-lambda list (W = 40), 179 of them at the count 198, peaks at 0.45 MB
against 0.14 MB per lambda, and took 12-14 ms against 32 ms per lambda
(2-CPU x86-64 host): one batch holds the (3, 3, 10, 198) block, and every
mesh of the list holds only scalars and the walk's work.

_trajectory yields Psi at every edge of its uniform mesh, 2^10 steps
(_TRAJECTORY_CHUNK) at a time: it samples a chunk, steps it through the same
_su2_steps, and matcore.scan_chunks scans it with the last Psi of the chunk
before as the carry.  The one-piece log-depth scan gives every Psi as a
fixed right-nested product of aligned power-of-two blocks, and a chunk of
2^10 steps is one such block, so the streamed Psi are bit for bit those of
one scan over all the steps, whatever the step count.  Its working set is
one chunk: the W = 40 splitting check, whose reader keeps only its two
integrands whole, peaks at 0.45 MB, and at 1.37 MB at W = 400 (5.9 MB with
the one-piece scan).  At 2^9 steps per chunk the check took about 2 ms
more (2-CPU x86-64 host); at 2^11 it peaked at 0.78 MB.

One slot holds the lambda-free work on the last line walked (field,
picture, fixed coordinate, interval): the probe, phi at its end points
(+-W exactly, where a monodromy checks its vacuum), the cumulative monitor
integral, and the lambda-free half of the line's last mesh of at most
_SLOT_CAP steps (its count, its step sizes and the _combinations block).
The next call with that count -- in a lambda sweep, most of them -- samples
no field and runs only the lambda half: one row scale, three cross products
and one exponential per step.  A cold call runs the same two halves, so a
hit returns the bits of a cold call.  The slot holds the field by weak
reference and keeps no raised error; a new line replaces it, a probe longer
than 2^14 points (_PROBE_CAP) empties it, and a mesh it does not serve
drops its combinations.

Whole-line monodromies are regularised by the plane-wave normalisers:
E0(W)^-1 T_hat(W, -W) E0(-W) in space, and the cE0 analogue in time.  With
E0(x) = N exp(-i k1 x s3) this is D (N^-1 T_hat N) D, D = diag(e^{i k W},
e^{-i k W}), k = k1 (space) or k0 (time), and it is formed in closed form
from the four entries of T_hat.  Its (1, 1) entries a(lambda), fa(lambda)
are the conserved generating functions checked throughout the test-suite.
Half-line (Jost-type) solutions carry the E0 boundary data at the far end
instead.
"""

from __future__ import annotations

import cmath
import math
import numbers
import weakref
from typing import NamedTuple

import numpy as np

from .fields import FieldEvaluator, Line, _check_points
from .lax import SpectralPoint, _check_real, ce0, e0, hat_nodes, hat_zeta
from .matcore import _mul, expm_su2, frob, scan_chunks

__all__ = [
    "TransitionResult",
    "Monodromy",
    "MAX_STEPS",
    "default_nsteps",
    "propagate",
    "monodromy",
    "monodromies",
    "jost",
    "appendix_equality_residuals",
]

_NODES = np.array([[0.5 - math.sqrt(15.0) / 10.0], [0.5], [0.5 + math.sqrt(15.0) / 10.0]])  # Gauss-Legendre, a column
STEP_DENSITY = 200.0 / 3.0  # steps per period 2 pi / max(|k0|, |k1|, m) of the generator
_GRADED_DENSITY = 1.3 * STEP_DENSITY  # calibrated on the graded mesh; see the module docstring
_WEIGHT_FLOOR = 1e-16  # floor of the normalised monitor, so that the settled tails still get steps
_ASYMPTOTE_TOL = 1e-8
_CHUNK = 2**11  # steps generated and reduced at once; a power of two, so a chunk is a subtree of the pairwise tree
_TRAJECTORY_CHUNK = 2**10  # steps generated and scanned at once by _trajectory; a power of two, for matcore.scan_chunks
MAX_STEPS = 2**22  # default step counts beyond this are refused: extreme lambda or W
_PROBE_CAP = 2**14  # probes of at most this many points stay in the slot
_SLOT_CAP = 512  # meshes of at most this many steps keep their Magnus combinations in the slot
_slot = None  # the _LineWork of the last line walked


class TransitionResult(NamedTuple):
    matrix: np.ndarray
    step_count: int
    step_range: tuple[float, float]  # smallest and largest |h| of the mesh


class Monodromy(NamedTuple):
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

    W is the half-width of a uniform mesh, or (1/2) int w ds of a graded one;
    W = 0 (an empty interval) takes the floor of 64.  Raises ValueError for a
    negative or non-finite W, and when the count exceeds MAX_STEPS.
    """
    if not 0 <= half_width < math.inf:
        raise ValueError(f"half-width must be non-negative and finite, got {half_width}")
    rate = max(abs(sp.k0), abs(sp.k1), sp.m)
    count = density * half_width * rate / math.pi
    if not count <= MAX_STEPS:
        raise ValueError(
            f"{count:.3g} Magnus steps needed at lambda = {sp.lam:g}, half-width {half_width:g}; the cap is {MAX_STEPS}"
        )
    return max(64, int(math.ceil(count)))


class _LineWork:
    """The lambda-free work on a line: monitor points, phi at both ends, the cumulative monitor integral and Magnus combinations."""

    def __init__(self, key: tuple, probe: np.ndarray, ends: tuple[float, float], cum: np.ndarray | None, combos: tuple | None = None):
        self.key = key  # (weak field, picture, fixed, start, stop)
        self.probe = probe  # from start to stop at spacing at most 1/(m gamma); the ends are start and stop exactly
        self.ends = ends  # phi at probe[0] and probe[-1]
        self.cum = cum  # cumulative trapezoid integral of the weight over probe; None on a vacuum
        self.combos = combos  # (count, h, _combinations block) of the last mesh of at most _SLOT_CAP steps


def _line_work(line, start, stop):
    """The _LineWork of a line from start to stop, from the slot when it holds that line.

    The monitor is dev = |d| + (m/2)|E - E(start)| at the probe points, from
    lax.hat_nodes, and the weight is w = max(dev / max dev, 1e-16)^(1/7).  A
    field is immutable, so the work depends only on the key; its weak
    reference never matches a new field to a dead one.
    """
    global _slot
    field = line.field
    key = (weakref.ref(field), line.picture, line.fixed, start, stop)
    if _slot is not None and _slot.key == key:
        return _slot
    count = math.ceil(abs(stop - start) * field.params.m * field.gamma) + 2
    _check_points(count, "probe")
    probe = np.linspace(start, stop, count)
    sample = line.at(probe)
    im_d, cos, sin = hat_nodes(sample, field.params)
    dev = np.abs(im_d) + (0.5 * field.params.m) * np.hypot(cos - cos[0], sin - sin[0])
    cum = None
    if dev.max() > 0.0:
        weight = np.maximum(dev / dev.max(), _WEIGHT_FLOOR) ** (1.0 / 7.0)
        cum = np.concatenate(([0.0], np.cumsum(weight[1:] + weight[:-1]))) * (0.5 * abs(probe[1] - probe[0]))
    work = _LineWork(key, probe, (float(sample.phi[0]), float(sample.phi[-1])), cum)
    _slot = work if count <= _PROBE_CAP else None
    return work


def _check_span(start, stop, half_width=None, sps=(), nsteps=None):
    """Refuse, before any probe, a non-real lambda of sps, a half-width that is not positive and finite, a non-finite start or stop and an nsteps that is not a positive integer."""
    for sp in sps:
        _check_real(sp, "propagation")
    if half_width is not None and not 0 < half_width < math.inf:
        raise ValueError(f"half-width must be positive and finite, got {half_width}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"start and stop must be finite, got {start} and {stop}")
    if nsteps is not None and (isinstance(nsteps, bool) or not isinstance(nsteps, numbers.Integral) or nsteps < 1):
        raise ValueError(f"nsteps must be a positive integer, got {nsteps!r}")


def _mesh(work, start, stop, sp, nsteps=None):
    """(nsteps, steps, work): the step count, a map steps(first, last) to the bases and sizes of steps first..last-1, and work.

    work is the _LineWork of the line from start to stop, or None for a
    uniform mesh.  Graded, the edges invert the line's cumulative monitor
    integral, so they depend on the line, the interval and the count, not on
    lambda; nsteps=None takes the default count for the half-width (1/2) int
    w ds.  On a vacuum (dev = 0), or with work None, the mesh is uniform and
    the size is one scalar h.
    """
    if work is None or work.cum is None:
        if nsteps is None:
            nsteps = default_nsteps(0.5 * abs(stop - start), sp)
        h = (stop - start) / nsteps  # one scalar h, not differenced edges: the uniform steps keep their roundoff
        steps = lambda first, last: (start + h * np.arange(first, last), h)
    else:
        if nsteps is None:
            nsteps = default_nsteps(0.5 * work.cum[-1], sp, _GRADED_DENSITY)

        def steps(first, last):  # scales the monitor integral per call, so that a mesh holds no array of its own
            cum = work.cum * (nsteps / work.cum[-1])
            cum[-1] = nsteps  # the last edge is stop exactly
            edges = np.interp(np.arange(first, last + 1), cum, work.probe)
            return edges[:-1], np.diff(edges)
    return nsteps, steps, work


def _slot_combinations(line, mesh):
    """(h, block): the step sizes and _combinations block of a mesh of at most _SLOT_CAP steps on the slot's line, from the slot or put there.

    Any other mesh gets None and drops the slot's combinations, so that they
    never add to its peak memory.  The block is the slot's own, which
    _su2_steps leaves as it was.
    """
    nsteps, steps, work = mesh
    if work is None or work is not _slot or nsteps > _SLOT_CAP:
        if _slot is not None:
            _slot.combos = None
        return None
    if work.combos is None or work.combos[0] != nsteps:
        base, h = steps(0, nsteps)
        work.combos = (nsteps, h, _combinations(line, base, h))
    return work.combos[1:]


def _extremes(h):
    """The smallest and largest |h| of a chunk's step sizes (an array, or one scalar on a uniform mesh)."""
    size = np.abs(h)
    return float(size.min()), float(size.max())


def _combinations(line, base, h):
    """The lambda-free Magnus combinations of the steps with bases base and sizes h, as a real (3, 3, n) block.

    One sample of the line at the Gauss nodes of every step gives the rows
    (Im d, cos beta phi, sin beta phi) of lax.hat_nodes, g[:, i] at node i.
    They are combined in place: node slots 1, 2, 0 come back holding a1 =
    h G2, a2 = (sqrt 15/3) h (G3 - G1) and a3 = (10/3) h (G3 - 2 G2 + G1).
    """
    g = hat_nodes(line.at(base + _NODES * h), line.field.params)
    a3, a1, a2 = g[:, 0], g[:, 1], g[:, 2]  # G1, G2, G3 until combined
    a3 += a2  # G1 + G3
    a2 *= 2.0
    a2 -= a3  # G3 - G1
    a3 -= 2.0 * a1  # G3 - 2 G2 + G1
    a1 *= h
    a2 *= (math.sqrt(15.0) / 3.0) * h
    a3 *= (10.0 / 3.0) * h
    return g


def _add_cross(out, a, b, c):
    """out += c (a x b) in place, for (3, n) blocks of su(2) coordinates."""
    out[0] += c * (a[1] * b[2] - a[2] * b[1])
    out[1] += c * (a[2] * b[0] - a[0] * b[2])
    out[2] += c * (a[0] * b[1] - a[1] * b[0])


def _su2_steps(combos, h, line, sps, consume=False):
    """Transfer matrices E_k = exp(Omega_k) of steps of sizes h at each lambda of the list sps, as a (2, 2, L, n) batch in propagation order.

    combos is a _combinations block.  Its rows scale by (1, zeta, -zeta) into
    the su(2) coordinates (Im d, Re a01, Im a01), and a1's Re a01 row shifts
    by -h lambda m/4: the only lambda in a step.  In these coordinates a
    commutator is twice the cross product.  The scale and the shift sit on a
    lambda axis before the steps, and every entry is the one of its lambda's
    own call bit for bit, since each is formed by the same elementwise
    operations on the same operands.  The block is left as it was, unless
    consume is set (only for one lambda on a block of its own): then the
    block is scaled and Omega combined in place, and Omega is copied out, so
    that the block is freed before matcore.expm_su2.
    """
    params = line.field.params
    zetas = [hat_zeta(line.picture, sp, params).real for sp in sps]
    # per lambda: the row scale (1, zeta, -zeta) and the shift lambda m/4, from Python floats in one array
    coefs = np.array([(1.0, zeta, -zeta, sp.lam.real * (params.m / 4.0)) for sp, zeta in zip(sps, zetas)])
    scale, shift = coefs.T[:3, None, :, None], coefs[:, 3:]
    if consume:
        combos *= scale[..., 0]
    else:
        combos = (combos[:, :, None] * scale).reshape(3, 3, -1)  # the steps of each lambda in turn
    a3, a1, a2 = combos[:, 0], combos[:, 1], combos[:, 2]
    shifted = a1[1].reshape(len(sps), -1)
    shifted -= h * shift
    z = 2.0 * a3
    _add_cross(z, a1, a2, 2.0)  # 2 a3 + C1, C1 = [a1, a2]
    _add_cross(a2, a1, z, -1.0 / 30.0)  # a2 + C2, C2 = -(1/60)[a1, 2 a3 + C1]
    z -= 3.0 * a3  # -20 a1 - a3 + C1
    z -= 20.0 * a1
    a1 += a3 / 12.0  # a1 + a3/12
    # Omega = a1 + a3/12 + (1/240)[-20 a1 - a3 + C1, a2 + C2]
    _add_cross(a1, z, a2, 1.0 / 120.0)
    omega = a1.copy()
    del combos, a1, a2, a3, z, shifted
    return expm_su2(omega).reshape(2, 2, len(sps), -1)


def _ordered_product(e):
    """Product e[..., n-1] @ ... @ e[..., 0] of a (2, 2, n) batch by pairwise tree reduction, as a batch of one.

    A (2, 2, L, n) batch gives the L products over its last axis as a
    (2, 2, L, 1) batch, each bit for bit the product of its own (2, 2, n) row.

    An odd level's last entry waits aside until the level where the tree
    gives it a partner, so no level is copied to append it.  A batch of one
    lambda is reduced as a (2, 2, n) batch: numpy steps the 1-D strided rows
    of matcore._mul's row form about 40% faster than (1, n) ones.
    """
    if e.shape[2:-1] == (1,):
        return _ordered_product(e[:, :, 0])[:, :, None]
    carry = None
    while e.shape[-1] > 1:
        n = e.shape[-1]
        if n % 2:
            carry = e[..., -1:] if carry is None else _mul(carry, e[..., -1:])
        e = _mul(e[..., 1::2], e[..., 0 : n - 1 : 2])
    return e if carry is None else _mul(carry, e)


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

    sp must be real and start and stop finite (ValueError otherwise).
    nsteps is the step count on that mesh; None takes the default count.
    This is the only public function that takes a count: monodromy, jost and
    the defect checks always step at the default, and an explicit count is
    for refinement studies.
    """
    _check_span(start, stop, sps=[sp], nsteps=nsteps)
    return _walk(Line(field, picture, fixed), start, stop, [sp], nsteps)[0]


def _folded(line, mesh, sps, held):
    """The TransitionResults of the lambdas of sps on a mesh of _mesh: the chunk products of each, folded on a binary-counter stack.

    held is (h, block), the step sizes and _combinations block of the whole
    mesh (the slot's or a group's), which is left as it was; or None, and then
    each chunk of at most _CHUNK steps samples its own block and consumes it.
    """
    nsteps, steps, _ = mesh
    subtrees, smallest, largest = [], math.inf, 0.0  # (chunks, product) of finished subtrees, oldest first
    for first in range(0, nsteps, _CHUNK) if held is None else [0]:
        if held is None:
            base, h = steps(first, min(first + _CHUNK, nsteps))
            product = _ordered_product(_su2_steps(_combinations(line, base, h), h, line, sps, consume=True))
        else:
            h = held[0]
            product = _ordered_product(_su2_steps(held[1], h, line, sps))
        chunks = 1
        while subtrees and subtrees[-1][0] == chunks:
            chunks, product = 2 * chunks, _mul(product, subtrees.pop()[1])
        subtrees.append((chunks, product))
        hmin, hmax = _extremes(h)
        smallest, largest = min(smallest, hmin), max(largest, hmax)
    total = subtrees.pop()[1]
    while subtrees:
        total = _mul(total, subtrees.pop()[1])
    return [TransitionResult(total[:, :, k, 0].copy(), nsteps, (smallest, largest)) for k in range(len(sps))]


def _walk(line, start, stop, sps, nsteps=None, work=None) -> list[TransitionResult]:
    """The TransitionResult of each lambda of sps on one line from start to stop, in order (see propagate).

    The caller has refused bad input (_check_span).  work is the line's
    _LineWork when the caller has resolved it already; every mesh of the walk
    reads the one work.  The lambdas are grouped by step count.  A group of
    two or more at a count of at most _CHUNK / 2 shares one _combinations
    block (from the slot for a short mesh) and steps in batches of at most
    _CHUNK lambda x steps; any other lambda steps alone, in chunks.  Each
    matrix is a contiguous copy.
    """
    if stop == start:
        return [TransitionResult(np.eye(2, dtype=complex), 0, (0.0, 0.0)) for _ in sps]
    if work is None:
        work = _line_work(line, start, stop)
    if len(sps) == 1:  # a group of one; the bookkeeping below cost a per-lambda sweep 3% (2-CPU x86-64 host)
        mesh = _mesh(work, start, stop, sps[0], nsteps)
        return _folded(line, mesh, sps, _slot_combinations(line, mesh))
    groups = {}  # count: (mesh, indices of the lambdas at that count)
    for k, sp in enumerate(sps):
        mesh = _mesh(work, start, stop, sp, nsteps)
        groups.setdefault(mesh[0], (mesh, []))[1].append(k)
    out = [None] * len(sps)
    for count, (mesh, members) in groups.items():
        held = _slot_combinations(line, mesh)
        size = max(_CHUNK // count, 1)
        if held is None and size > 1 and len(members) > 1:
            base, h = mesh[1](0, count)
            held = h, _combinations(line, base, h)
        for first in range(0, len(members), size):
            batch = members[first : first + size]
            for k, result in zip(batch, _folded(line, mesh, [sps[k] for k in batch], held)):
                out[k] = result
    return out


def _trajectory(field, picture, fixed, start, stop, sp, nsteps):
    """Psi at the edges of the uniform mesh of nsteps steps from start to stop, yielded as (m, 2, 2) stacks in order.

    The first stack starts with the identity at start, so np.concatenate of
    all of them is Psi at all nsteps + 1 edges: the edges of
    np.linspace(start, stop, nsteps + 1), where Simpson rules can run.  The
    mesh is sampled, stepped and scanned _TRAJECTORY_CHUNK steps at a time
    (matcore.scan_chunks), bit for bit the one-piece scan.
    """
    line = Line(field, picture, fixed)
    _check_span(start, stop, sps=[sp], nsteps=nsteps)
    _, steps, _ = _mesh(None, start, stop, sp, nsteps)

    def batches():
        for first in range(0, nsteps, _TRAJECTORY_CHUNK):
            base, h = steps(first, min(first + _TRAJECTORY_CHUNK, nsteps))
            yield _su2_steps(_combinations(line, base, h), h, line, [sp], consume=True)[:, :, 0]

    head = np.eye(2, dtype=complex)[None]
    for psi in scan_chunks(batches()):
        psi = np.moveaxis(psi, -1, 0)
        if head is not None:
            psi, head = np.concatenate((head, psi)), None
        yield psi
        del psi  # so that the next chunk is stepped with nothing of this one alive


def monodromies(field: FieldEvaluator, picture: str, fixed: float, half_width: float, sps) -> list[Monodromy]:
    """Regularised whole-line monodromies over [-W, W] in x or t, one per lambda of the list sps, in its order.

    Raises ValueError for a non-real lambda anywhere in sps or a half-width
    that is not positive and finite, and NonDecayingFieldError when no vacuum
    is identifiable at the endpoints, read off the ends of the mesh probe,
    before any step; a softer miss (beyond 1e-8 but identifiable) only flags
    the results as truncated.  The lambdas step on the one line (_walk): those
    that share a count share one mesh, one node sample and one batch.
    """
    _check_span(-half_width, half_width, half_width, sps)
    if not sps:
        return []
    line = Line(field, picture, fixed)
    work = _line_work(line, -half_width, half_width)
    dev = max(line.vacuum(work.probe[k], work.ends[k])[1] for k in (0, -1))
    out = []
    for sp, core in zip(sps, _walk(line, -half_width, half_width, sps, work=work)):
        mat = _regularised(core.matrix, line.pick(sp.k1, sp.k0), half_width)
        out.append(Monodromy(mat, dev, dev > _ASYMPTOTE_TOL, core.step_count, core.step_range))
    return out


def monodromy(field: FieldEvaluator, picture: str, fixed: float, half_width: float, sp: SpectralPoint) -> Monodromy:
    """The regularised whole-line monodromy at one lambda: monodromies of [sp], which raises as monodromies does."""
    return monodromies(field, picture, fixed, half_width, [sp])[0]


def _regularised(core, k, half_width):
    """E0(W)^-1 T E0(-W) = D (N^-1 T N) D with D = diag(e^{ikW}, e^{-ikW}), in closed form.

    N = (1 + i s1)/sqrt 2, so N^-1 T N has entries (a + d)/2 +- i(b - c)/2 on
    the diagonal and (b + c)/2 +- i(a - d)/2 off it, for T = [[a, b], [c, d]];
    E0 stands for cE0 in the time picture, with k0 for k1.
    """
    (a, b), (c, d) = core.tolist()
    even, odd = 0.5 * (a + d), 0.5j * (b - c)
    cross, diff = 0.5 * (b + c), 0.5j * (a - d)
    phase = 1j * k * half_width
    return np.array([[(even + odd) * cmath.exp(2.0 * phase), cross + diff], [cross - diff, (even - odd) * cmath.exp(-2.0 * phase)]])


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
    plus variants used by the defect monodromy.  Raises ValueError for a
    half-width that is not positive and finite.
    """
    if side not in (-1, +1):
        raise ValueError("side must be -1 or +1")
    line, stop = Line.through(field, picture, x, t)
    return _josts(line, stop, [sp], half_width, side)[0]


def _josts(line, stop, sps, half_width, side=-1):
    """The half-line solutions of jost at each lambda of sps, on one line from side * half_width to stop (_walk)."""
    start = side * half_width
    _check_span(start, stop, half_width, sps)
    normaliser = line.pick(e0, ce0)
    return [res.matrix @ normaliser(start, sp) for sp, res in zip(sps, _walk(line, start, stop, sps))]


def appendix_equality_residuals(field: FieldEvaluator, x: float, t: float, cases) -> list[float]:
    """Norm of T_hat_-(x,t) e^{-i k0 t s3} - cT_hat_-(x,t) e^{-i k1 x s3} at each (sp, half_width) of cases, in order.

    Both sides solve the same pair of equations with the same boundary data
    at -infinity in x and in t, so the residual is truncation-limited.  The
    space Jost lines are walked before the time lines, one half-width at a
    time: the lambdas of the cases that share a half-width step as one list
    (_walk), and every residual is the per-case jost one bit for bit.
    """
    widths = {}  # the cases of each half-width, in order of first appearance
    for k, (_, w) in enumerate(cases):
        widths.setdefault(w, []).append(k)
    sides = []
    for picture in ("space", "time"):
        line, stop = Line.through(field, picture, x, t)
        side = [None] * len(cases)
        for w, members in widths.items():
            for k, psi in zip(members, _josts(line, stop, [cases[k][0] for k in members], w)):
                side[k] = psi
        sides.append(side)
    residuals = []
    for (sp, _), space_side, time_side in zip(cases, *sides):
        ph_t = np.diag([np.exp(-1j * sp.k0 * t), np.exp(1j * sp.k0 * t)])
        ph_x = np.diag([np.exp(-1j * sp.k1 * x), np.exp(1j * sp.k1 * x)])
        residuals.append(frob(space_side @ ph_t - time_side @ ph_x))
    return residuals
