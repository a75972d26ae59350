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
Line.at call on a (3, n) array of points, combines the node rows into
Omega in place, frees them before the exponential, and holds its transfer
matrices in matcore's (2, 2, n) batch layout, so the numpy calls per chunk
do not grow with n.

One slot holds the lambda-free work on the last line walked (field,
picture, fixed coordinate, interval): the probe, phi at its end points
(+-W exactly, where a monodromy checks its vacuum), the cumulative monitor
integral, and the lambda-free half of the line's last mesh of at most
_SLOT_CAP steps (its count, its step sizes and the _combinations block).
The next call with that count -- in a lambda sweep, most of them -- samples
no field and runs only the lambda half: one row scale, three cross products
and one exponential per step.  A cold call runs the same two halves, so a
hit returns the bits of a cold call.  Callers walk one line across their
lambda list before the next (appendix_equality_residuals walks the space
Jost lines of all its cases, then the time lines).  The slot holds the
field by weak reference and keeps no raised error; a new line replaces it,
a probe longer than a chunk empties it, and a mesh it does not serve drops
its combinations.

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
import weakref
from dataclasses import dataclass

import numpy as np

from .fields import FieldEvaluator, Line
from .lax import SpectralPoint, hat_nodes, hat_zeta
from .matcore import _mul, expm_su2, frob, scan

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
    "appendix_equality_residuals",
]

_NODES = np.array([[0.5 - math.sqrt(15.0) / 10.0], [0.5], [0.5 + math.sqrt(15.0) / 10.0]])  # Gauss-Legendre, a column
STEP_DENSITY = 200.0 / 3.0  # steps per period 2 pi / max(|k0|, |k1|, m) of the generator
_GRADED_DENSITY = 1.3 * STEP_DENSITY  # calibrated on the graded mesh; see the module docstring
_WEIGHT_FLOOR = 1e-16  # floor of the normalised monitor, so that the settled tails still get steps
_ASYMPTOTE_TOL = 1e-8
_CHUNK = 2**14  # steps generated and reduced at once; bounds memory at small lambda
MAX_STEPS = 2**22  # default step counts beyond this are refused: extreme lambda or W
_IDENTITY = np.eye(2, dtype=complex)[:, :, None]  # a batch of one
_SLOT_CAP = 512  # meshes of at most this many steps keep their Magnus combinations in the slot
_slot = None  # the _LineWork of the last line walked


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


@dataclass(eq=False)
class _LineWork:
    """The lambda-free work on a line: monitor points, phi at both ends, the cumulative monitor integral and Magnus combinations."""

    key: tuple  # (weak field, picture, fixed, start, stop)
    probe: np.ndarray  # from start to stop at spacing at most 1/(m gamma); the ends are start and stop exactly
    ends: tuple[float, float]  # phi at probe[0] and probe[-1]
    cum: np.ndarray | None  # cumulative trapezoid integral of the weight over probe; None on a vacuum
    combos: tuple | None = None  # (count, h, _combinations block) of the last mesh of at most _SLOT_CAP steps


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
    probe = np.linspace(start, stop, count)
    sample = line.at(probe)
    im_d, cos, sin = hat_nodes(line.picture, sample, field.params)
    dev = np.abs(im_d) + (0.5 * field.params.m) * np.hypot(cos - cos[0], sin - sin[0])
    cum = None
    if dev.max() > 0.0:
        weight = np.maximum(dev / dev.max(), _WEIGHT_FLOOR) ** (1.0 / 7.0)
        cum = np.concatenate(([0.0], np.cumsum(weight[1:] + weight[:-1]))) * (0.5 * abs(probe[1] - probe[0]))
    work = _LineWork(key, probe, (float(sample.phi[0]), float(sample.phi[-1])), cum)
    _slot = work if count <= _CHUNK else None
    return work


def _check_real(sp):
    """Refuse a non-real lambda: propagation steps in su(2), which holds the generator only at real lambda."""
    if sp.lam.imag != 0.0:
        raise ValueError(f"propagation takes real lambda only, not lambda = {sp.lam:g}")


def _mesh(line, start, stop, sp, nsteps=None, graded=True):
    """(nsteps, steps, work): the step count, a map steps(first, last) to the bases and sizes of steps first..last-1, and the _LineWork or None.

    Graded, the edges invert the line's cumulative monitor integral, so they
    depend on the line, the interval and the count, not on lambda; nsteps=None
    takes the default count for the half-width (1/2) int w ds.  On a vacuum
    (dev = 0), or with graded=False, the mesh is uniform and the size is one
    scalar h; work is None when graded=False or the interval is empty.
    """
    _check_real(sp)
    if nsteps is not None and nsteps < 1:
        raise ValueError("nsteps must be >= 1")
    work = _line_work(line, start, stop) if graded and stop != start else None
    if work is None or work.cum is None:
        if nsteps is None:
            nsteps = default_nsteps(0.5 * abs(stop - start), sp)
        h = (stop - start) / nsteps  # one scalar h, not differenced edges: the uniform steps keep their roundoff
        steps = lambda first, last: (start + h * np.arange(first, last), h)
    else:
        if nsteps is None:
            nsteps = default_nsteps(0.5 * work.cum[-1], sp, _GRADED_DENSITY)
        probe, cum = work.probe, work.cum * (nsteps / work.cum[-1])
        cum[-1] = nsteps  # the last edge is stop exactly

        def steps(first, last):
            edges = np.interp(np.arange(first, last + 1), cum, probe)
            return edges[:-1], np.diff(edges)
    return nsteps, steps, work


def _step_chunks(line, mesh, sp):
    """(first, h, E) for consecutive chunks of at most _CHUNK steps: first index, signed sizes, transfer matrices.

    A mesh of at most _SLOT_CAP steps on the slot's line takes its Magnus
    combinations from the slot or puts them there; any other mesh drops them,
    so that they never add to its peak memory.
    """
    nsteps, steps, work = mesh
    if work is None or work is not _slot or nsteps > _SLOT_CAP:
        if _slot is not None:
            _slot.combos = None
        for first in range(0, nsteps, _CHUNK):
            base, h = steps(first, min(first + _CHUNK, nsteps))
            yield first, h, _su2_steps(_combinations(line, base, h), h, line, sp)
        return
    if work.combos is None or work.combos[0] != nsteps:
        base, h = steps(0, nsteps)
        work.combos = (nsteps, h, _combinations(line, base, h))
    _, h, combos = work.combos
    yield 0, h, _su2_steps(combos.copy(), h, line, sp)


def _combinations(line, base, h):
    """The lambda-free Magnus combinations of the steps with bases base and sizes h, as a real (3, 3, n) block.

    One sample of the line at the Gauss nodes of every step gives the rows
    (Im d, cos beta phi, sin beta phi) of lax.hat_nodes, g[:, i] at node i.
    They are combined in place: node slots 1, 2, 0 come back holding a1 =
    h G2, a2 = (sqrt 15/3) h (G3 - G1) and a3 = (10/3) h (G3 - 2 G2 + G1).
    """
    g = hat_nodes(line.picture, line.at(base + _NODES * h), line.field.params)
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


def _su2_steps(combos, h, line, sp):
    """Transfer matrices E_k = exp(Omega_k) of steps of sizes h as a (2, 2, n) batch, in propagation order.

    combos is a _combinations block, which this call consumes.  Its rows
    scale by (1, zeta, -zeta) into the su(2) coordinates (Im d, Re a01, Im
    a01), and a1's Re a01 row shifts by -h lambda m/4: the only lambda in a
    step.  In these coordinates a commutator is twice the cross product.
    Omega is combined in place and copied out, so that the block is freed
    before matcore.expm_su2.
    """
    params = line.field.params
    zeta = hat_zeta(line.picture, sp, params).real
    combos *= np.array([[[1.0]], [[zeta]], [[-zeta]]])
    a3, a1, a2 = combos[:, 0], combos[:, 1], combos[:, 2]
    a1[1] -= h * (sp.lam.real * (params.m / 4.0))
    z = 2.0 * a3
    _add_cross(z, a1, a2, 2.0)  # 2 a3 + C1, C1 = [a1, a2]
    _add_cross(a2, a1, z, -1.0 / 30.0)  # a2 + C2, C2 = -(1/60)[a1, 2 a3 + C1]
    z -= 3.0 * a3  # -20 a1 - a3 + C1
    z -= 20.0 * a1
    a1 += a3 / 12.0  # a1 + a3/12
    # Omega = a1 + a3/12 + (1/240)[-20 a1 - a3 + C1, a2 + C2]
    _add_cross(a1, z, a2, 1.0 / 120.0)
    omega = a1.copy()
    del combos, a1, a2, a3, z
    return expm_su2(omega)


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

    sp must be real (ValueError otherwise).  nsteps is the step count on
    that mesh; None takes the default count.  This and propagate_trajectory are the only public functions that take a
    count: monodromy, jost and the defect checks always step at the default,
    and an explicit count is for refinement studies.
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

    Raises ValueError for a non-real lambda, and NonDecayingFieldError when
    no vacuum is identifiable at the endpoints, read off the ends of the mesh
    probe, before any step; a softer miss (beyond 1e-8 but identifiable) only
    flags the result as truncated.
    """
    _check_real(sp)
    line = Line(field, picture, fixed)
    work = _line_work(line, -half_width, half_width)
    dev = max(line.vacuum(work.probe[k], work.ends[k])[1] for k in (0, -1))
    core = propagate(field, picture, fixed, -half_width, half_width, sp)
    mat = _regularised(core.matrix, line.pick(sp.k1, sp.k0), half_width)
    return Monodromy(mat, dev, dev > _ASYMPTOTE_TOL, core.step_count, core.step_range)


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
    return appendix_equality_residuals(field, x, t, [(sp, half_width)])[0]


def appendix_equality_residuals(field: FieldEvaluator, x: float, t: float, cases) -> list[float]:
    """appendix_equality_residual at each (sp, half_width) of cases, in order.

    The space Jost lines are walked across all the cases before the time
    lines, so cases that share a half-width share each line's slot.
    """
    sides = [[jost(field, picture, x, t, sp, w) for sp, w in cases] for picture in ("space", "time")]
    residuals = []
    for (sp, _), space_side, time_side in zip(cases, *sides):
        ph_t = np.diag([np.exp(-1j * sp.k0 * t), np.exp(1j * sp.k0 * t)])
        ph_x = np.diag([np.exp(-1j * sp.k1 * x), np.exp(1j * sp.k1 * x)])
        residuals.append(frob(space_side @ ph_t - time_side @ ph_x))
    return residuals
