"""Exact sine-Gordon field configurations and their dual-picture energetics.

The model is phi_tt - phi_xx + (m^2/beta) sin(beta phi) = 0 with conjugate
momenta pi = phi_t (equal-time picture) and Pi = -phi_x (equal-space
picture).  The corresponding Hamiltonian densities are

    H_S density:  pi^2/2 + phi_x^2/2 + (m/beta)^2 (1 - cos beta phi)
    H_T density: -Pi^2/2 - phi_t^2/2 + (m/beta)^2 (1 - cos beta phi)

integrated over x at fixed t, resp. over t at fixed x.  Field evaluators are
immutable and expose analytic derivatives of any mixed order, which the
charge recursions downstream rely on (no nested finite differencing).

Solutions provided here: the vacuum and the boosted kink
phi = (4/beta) arctan(exp(eps * m * gamma * (x - v t - x0))), validated by a
finite-difference residual oracle in the tests rather than trusted.

Both pictures walk a line of spacetime -- x at fixed t, or t at fixed x --
and ``Line`` is the one place that knows which coordinate runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ModelParams",
    "FieldSample",
    "GridWindow",
    "QuadResult",
    "FieldEvaluator",
    "VacuumField",
    "KinkField",
    "GridField",
    "Line",
    "NonDecayingFieldError",
    "make_vacuum",
    "make_kink",
    "simpson_uniform",
    "hamiltonian_S",
    "hamiltonian_T",
    "topological_charges",
]

TAIL_TOL = 1e-12  # quadrature windows should bury the integrand tail below this
CHARGE_ROUNDING_FRACTION = 0.1  # of the vacuum spacing 2*pi/beta


class NonDecayingFieldError(ValueError):
    """Raised when the field at a line's end is not close to any vacuum value."""


@dataclass(frozen=True)
class ModelParams:
    """Mass parameter m > 0 and coupling beta != 0."""

    m: float
    beta: float

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError(f"mass parameter must be positive, got {self.m}")
        if self.beta == 0:
            raise ValueError("coupling beta must be nonzero")


@dataclass(frozen=True)
class FieldSample:
    """Field value and first derivatives at one spacetime point.

    ``pi`` and ``Pi`` are the on-shell conjugate momenta of the two Legendre
    transforms: pi = phi_t and Pi = -phi_x.
    """

    phi: float
    phi_x: float
    phi_t: float

    @property
    def pi(self):
        return self.phi_t

    @property
    def Pi(self):
        return -self.phi_x


@dataclass(frozen=True)
class GridWindow:
    x_min: float
    x_max: float
    t_min: float
    t_max: float
    nx: int
    nt: int

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.t_min < self.t_max):
            raise ValueError("window bounds must be increasing")
        if self.nx < 2 or self.nt < 2:
            raise ValueError("window needs at least two points per axis")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ts(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.nt)


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value plus tail metadata for truncation accounting."""

    value: float
    tail: float
    truncated: bool

    def __float__(self):
        return self.value


# ---------------------------------------------------------------------------
# derivative engine for sech-profile solutions
#
# d^k/du^k sech(u) is a polynomial in s = sech(u), T = tanh(u); the table of
# monomial coefficients is built once per order and reused.  Monomial rule:
# d/du s^a T^b = -a s^a T^(b+1) + b s^(a+2) T^(b-1).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sech_monomials(k: int) -> tuple[tuple[int, int, float], ...]:
    if k == 0:
        return ((1, 0, 1.0),)
    out: dict[tuple[int, int], float] = {}
    for a, b, c in _sech_monomials(k - 1):
        out[(a, b + 1)] = out.get((a, b + 1), 0.0) - a * c
        if b:
            out[(a + 2, b - 1)] = out.get((a + 2, b - 1), 0.0) + b * c
    return tuple((a, b, c) for (a, b), c in out.items() if c != 0.0)


def _sech_deriv(k: int, s, T):
    """k-th u-derivative of sech(u) from tabulated (sech, tanh) monomials."""
    total = np.zeros_like(s)
    for a, b, c in _sech_monomials(k):
        total = total + c * s**a * T**b
    return total


def _sech(u):
    """sech(u) without overflow at large |u|."""
    a = np.exp(-np.abs(u))
    return 2.0 * a / (1.0 + a * a)


def _arctan_exp(u):
    """arctan(exp(u)), stable against overflow for large |u|."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):  # the overflowing branch is never selected
        e = np.exp(u)
        return np.where(u > 30.0, 0.5 * math.pi - np.exp(-u), np.where(u < -30.0, e, np.arctan(e)))


class FieldEvaluator:
    """Base class: immutable exact solution with analytic derivatives."""

    params: ModelParams
    kind: str
    gamma = 1.0  # Lorentz factor: the field varies on the length scale 1/(m gamma)

    def sample(self, x, t) -> FieldSample:
        phi = self.derivative(x, t, 0, 0)
        return FieldSample(phi, self.derivative(x, t, 1, 0), self.derivative(x, t, 0, 1))

    def derivative(self, x, t, dx: int, dt: int):
        """Mixed partial d^dx/dx^dx d^dt/dt^dt of phi; accepts arrays."""
        raise NotImplementedError

    def edge(self, line: Line, sign: int) -> float:
        """Running coordinate on the sign side of the line where phi is settled."""
        return sign * 1e3 / self.params.m


class VacuumField(FieldEvaluator):
    kind = "vacuum"

    def __init__(self, params: ModelParams):
        self.params = params

    def derivative(self, x, t, dx, dt):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape)

    def sample(self, x, t):
        z = np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape)
        if z.shape == ():
            return FieldSample(0.0, 0.0, 0.0)
        return FieldSample(z, z.copy(), z.copy())


class KinkField(FieldEvaluator):
    """One-soliton solution phi = (4/beta) arctan(exp(eps m gamma (x-vt-x0)))."""

    kind = "kink"

    def __init__(self, params: ModelParams, v: float, x0: float, orientation: int):
        if not abs(v) < 1.0:
            raise ValueError(f"kink velocity must satisfy |v| < 1, got {v}")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self.params = params
        self.v = float(v)
        self.x0 = float(x0)
        self.orientation = int(orientation)
        self.gamma = 1.0 / math.sqrt(1.0 - v * v)

    def _u(self, x, t):
        eps, m, g = self.orientation, self.params.m, self.gamma
        return eps * m * g * (np.asarray(x, dtype=float) - self.v * np.asarray(t, dtype=float) - self.x0)

    def derivative(self, x, t, dx, dt):
        eps, m, g, beta = self.orientation, self.params.m, self.gamma, self.params.beta
        u = self._u(x, t)
        order = dx + dt
        if order == 0:
            return (4.0 / beta) * _arctan_exp(u)
        factor = (eps * m * g) ** dx * (-self.v * eps * m * g) ** dt
        s = _sech(u)
        T = np.tanh(u)
        # d^k/du^k phi = (2/beta) d^(k-1)/du^(k-1) sech(u) for k >= 1
        return factor * (2.0 / beta) * _sech_deriv(order - 1, s, T)

    def sample(self, x, t):
        beta, m, g, eps = self.params.beta, self.params.m, self.gamma, self.orientation
        u = self._u(x, t)
        phi = (4.0 / beta) * _arctan_exp(u)
        slope = eps * m * g * (2.0 / beta) * _sech(u)
        return FieldSample(phi, slope, -self.v * slope)


class GridField(FieldEvaluator):
    """Solution backed by a spline over a rectangular (x, t) grid.

    Produced by the Backlund integrator; derivative orders are limited by the
    spline degree, and evaluation outside the grid is refused.
    """

    kind = "grid"

    def __init__(self, params: ModelParams, xs, ts, values):
        from scipy.interpolate import RectBivariateSpline

        self.params = params
        self.xs = np.asarray(xs, dtype=float)
        self.ts = np.asarray(ts, dtype=float)
        self._spline = RectBivariateSpline(self.xs, self.ts, np.asarray(values), kx=5, ky=5)
        self._values = np.asarray(values)

    def derivative(self, x, t, dx, dt):
        if dx >= 5 or dt >= 5:
            raise ValueError("grid field supports derivatives below order (5, 5)")
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(x < self.xs[0]) or np.any(x > self.xs[-1]) or np.any(t < self.ts[0]) or np.any(t > self.ts[-1]):
            raise ValueError("evaluation outside the backing grid")
        out = self._spline(x, t, dx=dx, dy=dt, grid=False)
        return out if out.shape else float(out)

    def edge(self, line, sign):
        axis = line.pick(self.xs, self.ts)
        return axis[-1] if sign > 0 else axis[0]


class Line:
    """One line of spacetime: the x axis at fixed t (space) or the t axis at fixed x (time).

    The only place that maps a running coordinate s to (x, t) and a
    (running, cross) derivative order to (dx, dt).  It also picks the window
    axis, the gauged generator U_hat / V_hat and the plane-wave normaliser
    E0 / cE0 of its picture.  ``at`` is the one sampler of a line.  A line
    holds no samples: every call evaluates the field afresh.
    """

    def __init__(self, field: FieldEvaluator, picture: str, fixed: float):
        if picture not in ("space", "time"):
            raise ValueError(f"unknown picture {picture!r}")
        self.field = field
        self.picture = picture
        self.fixed = fixed

    @classmethod
    def through(cls, field: FieldEvaluator, picture: str, x: float, t: float):
        """The line of the picture through (x, t), and the running coordinate there."""
        line = cls(field, picture, t if picture == "space" else x)
        return line, line.pick(x, t)

    def pick(self, space, time):
        """Whichever of the two per-picture alternatives belongs to this line."""
        return space if self.picture == "space" else time

    def points(self, s):
        """(x, t) arrays of the points at running coordinates s."""
        s = np.asarray(s, dtype=float)
        other = np.full_like(s, self.fixed)
        return self.pick((s, other), (other, s))

    def at(self, s) -> FieldSample:
        """The field sample at running coordinates s."""
        return self.field.sample(*self.points(s))

    def partial(self, s, run: int, cross: int = 0):
        """Partial of phi of order run along the line and cross across it."""
        return self.field.derivative(*self.points(s), *self.pick((run, cross), (cross, run)))

    def axis(self, window: GridWindow) -> np.ndarray:
        """The window's running grid: xs (space) or ts (time)."""
        return self.pick(window.xs, window.ts)()

    def generator_entries(self, s, sp):
        """Entries (d, a01, a10) of the gauged generator [[d, a01], [a10, -d]] at running coordinates s.

        One array of shape (3,) + s.shape, as lax.hat_entries returns it.
        """
        from .lax import hat_entries

        return hat_entries(self.picture, self.at(s), sp, self.field.params)

    def normaliser(self, s, sp) -> np.ndarray:
        """Plane-wave normaliser E0 (space) or cE0 (time) at running coordinate s."""
        from .lax import ce0, e0

        return self.pick(e0, ce0)(s, sp)

    def vacuum(self, s, phi) -> tuple[int, float]:
        """(q, offset): the vacuum 2 pi q / beta nearest to the value phi taken at s, and the distance to it.

        Raises NonDecayingFieldError when phi sits farther than a tenth of the
        vacuum spacing from every vacuum.
        """
        phi = float(phi)
        spacing = 2.0 * math.pi / self.field.params.beta
        q = round(phi / spacing)
        offset = abs(phi - q * spacing)
        if offset > CHARGE_ROUNDING_FRACTION * abs(spacing):
            raise NonDecayingFieldError(
                f"phi = {phi:.6g} at {self.picture} coordinate {float(s):+g} is {offset:.3g} "
                f"away from every multiple of 2*pi/beta = {spacing:.6g}"
            )
        return int(q), offset


def make_vacuum(params: ModelParams) -> VacuumField:
    return VacuumField(params)


def make_kink(params: ModelParams, v: float, x0: float = 0.0, orientation: int = 1) -> KinkField:
    return KinkField(params, v, x0, orientation)


def simpson_uniform(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule on a uniform grid (odd point count required)."""
    values = np.asarray(values)
    n = values.shape[0]
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of points >= 3")
    acc = values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()
    total = (h / 3.0) * acc
    return complex(total) if np.iscomplexobj(values) else float(total)


def _quad_over_axis(density: np.ndarray, h: float) -> QuadResult:
    tail = float(max(abs(density[0]), abs(density[-1])))
    return QuadResult(simpson_uniform(density, h), tail, tail > TAIL_TOL)


def _energy(line: Line, window: GridWindow, kinetic_sign: float) -> QuadResult:
    """Integral along the line of kinetic_sign (phi_t^2 + phi_x^2)/2 + potential."""
    m, beta = line.field.params.m, line.field.params.beta
    svals = line.axis(window)
    s = line.at(svals)
    kinetic = 0.5 * s.phi_t**2 + 0.5 * s.phi_x**2
    density = kinetic_sign * kinetic + (m / beta) ** 2 * (1.0 - np.cos(beta * s.phi))
    return _quad_over_axis(density, svals[1] - svals[0])


def hamiltonian_S(field: FieldEvaluator, t: float, window: GridWindow) -> QuadResult:
    """Equal-time energy: integral over x of the H_S density at fixed t."""
    return _energy(Line(field, "space", t), window, 1.0)


def hamiltonian_T(field: FieldEvaluator, x: float, window: GridWindow) -> QuadResult:
    """Equal-space energy: integral over t of the H_T density at fixed x."""
    return _energy(Line(field, "time", x), window, -1.0)


def topological_charges(field: FieldEvaluator, fixed: float, picture: str) -> tuple[int, int]:
    """Winding integers (Q-, Q+) read from the field asymptotes.

    ``picture='space'``: limits in x at fixed t.  ``picture='time'``: limits
    in t at fixed x.  Raises NonDecayingFieldError when an asymptote sits
    farther than a tenth of the vacuum spacing from every multiple.
    """
    line = Line(field, picture, fixed)
    edges = field.edge(line, -1), field.edge(line, +1)
    return tuple(line.vacuum(s, line.partial(s, 0))[0] for s in edges)
