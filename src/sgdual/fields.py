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
import numbers
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "ModelParams",
    "FieldSample",
    "GridWindow",
    "MAX_POINTS",
    "QuadResult",
    "FieldEvaluator",
    "VacuumField",
    "KinkField",
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
MAX_POINTS = 2**18  # points of one line's window or probe; more are refused before any is allocated


class NonDecayingFieldError(ValueError):
    """Raised when the field at a line's end is not close to any vacuum value."""


class ModelParams(NamedTuple("ModelParams", [("m", float), ("beta", float)])):
    """Mass parameter m > 0 and coupling beta != 0, both finite."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace validates too

    def __new__(cls, m: float, beta: float):
        if not 0 < m < math.inf:
            raise ValueError(f"mass parameter m must be positive and finite, got {m}")
        if beta == 0 or not math.isfinite(beta):
            raise ValueError(f"coupling beta must be nonzero and finite, got {beta}")
        return super().__new__(cls, m, beta)


class FieldSample(NamedTuple):
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


def _check_points(count: int, what: str) -> None:
    """Refuse more than MAX_POINTS points on a line, before they are allocated."""
    if count > MAX_POINTS:
        raise ValueError(f"{count} {what} points needed; the cap is {MAX_POINTS}")


class GridWindow(NamedTuple("GridWindow", [("half_span", float), ("count", int)])):
    """A line's quadrature grid: count uniform points on [-half_span, half_span], whichever coordinate runs."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace validates too

    def __new__(cls, half_span: float, count: int):
        if not 0 < half_span < math.inf:
            raise ValueError(f"window half-span must be positive and finite, got {half_span}")
        if not isinstance(count, numbers.Integral) or count < 3 or count % 2 == 0:
            raise ValueError(f"window count must be an odd integer of at least 3 (Simpson rule), got {count!r}")
        _check_points(count, "window")
        return super().__new__(cls, half_span, count)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_span, self.half_span, self.count)


class QuadResult(NamedTuple):
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
    """arctan(exp(u)), stable against overflow for large |u|; each branch is evaluated only where it is selected."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    high, low = u > 30.0, u < -30.0
    mid = ~(high | low)
    out[high] = 0.5 * math.pi - np.exp(-u[high])
    out[low] = np.exp(u[low])
    out[mid] = np.arctan(np.exp(u[mid]))
    return out


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

    def _partials(self, x, t, orders):
        """Yield the partials of phi at each (dx, dt) of orders, in order: derivative at each; a solution may share its work across them."""
        for dx, dt in orders:
            yield self.derivative(x, t, dx, dt)


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
            raise ValueError(f"kink orientation must be +1 or -1, got {orientation}")
        self.params = params
        self.v = float(v)
        self.x0 = float(x0)
        self.orientation = int(orientation)
        self.gamma = 1.0 / math.sqrt(1.0 - v * v)

    def _u(self, x, t):
        eps, m, g = self.orientation, self.params.m, self.gamma
        return eps * m * g * (np.asarray(x, dtype=float) - self.v * np.asarray(t, dtype=float) - self.x0)

    def derivative(self, x, t, dx, dt):
        return next(self._partials(x, t, [(dx, dt)]))

    def _partials(self, x, t, orders):
        """The kink's one evaluator of partials: u, sech u and tanh u once, then each order of orders from them.

        derivative is its one-order case, so each partial is the same bits
        whichever of the two asks for it.
        """
        eps, m, g, beta = self.orientation, self.params.m, self.gamma, self.params.beta
        u = self._u(x, t)
        s = T = None
        for dx, dt in orders:
            order = dx + dt
            if order == 0:
                yield (4.0 / beta) * _arctan_exp(u)
                continue
            if s is None:
                s, T = _sech(u), np.tanh(u)
            factor = (eps * m * g) ** dx * (-self.v * eps * m * g) ** dt
            # d^k/du^k phi = (2/beta) d^(k-1)/du^(k-1) sech(u) for k >= 1
            yield factor * (2.0 / beta) * _sech_deriv(order - 1, s, T)

    def sample(self, x, t):
        beta, m, g, eps = self.params.beta, self.params.m, self.gamma, self.orientation
        u = self._u(x, t)
        phi = (4.0 / beta) * _arctan_exp(u)
        slope = eps * m * g * (2.0 / beta) * _sech(u)
        return FieldSample(phi, slope, -self.v * slope)


class Line:
    """One line of spacetime: the x axis at fixed t (space) or the t axis at fixed x (time).

    The only place that maps a running coordinate s to (x, t) and a
    (running, cross) derivative order to (dx, dt).  ``at`` is the one
    sampler of a line.  A line holds no samples: every call evaluates the
    field afresh.
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
        """(x, t) of the points at running coordinates s: the array s and the scalar fixed coordinate, which broadcasts."""
        s = np.asarray(s, dtype=float)
        return self.pick((s, self.fixed), (self.fixed, s))

    def at(self, s) -> FieldSample:
        """The field sample at running coordinates s."""
        return self.field.sample(*self.points(s))

    def partial(self, s, run: int, cross: int = 0):
        """Partial of phi of order run along the line and cross across it."""
        return next(self.partials(s, [(run, cross)]))

    def partials(self, s, orders):
        """Yield the partials of phi of each order (run, cross) of orders, along the line and across it, from one field evaluation."""
        return self.field._partials(*self.points(s), [self.pick(order, order[::-1]) for order in orders])

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
    svals = window.axis()
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

    ``picture='space'``: limits in x at fixed t, ``picture='time'``: in t at
    fixed x, both read at +-1e3/m.  Raises NonDecayingFieldError when an
    asymptote sits farther than a tenth of the vacuum spacing from every multiple.
    """
    line = Line(field, picture, fixed)
    edges = (sign * 1e3 / field.params.m for sign in (-1, 1))
    return tuple(line.vacuum(s, line.partial(s, 0))[0] for s in edges)
