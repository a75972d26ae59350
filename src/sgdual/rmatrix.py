"""Classical r-matrix and lattice checks of both canonical Poisson algebras.

The same fixed 4x4 matrix

    r(lam, mu) = f (1x1 - s3xs3) + g (s1xs1 + s2xs2),
    f = -gamma (lam^2 + mu^2)/(lam^2 - mu^2),  g = 2 gamma lam mu/(lam^2 - mu^2),
    gamma = beta^2 / 16,

governs the equal-time bracket of the space Lax matrix and, with one overall
sign flipped, the equal-space bracket of the time Lax matrix:

    {U_1(x), U_2(y)}_S = +delta(x - y) [r, U_1 + U_2]
    {V_1(t), V_2(tau)}_T = -delta(t - tau) [r, V_1 + V_2]

Both are pointwise algebraic identities once the delta function is realised
as the standard lattice regularisation (Kronecker delta over the spacing),
so the checks here demand machine zero: any gap is a transcription error in
U, V or r, not a discretisation artifact.  Setting lam = e^{i a}, mu = e^{i b}
collapses r to a difference kernel; the prefactor consistent with the
rational form is 2 i gamma / sin(a - b) on the inner block (note the inner
entries are then 2f and 2g, since the projector 1x1 - s3xs3 carries a 2).

Bracket functionals are assembled with analytic derivatives of the Lax
entries with respect to the canonical pair at each site -- never by
finite-differencing a functional -- and lattice sums reduce in a fixed
order, so reports are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldEvaluator, FieldSample, Line, ModelParams, topological_charges
from .lax import SpectralPoint, ce_charged, lax_matrix
from .matcore import ID2, ID4, SIGMA1, SIGMA2, SIGMA3, expm_sl2, inv2, scan, tensor

__all__ = [
    "RMatrixValue",
    "r_matrix",
    "r_matrix_trig",
    "lax_derivatives",
    "ultralocal_check",
    "transition_bracket_check",
    "involution_check",
    "BracketReport",
]

_PROJ = ID4 - tensor(SIGMA3, SIGMA3)
_SWAP = tensor(SIGMA1, SIGMA1) + tensor(SIGMA2, SIGMA2)
_ULTRALOCAL_SPACING = 0.1  # lattice spacing of ultralocal_check


@dataclass(frozen=True)
class RMatrixValue:
    lam: complex
    mu: complex
    f: complex
    g: complex
    gamma_const: float
    matrix: np.ndarray


def r_matrix(lam: complex, mu: complex, params: ModelParams) -> RMatrixValue:
    lam, mu = complex(lam), complex(mu)
    den = lam * lam - mu * mu
    if abs(den) < 1e-12 * max(abs(lam * lam), abs(mu * mu), 1.0):
        raise ZeroDivisionError("r-matrix is singular at lambda^2 = mu^2")
    gamma = params.beta**2 / 16.0
    f = -gamma * (lam * lam + mu * mu) / den
    g = 2.0 * gamma * lam * mu / den
    return RMatrixValue(lam, mu, f, g, gamma, f * _PROJ + g * _SWAP)


def r_matrix_trig(alpha: float, params: ModelParams) -> np.ndarray:
    """Difference form at lam = e^{i a}, mu = e^{i b}, alpha = a - b."""
    gamma = params.beta**2 / 16.0
    core = np.zeros((4, 4), dtype=complex)
    core[1, 1] = core[2, 2] = math.cos(alpha)
    core[1, 2] = core[2, 1] = -1.0
    return (2j * gamma / math.sin(alpha)) * core


def lax_derivatives(picture: str, sample: FieldSample, sp: SpectralPoint, params: ModelParams):
    """Analytic partials of the Lax matrix wrt the canonical pair.

    Space picture: A = U, pair (phi, pi).  Time picture: A = V, pair
    (phi, Pi).  Only phi enters nonlinearly.  For an array of phi both
    partials come back with shape phi.shape + (2, 2).
    """
    beta = params.beta
    half = 0.5 * beta * np.asarray(sample.phi, dtype=float)[..., None, None]
    if picture == "space":
        d_phi = -0.5j * beta * (sp.k0 * np.cos(half) * SIGMA1 - sp.k1 * np.sin(half) * SIGMA2)
        d_mom = -0.25j * beta * SIGMA3
    elif picture == "time":
        d_phi = -0.5j * beta * (sp.k1 * np.cos(half) * SIGMA1 - sp.k0 * np.sin(half) * SIGMA2)
        d_mom = 0.25j * beta * SIGMA3
    else:
        raise ValueError(f"unknown picture {picture!r}")
    return d_phi, np.broadcast_to(d_mom, d_phi.shape)


def ultralocal_check(
    picture: str,
    sample: FieldSample,
    sp1: SpectralPoint,
    sp2: SpectralPoint,
    params: ModelParams,
    flip_sign: bool = False,
) -> float:
    """Same-site lattice bracket against the r-matrix commutator; max-abs gap.

    The identity is exact at any lattice spacing, so the gap is machine zero
    when the transcription is right.  ``flip_sign`` applies the wrong overall
    sign on purpose (the two pictures differ by exactly that sign, so the
    flipped check must fail at order one).
    """
    d1_phi, d1_mom = lax_derivatives(picture, sample, sp1, params)
    d2_phi, d2_mom = lax_derivatives(picture, sample, sp2, params)
    lhs = (tensor(d1_phi, d2_mom) - tensor(d1_mom, d2_phi)) / _ULTRALOCAL_SPACING
    a1 = lax_matrix(picture, sample, sp1, params)
    a2 = lax_matrix(picture, sample, sp2, params)
    r = r_matrix(sp1.lam, sp2.lam, params).matrix
    sign = 1.0 if picture == "space" else -1.0
    if flip_sign:
        sign = -sign
    big = tensor(a1, ID2) + tensor(ID2, a2)
    rhs = (sign / _ULTRALOCAL_SPACING) * (r @ big - big @ r)
    return float(np.max(np.abs(lhs - rhs)))


def _batched_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    return np.einsum("nij,nkl->nikjl", a, b).reshape(n, 4, 4)


def _site_products(sample: FieldSample, sp, params: ModelParams, delta):
    """Per-site V, and the transfer products below each site, above it and in total."""
    v = lax_matrix("time", sample, sp, params)
    steps = expm_sl2(delta * v[:, 0, 0], delta * v[:, 0, 1], delta * v[:, 1, 0])
    # as C-ordered (n, 2, 2) stacks: the einsum sums downstream follow the memory layout
    upto = np.ascontiguousarray(np.moveaxis(scan(steps), -1, 0))  # steps[i] @ ... @ steps[0]
    down_to = np.ascontiguousarray(np.moveaxis(scan(steps, reverse=True), -1, 0))  # steps[n-1] @ ... @ steps[i]
    prefix = np.concatenate([ID2[None], upto[:-1]])  # product of steps below site i
    suffix = np.concatenate([down_to[1:], ID2[None]])  # product of steps above site i
    return v, prefix, suffix, upto[-1]


def _time_lattice(field: FieldEvaluator, x: float, interval: tuple[float, float], n_sites: int):
    """(delta, sample): the spacing of n_sites sites across interval at fixed x, and the field at their midpoints."""
    a, b = interval
    delta = (b - a) / n_sites
    return delta, Line(field, "time", x).at(a + (np.arange(n_sites) + 0.5) * delta)


@dataclass(frozen=True)
class BracketReport:
    gap: float
    lhs_norm: float
    rhs_norm: float
    n_sites: int


def transition_bracket_check(
    field: FieldEvaluator,
    fixed_x: float,
    interval: tuple[float, float],
    sp1: SpectralPoint,
    sp2: SpectralPoint,
    n_sites: int,
) -> BracketReport:
    """Equal-space bracket of the discrete time-transition matrix.

    The Leibniz sum with the exact same-site brackets is compared against
    -[r, T x T] built from the same discrete transfer product; the two agree
    up to O(delta) from the first-order splitting of the site exponentials.
    """
    if n_sites < 100:
        raise ValueError("the lattice needs at least 100 sites")
    params = field.params
    delta, samples = _time_lattice(field, fixed_x, interval, n_sites)
    v1, pre1, suf1, tot1 = _site_products(samples, sp1, params, delta)
    v2, pre2, suf2, tot2 = _site_products(samples, sp2, params, delta)
    r = r_matrix(sp1.lam, sp2.lam, params).matrix
    big = _batched_kron(v1, np.broadcast_to(ID2, v1.shape)) + _batched_kron(
        np.broadcast_to(ID2, v2.shape), v2
    )
    site_bracket = -delta * (r @ big - big @ r)
    lhs = np.einsum(
        "nab,nbc,ncd->ad", _batched_kron(suf1, suf2), site_bracket, _batched_kron(pre1, pre2)
    )
    big_tot = tensor(tot1, tot2)
    rhs = -(r @ big_tot - big_tot @ r)
    return BracketReport(
        float(np.max(np.abs(lhs - rhs))),
        float(np.max(np.abs(lhs))),
        float(np.max(np.abs(rhs))),
        n_sites,
    )


def involution_check(
    field: FieldEvaluator,
    x_probe: float,
    sp_pair: tuple[SpectralPoint, SpectralPoint],
    n_sites: int,
    interval: tuple[float, float],
) -> float:
    """Finite-lattice proxy for |{fa(lam), fa(mu)}_T| at fixed x.

    fa is the end-corrected (1,1) entry of the discrete time-transition
    product; its functional derivatives with respect to the site variables
    (phi_i, Pi_i) are assembled analytically and summed in site order.  The
    proxy vanishes identically on the vacuum and tends to zero under lattice
    refinement on decaying fields.  field is a bulk field: on a defect pair,
    pass the side the probe sits on (pair.left or pair.right); the constant
    connection factors are field-independent and drop out of the bracket.
    Only the (0, 0) entries of the triple products are formed.
    """
    a, b = interval
    qm, qp = topological_charges(field, x_probe, "time")
    delta, samples = _time_lattice(field, x_probe, interval, n_sites)
    grads = []
    for sp in sp_pair:
        _, prefix, suffix, _ = _site_products(samples, sp, field.params, delta)
        left_cap = inv2(ce_charged(b, sp, qp))
        right_cap = ce_charged(a, sp, qm)
        d_phi, d_mom = lax_derivatives("time", samples, sp, field.params)
        head = (left_cap @ suffix)[:, 0]
        tail = (prefix @ right_cap)[..., 0]
        da_dphi = delta * np.einsum("nb,nbc,nc->n", head, d_phi, tail)
        da_dmom = delta * np.einsum("nb,nbc,nc->n", head, d_mom, tail)
        grads.append((da_dphi, da_dmom))
    (dphi1, dmom1), (dphi2, dmom2) = grads
    bracket = np.sum(dphi1 * dmom2 - dmom1 * dphi2) / delta
    return float(abs(bracket))
