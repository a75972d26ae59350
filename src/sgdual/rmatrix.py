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

The lattice checks multiply site factors exp(delta V).  At real lambda
delta V is traceless and anti-Hermitian, so each factor is an su(2)
exponential (matcore.expm_su2), unitary with determinant 1 to roundoff; like
propagation, they take real lambda only.

Bracket functionals are assembled with analytic derivatives of the Lax
entries with respect to the canonical pair at each site -- never by
finite-differencing a functional -- and lattice sums reduce in a fixed
order, so reports are bit-stable.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .fields import FieldEvaluator, FieldSample, Line, ModelParams, topological_charges
from .lax import SpectralPoint, _check_real, ce_charged, lax_matrix
from .matcore import ID2, ID4, SIGMA1, SIGMA2, SIGMA3, expm_su2, inv2, scan, tensor

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


class RMatrixValue(NamedTuple):
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
    (phi, Pi).  Only phi enters nonlinearly: the phi partial is
    off-diagonal and the momentum partial diagonal.  For an array of phi both
    partials come back with shape phi.shape + (2, 2); k0 and k1 may be
    arrays of phi's shape, one spectral point per entry.
    """
    beta = params.beta
    half = 0.5 * beta * np.asarray(sample.phi, dtype=float)[..., None, None]
    k0, k1 = (np.asarray(k)[..., None, None] for k in (sp.k0, sp.k1))
    if picture == "space":
        d_phi = -0.5j * beta * (k0 * np.cos(half) * SIGMA1 - k1 * np.sin(half) * SIGMA2)
        d_mom = -0.25j * beta * SIGMA3
    elif picture == "time":
        d_phi = -0.5j * beta * (k1 * np.cos(half) * SIGMA1 - k0 * np.sin(half) * SIGMA2)
        d_mom = 0.25j * beta * SIGMA3
    else:
        raise ValueError(f"unknown picture {picture!r}")
    return d_phi, np.broadcast_to(d_mom, d_phi.shape)


def _draws(sp) -> SpectralPoint:
    """sp itself, or a sequence of SpectralPoints as one whose lam, k0 and k1 are (n,) arrays."""
    if isinstance(sp, SpectralPoint):
        return sp
    lam, k0, k1 = (np.array([getattr(p, key) for p in sp]) for key in ("lam", "k0", "k1"))
    return SpectralPoint(lam, sp[0].m, k0, k1)


def ultralocal_check(
    picture: str,
    sample: FieldSample,
    sp1: SpectralPoint | Sequence[SpectralPoint],
    sp2: SpectralPoint | Sequence[SpectralPoint],
    params: ModelParams,
    flip_sign: bool = False,
) -> float:
    """Same-site lattice bracket against the r-matrix commutator; max-abs gap.

    The identity is exact at any lattice spacing, so the gap is machine zero
    when the transcription is right.  ``flip_sign`` applies the wrong overall
    sign on purpose (the two pictures differ by exactly that sign, so the
    flipped check must fail at order one).

    One draw takes a sample of floats and one SpectralPoint each for sp1 and
    sp2.  A batch of n draws takes a sample of (n,) arrays and sequences of n
    SpectralPoints: draw i pairs entry i of the sample with sp1[i] and
    sp2[i], and the gap is the largest over the batch, bitwise the largest of
    the n single-draw gaps at real lambda.
    """
    sp1, sp2 = _draws(sp1), _draws(sp2)
    d1_phi, d1_mom = lax_derivatives(picture, sample, sp1, params)
    d2_phi, d2_mom = lax_derivatives(picture, sample, sp2, params)
    lhs = (tensor(d1_phi, d2_mom) - tensor(d1_mom, d2_phi)) / _ULTRALOCAL_SPACING
    a1 = lax_matrix(picture, sample, sp1, params)
    a2 = lax_matrix(picture, sample, sp2, params)
    pairs = np.broadcast(sp1.lam, sp2.lam)
    r = np.reshape([r_matrix(lam, mu, params).matrix for lam, mu in pairs], pairs.shape + (4, 4))
    sign = 1.0 if picture == "space" else -1.0
    if flip_sign:
        sign = -sign
    big = tensor(a1, ID2) + tensor(ID2, a2)
    rhs = (sign / _ULTRALOCAL_SPACING) * (r @ big - big @ r)
    return float(np.max(np.abs(lhs - rhs)))


def _batched_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    return np.einsum("nij,nkl->nikjl", a, b).reshape(n, 4, 4)


def _transfer_scans(sample: FieldSample, sp, params: ModelParams, delta):
    """(v, upto, down_to): per-site V, and the ordered products of the site factors exp(delta V) up to and down to each site.

    v is an (n, 2, 2) stack; upto[..., i] = steps[i] @ ... @ steps[0] and
    down_to[..., i] = steps[n-1] @ ... @ steps[i] are (2, 2, n) batches.
    At real lambda delta V is traceless and anti-Hermitian, so each factor is
    matcore.expm_su2 of u = (Im delta V00, Re delta V01, Im delta V01); a
    non-real lambda raises ValueError.
    """
    _check_real(sp, "the lattice checks")
    v = lax_matrix("time", sample, sp, params)
    steps = expm_su2(delta * np.array([v[:, 0, 0].imag, v[:, 0, 1].real, v[:, 0, 1].imag]))  # a temporary u, not held during the scans
    return v, scan(steps), scan(steps, reverse=True)


def _site_products(sample: FieldSample, sp, params: ModelParams, delta):
    """Per-site V, and the transfer products below each site, above it and in total."""
    v, upto, down_to = _transfer_scans(sample, sp, params, delta)
    # written into C-ordered (n, 2, 2) stacks: the products and sums downstream follow the memory layout
    prefix = np.empty((v.shape[0], 2, 2), dtype=upto.dtype)  # product of steps below site i
    prefix[0] = ID2
    prefix[1:] = np.moveaxis(upto[..., :-1], -1, 0)
    suffix = np.empty_like(prefix)  # product of steps above site i
    suffix[:-1] = np.moveaxis(down_to[..., 1:], -1, 0)
    suffix[-1] = ID2
    return v, prefix, suffix, upto[..., -1].copy()  # a copy, so that the returned total does not keep the scan alive


def _time_lattice(field: FieldEvaluator, x: float, interval: tuple[float, float], n_sites: int):
    """(delta, sample): the spacing of n_sites sites across interval at fixed x, and the field at their midpoints."""
    a, b = interval
    delta = (b - a) / n_sites
    return delta, Line(field, "time", x).at(a + (np.arange(n_sites) + 0.5) * delta)


class BracketReport(NamedTuple):
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
    big = _batched_kron(v1, np.broadcast_to(ID2, v1.shape))
    big += _batched_kron(np.broadcast_to(ID2, v2.shape), v2)
    del v1, v2
    # -(r @ big - big @ r), with big @ r and r @ big as one 2-D product each against the fixed r
    site_bracket = (big.reshape(4 * n_sites, 4) @ r).reshape(n_sites, 4, 4)
    big = big.transpose(1, 0, 2).reshape(4, 4 * n_sites)  # a copy: column block i is the site-i matrix
    site_bracket -= (r @ big).reshape(4, n_sites, 4).transpose(1, 0, 2)
    site_bracket *= delta
    del big
    site_bracket = _batched_kron(suf1, suf2) @ site_bracket  # rebound, so that one (n, 4, 4) stack fewer is live below
    lhs = (site_bracket @ _batched_kron(pre1, pre2)).sum(axis=0)
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

    The derivative at site i is the (0, 0) entry of cap_b suffix_i dV_i
    prefix_i cap_a, so only the cap row times the reverse scan and the
    forward scan times the cap column are formed, entrywise on the (2, 2, n)
    scans; dV is off-diagonal in phi and diagonal in Pi, so each contraction
    has two terms.  The spectral points are taken one at a time, which
    bounds the live scans to those of one point.
    """
    a, b = interval
    qm, qp = topological_charges(field, x_probe, "time")
    delta, samples = _time_lattice(field, x_probe, interval, n_sites)
    grads = []
    for sp in sp_pair:
        _, upto, down_to = _transfer_scans(samples, sp, field.params, delta)
        row = inv2(ce_charged(b, sp, qp))[0]
        col = ce_charged(a, sp, qm)[:, 0]
        # head[:, i] = row @ suffix_i with suffix_i = down_to[..., i + 1], the identity at the last site
        head = np.empty((2, n_sites), dtype=complex)
        head[:, :-1] = row[0] * down_to[0, :, 1:] + row[1] * down_to[1, :, 1:]
        head[:, -1] = row
        # tail[:, i] = prefix_i @ col with prefix_i = upto[..., i - 1], the identity at the first site
        tail = np.empty((2, n_sites), dtype=complex)
        tail[:, 1:] = upto[:, 0, :-1] * col[0] + upto[:, 1, :-1] * col[1]
        tail[:, 0] = col
        del upto, down_to
        d_phi, d_mom = lax_derivatives("time", samples, sp, field.params)
        da_dphi = head[0] * d_phi[:, 0, 1] * tail[1]
        da_dphi += head[1] * d_phi[:, 1, 0] * tail[0]
        da_dmom = head[0] * d_mom[:, 0, 0] * tail[0]
        da_dmom += head[1] * d_mom[:, 1, 1] * tail[1]
        grads.append((delta * da_dphi, delta * da_dmom))
    (dphi1, dmom1), (dphi2, dmom2) = grads
    bracket = np.sum(dphi1 * dmom2 - dmom1 * dphi2) / delta
    return float(abs(bracket))
