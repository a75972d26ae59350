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

The lattice checks take an integer count of at least 100 sites and hold one
scan, or one block of sites, at a time, so their peak memory is set by one
point's site factors and scan, not by whole-lattice (4, 4) stacks.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .fields import FieldEvaluator, FieldSample, Line, ModelParams, topological_charges
from .lax import SpectralPoint, _check_real, ce_charged, lax_matrix
from .matcore import ID2, ID4, SIGMA1, SIGMA2, SIGMA3, _stack22, expm_su2, inv2, scan, tensor

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
_MIN_SITES = 100  # the fewest sites a lattice check takes
_BLOCK = 64  # sites per block of transition_bracket_check's Leibniz sum


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
    arrays of phi's shape, one spectral point per entry.  The entries are
    _derivative_entries'.
    """
    phi01, phi10, mom00, mom11 = _derivative_entries(picture, sample, sp, params)
    d_phi = _stack22(0.0, phi01, phi10, 0.0)
    return d_phi, np.broadcast_to(_stack22(mom00, 0.0, 0.0, mom11), d_phi.shape)


def _derivative_entries(picture: str, sample: FieldSample, sp: SpectralPoint, params: ModelParams):
    """(phi01, phi10, mom00, mom11): the off-diagonal entries of the phi partial and the diagonal entries of the momentum partial.

    phi01 and phi10 have phi's shape (broadcast with k0 and k1), and the
    momentum entries are constants.  Each entry is the one of
    -(i beta/2)(k cos(beta phi/2) s1 - k' sin(beta phi/2) s2) and -+(i
    beta/4) s3 that the (2, 2) form takes, k = k0, k' = k1 in space and the
    other way round in time, so the matrices of lax_derivatives and the
    entries alone agree bit for bit.
    """
    beta = params.beta
    half = 0.5 * beta * np.asarray(sample.phi, dtype=float)
    if picture == "space":
        kc, ks, mom = sp.k0, sp.k1, -0.25j * beta
    elif picture == "time":
        kc, ks, mom = sp.k1, sp.k0, 0.25j * beta
    else:
        raise ValueError(f"unknown picture {picture!r}")
    c, s, scale = np.asarray(kc) * np.cos(half), np.asarray(ks) * np.sin(half), -0.5j * beta
    phi01 = scale * (c * SIGMA1[0, 1] - s * SIGMA2[0, 1])
    phi10 = scale * (c * SIGMA1[1, 0] - s * SIGMA2[1, 0])
    return phi01, phi10, mom * SIGMA3[0, 0], mom * SIGMA3[1, 1]


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


def _site_factors(sample: FieldSample, sp, params: ModelParams, delta):
    """(v, steps): per-site V as an (n, 2, 2) stack, and the site factors exp(delta V) as a (2, 2, n) batch.

    At real lambda delta V is traceless and anti-Hermitian, so each factor is
    matcore.expm_su2 of u = (Im delta V00, Re delta V01, Im delta V01); a
    non-real lambda raises ValueError.
    """
    _check_real(sp, "the lattice checks")
    v = lax_matrix("time", sample, sp, params)
    return v, expm_su2(delta * np.array([v[:, 0, 0].imag, v[:, 0, 1].real, v[:, 0, 1].imag]))


def _site_products(sample: FieldSample, sp, params: ModelParams, delta):
    """Per-site V, and the transfer products below each site, above it and in total.

    The reverse scan is read into the suffixes and freed before the forward
    scan runs, so one scan is alive at a time.
    """
    v, steps = _site_factors(sample, sp, params, delta)
    down_to = scan(steps, reverse=True)
    # written into C-ordered (n, 2, 2) stacks: the products and sums downstream follow the memory layout
    suffix = np.empty((v.shape[0], 2, 2), dtype=complex)  # product of steps above site i
    suffix[:-1] = np.moveaxis(down_to[..., 1:], -1, 0)
    suffix[-1] = ID2
    del down_to
    upto = scan(steps)
    del steps
    prefix = np.empty_like(suffix)  # product of steps below site i
    prefix[0] = ID2
    prefix[1:] = np.moveaxis(upto[..., :-1], -1, 0)
    return v, prefix, suffix, upto[..., -1].copy()  # a copy, so that the returned total does not keep the scan alive


def _check_sites(n_sites):
    """Refuse a site count that is not an integer of at least _MIN_SITES, before any sampling."""
    if isinstance(n_sites, bool) or not isinstance(n_sites, numbers.Integral) or n_sites < _MIN_SITES:
        raise ValueError(f"the lattice needs an integer count of at least {_MIN_SITES} sites, got {n_sites!r}")


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
    The site terms (S_i x S'_i) (-delta [r, V_i x 1 + 1 x V'_i]) (P_i x P'_i),
    S and P the products above and below site i, are formed a block of
    _BLOCK sites at a time and folded into the sum in site order, which is
    the one-piece sum bit for bit whatever the block size.  n_sites must be
    an integer of at least 100 (ValueError otherwise).
    """
    _check_sites(n_sites)
    params = field.params
    delta, samples = _time_lattice(field, fixed_x, interval, n_sites)
    v1, pre1, suf1, tot1 = _site_products(samples, sp1, params, delta)
    v2, pre2, suf2, tot2 = _site_products(samples, sp2, params, delta)
    r = r_matrix(sp1.lam, sp2.lam, params).matrix
    lhs = np.zeros((4, 4), dtype=complex)  # 0 + x is x: the fold below is the one-piece site-order sum
    for first in range(0, n_sites, _BLOCK):
        m = min(_BLOCK, n_sites - first)
        block, ones = slice(first, first + m), np.broadcast_to(ID2, (m, 2, 2))
        big = _batched_kron(v1[block], ones)
        big += _batched_kron(ones, v2[block])
        # -(r @ big - big @ r), with big @ r and r @ big as one 2-D product each against the fixed r
        site_bracket = (big.reshape(4 * m, 4) @ r).reshape(m, 4, 4)
        big = big.transpose(1, 0, 2).reshape(4, 4 * m)  # a copy: column block i is the site-i matrix
        site_bracket -= (r @ big).reshape(4, m, 4).transpose(1, 0, 2)
        site_bracket *= delta
        terms = _batched_kron(suf1[block], suf2[block]) @ site_bracket @ _batched_kron(pre1[block], pre2[block])
        lhs = np.add.reduce(np.concatenate((lhs[None], terms)), axis=0)
    big_tot = tensor(tot1, tot2)
    rhs = -(r @ big_tot - big_tot @ r)
    return BracketReport(
        float(np.max(np.abs(lhs - rhs))),
        float(np.max(np.abs(lhs))),
        float(np.max(np.abs(rhs))),
        n_sites,
    )


def _fa_gradient(samples: FieldSample, sp, params: ModelParams, delta, interval, charges):
    """delta times the derivatives of fa = [cap_b^-1 steps[n-1] ... steps[0] cap_a]_00 in (phi_i, Pi_i), as two (n,) arrays.

    cap_a and cap_b are ce_charged at the interval's ends with the charges
    (q-, q+).  V is dropped once the site factors exist, and the reverse scan
    is read into head and freed before the forward scan runs.
    """
    n_sites = len(samples.phi)
    steps = _site_factors(samples, sp, params, delta)[1]
    (a, b), (qm, qp) = interval, charges
    row, col = inv2(ce_charged(b, sp, qp))[0], ce_charged(a, sp, qm)[:, 0]
    # head[:, i] = row @ suffix_i with suffix_i = down_to[..., i + 1], the identity at the last site
    down_to = scan(steps, reverse=True)
    head = np.empty((2, n_sites), dtype=complex)
    head[:, :-1] = row[0] * down_to[0, :, 1:] + row[1] * down_to[1, :, 1:]
    head[:, -1] = row
    del down_to
    # tail[:, i] = prefix_i @ col with prefix_i = upto[..., i - 1], the identity at the first site
    upto = scan(steps)
    del steps
    tail = np.empty((2, n_sites), dtype=complex)
    tail[:, 1:] = upto[:, 0, :-1] * col[0] + upto[:, 1, :-1] * col[1]
    tail[:, 0] = col
    del upto
    phi01, phi10, mom00, mom11 = _derivative_entries("time", samples, sp, params)
    da_dphi = head[0] * phi01 * tail[1]
    da_dphi += head[1] * phi10 * tail[0]
    da_dmom = head[0] * mom00 * tail[0]
    da_dmom += head[1] * mom11 * tail[1]
    return delta * da_dphi, delta * da_dmom


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
    has two terms, and only those four entries are formed
    (_derivative_entries).  One scan of one point is alive at a time
    (_fa_gradient).
    n_sites must be an integer of at least 100 (ValueError otherwise).
    """
    _check_sites(n_sites)
    charges = topological_charges(field, x_probe, "time")
    delta, samples = _time_lattice(field, x_probe, interval, n_sites)
    (dphi1, dmom1), (dphi2, dmom2) = (_fa_gradient(samples, sp, field.params, delta, interval, charges) for sp in sp_pair)
    bracket = np.sum(dphi1 * dmom2 - dmom1 * dphi2) / delta
    return float(abs(bracket))
