"""Lax matrices for sine-Gordon in laboratory coordinates.

The auxiliary problem is Psi_x = U Psi, Psi_t = V Psi with

    U = -i(beta/4) pi  s3 - i k0 sin(beta phi/2) s1 - i k1 cos(beta phi/2) s2
    V = +i(beta/4) Pi  s3 - i k1 sin(beta phi/2) s1 - i k0 cos(beta phi/2) s2

and k0 = (m/4)(lambda + 1/lambda), k1 = (m/4)(lambda - 1/lambda).  The gauge
Omega = exp(i beta phi s3 / 4) removes the winding at infinity and produces

    U_hat = -i(beta/4)(phi_x + pi) s3 - i lambda (m/4) s2 + i (m/4 lambda) s2 E
    V_hat = -i(beta/4)(phi_t - Pi) s3 - i lambda (m/4) s2 - i (m/4 lambda) s2 E

with E = exp(i beta phi s3).  Both tend to the constant matrices
U_inf = -i k1 s2, V_inf = -i k0 s2 on decaying fields; N = (1 + i s1)/sqrt(2)
diagonalises s2 (N^-1 s2 N = s3), which is what makes the plane-wave
normalisers E0(x) = N exp(-i k1 x s3), cE0(t) = N exp(-i k0 t s3) solve the
asymptotic problems.

The gauged generators are built entrywise from the explicit formulas above
(``hat_entries``): ``hat_nodes`` takes what they need of the field (Im d and
e^{i beta phi}; pi = phi_t and Pi = -phi_x make both d one), and lambda and
the picture enter only through -lambda m/4 and the sign of the coefficient
zeta of i s2 E (``hat_zeta``).  For real lambda the
generator is then i(w1 s1 + w2 s2 + w3 s3) with the real w1 = -zeta sin(beta
phi), w2 = zeta cos(beta phi) - lambda m/4, w3 = Im d, which is how
propagation steps it.  The gauge consistency U_hat = Om^-1 U Om - Om^-1 Om_x
is a test, not the construction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fields import FieldEvaluator, FieldSample, ModelParams
from .matcore import SIGMA1, _stack22, comm, frob

__all__ = [
    "SpectralPoint",
    "spectral",
    "lax_matrix",
    "build_U",
    "build_V",
    "hat_entries",
    "hat_nodes",
    "hat_zeta",
    "e0",
    "ce0",
    "ce_charged",
    "zero_curvature_residual",
]


class SpectralPoint(NamedTuple):
    """Spectral parameter with cached k0, k1 (and the mass that set them)."""

    lam: complex
    m: float
    k0: complex
    k1: complex


def spectral(lam: complex, params: ModelParams) -> SpectralPoint:
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda = 0 is excluded; use the small-lambda charge expansions")
    m = params.m
    return SpectralPoint(lam, m, (m / 4.0) * (lam + 1.0 / lam), (m / 4.0) * (lam - 1.0 / lam))


def _check_real(sp: SpectralPoint, what: str) -> None:
    """Refuse a non-real lambda: U, V and their gauged forms lie in su(2), where matcore.expm_su2 steps them, only at real lambda."""
    if sp.lam.imag != 0.0:
        raise ValueError(f"{what} takes real lambda only, not lambda = {sp.lam:g}")


def lax_matrix(picture: str, sample: FieldSample, sp: SpectralPoint, params: ModelParams) -> np.ndarray:
    """U (space picture) or V (time picture) from a field sample; traceless."""
    beta = params.beta
    half = 0.5 * beta * np.asarray(sample.phi)
    sin_h, cos_h = np.sin(half), np.cos(half)
    if picture == "space":
        d = -0.25j * beta * np.asarray(sample.pi)
        ks, kc = sp.k0, sp.k1
    else:
        d = 0.25j * beta * np.asarray(sample.Pi)
        ks, kc = sp.k1, sp.k0
    return _stack22(d, -1j * ks * sin_h - kc * cos_h, -1j * ks * sin_h + kc * cos_h, -d)


def build_U(field: FieldEvaluator, x, t, sp: SpectralPoint) -> np.ndarray:
    """Space Lax matrix U(x, t, lambda); traceless."""
    return lax_matrix("space", field.sample(x, t), sp, field.params)


def build_V(field: FieldEvaluator, x, t, sp: SpectralPoint) -> np.ndarray:
    """Time Lax matrix V(x, t, lambda); traceless."""
    return lax_matrix("time", field.sample(x, t), sp, field.params)


def hat_nodes(sample: FieldSample, params: ModelParams) -> np.ndarray:
    """The lambda-free half of hat_entries: Im d, cos(beta phi) and sin(beta phi), stacked in one real array.

    d = -i(beta/4)(phi_x + phi_t) in both pictures (phi_x + pi and phi_t - Pi
    bit for bit) is imaginary, and e^{i beta phi} = cos + i sin is all the
    generator needs of phi.  The shape is (3,) + the sample's shape.
    """
    beta = params.beta
    out = np.empty((3,) + np.shape(sample.phi))
    im_d, cos, sin = out[0, ...], out[1, ...], out[2, ...]
    np.add(sample.phi_x, sample.phi_t, out=im_d)
    np.multiply(-0.25 * beta, im_d, out=im_d)
    bphi = np.multiply(beta, sample.phi, out=sin)
    np.cos(bphi, out=cos)
    np.sin(bphi, out=sin)
    return out


def hat_zeta(picture: str, sp: SpectralPoint, params: ModelParams) -> complex:
    """zeta = m/(4 lambda) (space) or -m/(4 lambda) (time): the gauged generator is -i lambda (m/4) s2 + i zeta s2 E."""
    zeta = params.m / (4.0 * sp.lam)
    return zeta if picture == "space" else -zeta


def hat_entries(picture: str, sample: FieldSample, sp: SpectralPoint, params: ModelParams) -> np.ndarray:
    """Entries (d, a01, a10) of the gauged generator [[d, a01], [a10, -d]] from a field sample.

    U_hat (space picture) or V_hat (time picture); tends to U_inf = -i k1 s2
    resp. V_inf = -i k0 s2 on decaying fields.  The entries come back stacked
    in one complex array of shape (3,) + the sample's shape, the rows of
    hat_nodes in its imaginary parts and the lambda terms added in place.
    """
    out = np.empty((3,) + np.shape(sample.phi), dtype=complex)
    out.imag = hat_nodes(sample, params)
    quarter, zeta = sp.lam * (params.m / 4.0), hat_zeta(picture, sp, params)
    d, a01, a10 = out[0, ...], out[1, ...], out[2, ...]
    d.real[...] = 0.0
    # -i lam (m/4) s2 + i zeta s2 E, with (s2 E)[0,1] = -i e^{-i beta phi};
    # phi is real, so e^{-i beta phi} is the conjugate of e^{i beta phi}
    a10.real[...] = a01.imag  # a10 = cos + i sin = e^{i beta phi}
    np.conjugate(a10, out=a01)
    np.multiply(zeta, a01, out=a01)
    np.add(-quarter, a01, out=a01)
    np.multiply(zeta, a10, out=a10)
    np.subtract(quarter, a10, out=a10)
    return out


_N = (np.eye(2) + 1j * SIGMA1) / math.sqrt(2.0)  # N = (1 + i s1)/sqrt 2, built once for e0 and ce0


def _phase_diag(z) -> np.ndarray:
    return _stack22(np.exp(z), 0.0, 0.0, np.exp(-np.asarray(z, dtype=complex)))


def e0(x, sp: SpectralPoint) -> np.ndarray:
    """Plane-wave normaliser N exp(-i k1 x s3) for the space problem."""
    return _N @ _phase_diag(-1j * sp.k1 * np.asarray(x, dtype=complex))


def ce0(t, sp: SpectralPoint) -> np.ndarray:
    """Plane-wave normaliser N exp(-i k0 t s3) for the time problem."""
    return _N @ _phase_diag(-1j * sp.k0 * np.asarray(t, dtype=complex))


def ce_charged(t, sp: SpectralPoint, q: int) -> np.ndarray:
    """Charge-dressed normaliser exp(i pi q s3 / 2) cE0(t)."""
    return _phase_diag(0.5j * math.pi * q) @ ce0(t, sp)


def zero_curvature_residual(field: FieldEvaluator, x: float, t: float, sp: SpectralPoint, h: float) -> float:
    """Frobenius norm of U_t - V_x + [U, V] with central-difference derivatives."""
    if not h > 0:
        raise ValueError("step h must be positive")
    u_t = (build_U(field, x, t + h, sp) - build_U(field, x, t - h, sp)) / (2.0 * h)
    v_x = (build_V(field, x + h, t, sp) - build_V(field, x - h, t, sp)) / (2.0 * h)
    u = build_U(field, x, t, sp)
    v = build_V(field, x, t, sp)
    return frob(u_t - v_x + comm(u, v))
