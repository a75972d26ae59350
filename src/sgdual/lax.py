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
(``hat_entries``); the gauge consistency U_hat = Om^-1 U Om - Om^-1 Om_x is a
test, not the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldEvaluator, FieldSample, ModelParams
from .matcore import SIGMA1, SIGMA2, _stack22, comm, frob

__all__ = [
    "SpectralPoint",
    "spectral",
    "lax_matrix",
    "build_U",
    "build_V",
    "hat_entries",
    "u_inf",
    "v_inf",
    "n_matrix",
    "e0",
    "ce0",
    "e_charged",
    "ce_charged",
    "omega",
    "zero_curvature_residual",
]


@dataclass(frozen=True)
class SpectralPoint:
    """Spectral parameter with cached k0, k1 (and the mass that set them)."""

    lam: complex
    m: float
    k0: complex
    k1: complex

    @property
    def is_real(self) -> bool:
        return abs(complex(self.lam).imag) == 0.0


def spectral(lam: complex, params: ModelParams) -> SpectralPoint:
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda = 0 is excluded; use the small-lambda charge expansions")
    m = params.m
    return SpectralPoint(lam, m, (m / 4.0) * (lam + 1.0 / lam), (m / 4.0) * (lam - 1.0 / lam))


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


def hat_entries(picture: str, sample: FieldSample, sp: SpectralPoint, params: ModelParams) -> np.ndarray:
    """Entries (d, a01, a10) of the gauged generator [[d, a01], [a10, -d]] from a field sample.

    U_hat (space picture) or V_hat (time picture); tends to u_inf, v_inf on
    decaying fields.  The entries come back stacked in one complex array of
    shape (3,) + the sample's shape.  Every intermediate lives in the real or
    imaginary part of an entry not yet written, and a real array enters
    complex arithmetic as an entry with a zero imaginary part, so a batch of
    samples allocates its output and nothing else, not even a casting buffer.
    """
    m, beta = params.m, params.beta
    lam = sp.lam
    out = np.empty((3,) + np.shape(sample.phi), dtype=complex)
    d, a01, a10 = out[0, ...], out[1, ...], out[2, ...]
    if picture == "space":
        np.add(sample.phi_x, sample.pi, out=d.real)
        zeta = m / (4.0 * lam)  # coefficient of the s2 E term: +i zeta s2 E
    else:
        np.subtract(sample.phi_t, sample.Pi, out=d.real)
        zeta = -m / (4.0 * lam)
    d.imag[...] = 0.0
    np.multiply(-0.25j * beta, d, out=d)
    # -i lam (m/4) s2 + i zeta s2 E, with (s2 E)[0,1] = -i e^{-i beta phi};
    # phi is real, so e^{-i beta phi} is the conjugate of e^{i beta phi}
    bphi = np.multiply(beta, sample.phi, out=a01.imag)
    np.sin(bphi, out=a10.real)
    a10.imag[...] = 0.0
    np.multiply(1j, a10, out=a10)
    np.cos(bphi, out=a01.real)
    a01.imag[...] = 0.0
    np.add(a01, a10, out=a10)  # e^{i beta phi}
    np.conjugate(a10, out=a01)
    np.multiply(zeta, a01, out=a01)
    np.add(-lam * (m / 4.0), a01, out=a01)
    np.multiply(zeta, a10, out=a10)
    np.subtract(lam * (m / 4.0), a10, out=a10)
    return out


def u_inf(sp: SpectralPoint) -> np.ndarray:
    return -1j * sp.k1 * SIGMA2


def v_inf(sp: SpectralPoint) -> np.ndarray:
    return -1j * sp.k0 * SIGMA2


_N = (np.eye(2) + 1j * SIGMA1) / math.sqrt(2.0)  # N = (1 + i s1)/sqrt 2, built once for e0 and ce0


def n_matrix() -> np.ndarray:
    return _N.copy()


def _phase_diag(z) -> np.ndarray:
    return _stack22(np.exp(z), 0.0, 0.0, np.exp(-np.asarray(z, dtype=complex)))


def e0(x, sp: SpectralPoint) -> np.ndarray:
    """Plane-wave normaliser N exp(-i k1 x s3) for the space problem."""
    return _N @ _phase_diag(-1j * sp.k1 * np.asarray(x, dtype=complex))


def ce0(t, sp: SpectralPoint) -> np.ndarray:
    """Plane-wave normaliser N exp(-i k0 t s3) for the time problem."""
    return _N @ _phase_diag(-1j * sp.k0 * np.asarray(t, dtype=complex))


def e_charged(x, sp: SpectralPoint, q: int) -> np.ndarray:
    """Charge-dressed normaliser exp(i pi q s3 / 2) E0(x)."""
    return _phase_diag(0.5j * math.pi * q) @ e0(x, sp)


def ce_charged(t, sp: SpectralPoint, q: int) -> np.ndarray:
    return _phase_diag(0.5j * math.pi * q) @ ce0(t, sp)


def omega(beta: float, phi) -> np.ndarray:
    """Gauge factor exp(i beta phi s3 / 4)."""
    return _phase_diag(0.25j * beta * np.asarray(phi, dtype=complex))


def zero_curvature_residual(field: FieldEvaluator, x: float, t: float, sp: SpectralPoint, h: float) -> float:
    """Frobenius norm of U_t - V_x + [U, V] with central-difference derivatives."""
    if not h > 0:
        raise ValueError("step h must be positive")
    u_t = (build_U(field, x, t + h, sp) - build_U(field, x, t - h, sp)) / (2.0 * h)
    v_x = (build_V(field, x + h, t, sp) - build_V(field, x - h, t, sp)) / (2.0 * h)
    u = build_U(field, x, t, sp)
    v = build_V(field, x, t, sp)
    return frob(u_t - v_x + comm(u, v))
