"""Complex 2x2 / 4x4 matrix algebra used throughout the toolkit.

Everything here is a plain ``numpy.ndarray`` with a trailing ``(2, 2)`` or
``(4, 4)`` shape; leading axes are broadcast, so the same helpers serve both
single matrices and long batches of propagation steps.  The Kronecker
convention is row-major and fixed once: ``tensor(a, b)[2i+k, 2j+l] =
a[i, j] * b[k, l]``.  All 4x4 identities elsewhere rely on it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ID2",
    "ID4",
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "pauli",
    "tensor",
    "comm",
    "det2",
    "inv2",
    "expm2",
    "frob",
]

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

_PAULI = (SIGMA1, SIGMA2, SIGMA3)

# Series fallback for the closed-form exponential; below this the
# sinh(mu)/mu quotient loses digits to cancellation.
_MU_SMALL = 1e-6


def pauli(k: int) -> np.ndarray:
    """Return the k-th Pauli matrix, k in {1, 2, 3}."""
    if k not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {k!r}")
    return _PAULI[k - 1].copy()


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices (row-major block convention)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator a@b - b@a."""
    return a @ b - b @ a


def det2(a: np.ndarray) -> np.ndarray:
    """Determinant of (..., 2, 2) arrays without an LAPACK round trip."""
    a = np.asarray(a)
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def inv2(a: np.ndarray) -> np.ndarray:
    """Closed-form inverse of (..., 2, 2) arrays."""
    a = np.asarray(a, dtype=complex)
    d = det2(a)
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 1, 1] = a[..., 0, 0]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    return out / d[..., None, None]


def expm2(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of (..., 2, 2) complex arrays.

    Splits off the trace and uses exp(b) = cosh(mu) I + sinh(mu)/mu b for the
    traceless part b, with mu^2 = -det(b).  For |mu| < 1e-6 the cosh/sinhc
    factors are evaluated by series to avoid cancellation.  Exact (to
    roundoff) for every input, which keeps det(expm2(a)) = exp(tr a) without
    drift over long step products.
    """
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise FloatingPointError("expm2 received non-finite entries")
    half_tr = 0.5 * (a[..., 0, 0] + a[..., 1, 1])
    b = a.copy()
    b[..., 0, 0] -= half_tr
    b[..., 1, 1] -= half_tr
    mu2 = -det2(b)
    mu = np.sqrt(mu2 + 0j)
    small = np.abs(mu) < _MU_SMALL
    mu_safe = np.where(small, 1.0, mu)
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow surfaces as non-finite output, which callers gate on
        cosh_mu = np.where(small, 1.0 + mu2 / 2.0 + mu2 * mu2 / 24.0, np.cosh(mu))
        sinhc_mu = np.where(
            small, 1.0 + mu2 / 6.0 + mu2 * mu2 / 120.0, np.sinh(mu) / mu_safe
        )
    eye = np.zeros_like(a)
    eye[..., 0, 0] = 1.0
    eye[..., 1, 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        out = cosh_mu[..., None, None] * eye + sinhc_mu[..., None, None] * b
        return np.exp(half_tr)[..., None, None] * out


def frob(a: np.ndarray) -> float:
    """Frobenius norm of a single matrix."""
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))
