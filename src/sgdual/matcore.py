"""Complex 2x2 / 4x4 matrix algebra used throughout the toolkit.

The matrix helpers take plain ``numpy.ndarray`` values with a trailing
``(2, 2)`` or ``(4, 4)`` shape; leading axes are broadcast, so they serve
single matrices and stacks alike.  The Kronecker convention is row-major and fixed once: ``tensor(a, b)[2i+k,
2j+l] = a[i, j] * b[k, l]``.  All 4x4 identities elsewhere rely on it.

Long batches of 2x2 matrices (propagation steps, lattice transfer factors)
are held entrywise instead: a batch of n matrices is the tuple ``(e00, e01,
e10, e11)`` of four 1-D complex arrays of length n.  On that layout the
kernel multiplies two batches (``_mul``), exponentiates traceless exponents
``[[x0, x1], [x2, -x0]]`` in closed form (``expm_sl2``) and forms ordered
products by a log-depth scan (``scan``), many times faster than
``np.matmul`` on ``(n, 2, 2)`` stacks.  Helpers called once per tree level
are private, so call-level instrumentation wraps only once-per-batch calls.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ID2",
    "ID4",
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "tensor",
    "comm",
    "det2",
    "inv2",
    "expm_sl2",
    "scan",
    "frob",
]

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

# Series fallback for the closed-form exponential; below this the
# sinh(mu)/mu quotient loses digits to cancellation.
_MU_SMALL = 1e-6


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


def _stack22(a00, a01, a10, a11) -> np.ndarray:
    """Assemble (..., 2, 2) from broadcastable entries."""
    a00, a01, a10, a11 = np.broadcast_arrays(
        np.asarray(a00, dtype=complex),
        np.asarray(a01, dtype=complex),
        np.asarray(a10, dtype=complex),
        np.asarray(a11, dtype=complex),
    )
    out = np.empty(a00.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = a00
    out[..., 0, 1] = a01
    out[..., 1, 0] = a10
    out[..., 1, 1] = a11
    return out


def _mul(a, b):
    """Entrywise batch product a @ b of two (e00, e01, e10, e11) batches."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (
        a00 * b00 + a01 * b10,
        a00 * b01 + a01 * b11,
        a10 * b00 + a11 * b10,
        a10 * b01 + a11 * b11,
    )


def expm_sl2(x0, x1, x2):
    """Entries of exp([[x0, x1], [x2, -x0]]) for arrays x0, x1, x2.

    exp(X) = cosh(mu) 1 + sinh(mu)/mu X with mu^2 = x0^2 + x1 x2 = -det X.
    For |mu| < 1e-6 the cosh/sinhc factors are evaluated by series to avoid
    cancellation.  The exponent is traceless, so det exp(X) = 1 to roundoff.
    Raises FloatingPointError on non-finite exponents; overflow of a finite
    exponent surfaces as non-finite output, which callers gate on.
    """
    x0, x1, x2 = (np.asarray(x, dtype=complex) for x in (x0, x1, x2))
    if not (np.isfinite(x0).all() and np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise FloatingPointError("matrix exponential received non-finite entries")
    mu2 = x0 * x0 + x1 * x2
    mu = np.sqrt(mu2)
    small = np.abs(mu) < _MU_SMALL
    with np.errstate(over="ignore", invalid="ignore"):
        cosh_mu = np.where(small, 1.0 + mu2 / 2.0 + mu2 * mu2 / 24.0, np.cosh(mu))
        sinhc_mu = np.where(
            small, 1.0 + mu2 / 6.0 + mu2 * mu2 / 120.0, np.sinh(mu) / np.where(small, 1.0, mu)
        )
        diag = sinhc_mu * x0
        return cosh_mu + diag, sinhc_mu * x1, sinhc_mu * x2, cosh_mu - diag


def _pick(e, sl):
    return tuple(x[sl] for x in e)


def _scan(e):
    """Inclusive ordered products out[k] = e[k] @ ... @ e[0] of an entry batch.

    Pairwise recursion (Blelloch, "Prefix sums and their applications"): the
    products of adjacent pairs are scanned recursively, which gives the odd
    positions; each even position is its entry times the odd one below it.
    """
    n = e[0].shape[0]
    if n == 1:
        return e
    paired = 2 * (n // 2)
    odd = _scan(_mul(_pick(e, slice(1, paired, 2)), _pick(e, slice(0, paired, 2))))
    even = _mul(_pick(e, slice(2, None, 2)), _pick(odd, slice(0, (n - 1) // 2)))
    out = tuple(np.empty(n, dtype=complex) for _ in range(4))
    for o, first, odd_part, even_part in zip(out, e, odd, even):
        o[0] = first[0]
        o[1::2] = odd_part
        o[2::2] = even_part
    return out


def scan(e, reverse: bool = False):
    """Inclusive ordered products of an (e00, e01, e10, e11) batch, log depth.

    out[k] = e[k] @ ... @ e[0]; with ``reverse``, out[k] = e[n-1] @ ... @ e[k],
    the transpose of a forward scan of the reversed transposes.
    """
    if not reverse:
        return _scan(e)
    e00, e01, e10, e11 = _scan(_pick((e[0], e[2], e[1], e[3]), slice(None, None, -1)))
    return _pick((e00, e10, e01, e11), slice(None, None, -1))


def frob(a: np.ndarray) -> float:
    """Frobenius norm of a single matrix."""
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))
