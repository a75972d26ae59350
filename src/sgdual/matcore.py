"""Complex 2x2 / 4x4 matrix algebra used throughout the toolkit.

The matrix helpers take plain ``numpy.ndarray`` values with a trailing
``(2, 2)`` or ``(4, 4)`` shape; leading axes are broadcast, so they serve
single matrices and stacks alike.  The Kronecker convention is row-major and fixed once: ``tensor(a, b)[2i+k,
2j+l] = a[i, j] * b[k, l]``.  All 4x4 identities elsewhere rely on it.

Long batches of 2x2 matrices (propagation steps, lattice transfer factors)
are held entrywise instead: a batch of n matrices is one complex array of
shape ``(2, 2, n)``, with ``e[i, j]`` the contiguous row of (i, j) entries.
On that layout the kernel multiplies two batches (``_mul``), exponentiates
in closed form and forms ordered products by a log-depth scan (``scan``),
many times faster than ``np.matmul`` on ``(n, 2, 2)`` stacks.  There are two
exponentials.  ``expm_su2`` takes the real coordinates u of an su(2)
exponent ``[[i u0, u1 + i u2], [-u1 + i u2, -i u0]]`` (traceless and
anti-Hermitian, the Magnus exponent of every propagation at real lambda)
and returns cos|u| + sinc|u| X, unitary with determinant 1 to roundoff.
``expm_sl2`` takes general traceless complex exponents ``[[x0, x1], [x2,
-x0]]`` and serves only the lattice transfer factors of ``rmatrix``.  A
batch product costs two broadcast multiplications and one addition however
long the batch, so each level of a product tree or scan is O(1) numpy
calls; ``np.moveaxis(e, -1, 0)`` views a batch as an ``(n, 2, 2)`` stack.
Helpers called once per tree level are private, so call-level
instrumentation wraps only once-per-batch calls.
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
    "expm_su2",
    "scan",
    "frob",
]

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

# Series fallback for the closed-form exponentials; below this the
# sinh(mu)/mu and sin(theta)/theta quotients are taken from their series.
_MU_SMALL = 1e-6


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of 2x2 matrices (row-major block convention); leading axes broadcast."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


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
    """Batch product a @ b of two (2, 2, n) batches; a length-1 batch broadcasts."""
    out = a[:, :1] * b[:1]  # out[i, j] = a[i, 0] b[0, j]
    out += a[:, 1:] * b[1:]  # + a[i, 1] b[1, j]
    return out


def expm_sl2(x0, x1, x2) -> np.ndarray:
    """exp([[x0, x1], [x2, -x0]]) for arrays x0, x1, x2 of one shape s, as a (2, 2) + s array.

    exp(X) = cosh(mu) 1 + sinh(mu)/mu X with mu^2 = x0^2 + x1 x2 = -det X.
    Where |mu| < 1e-6 the cosh/sinhc factors are evaluated by series to avoid
    cancellation; the series are only formed when some entry needs them.
    The exponent is traceless, so det exp(X) = 1 to roundoff.
    Raises FloatingPointError on non-finite exponents; overflow of a finite
    exponent surfaces as non-finite output, which callers gate on.
    """
    x0, x1, x2 = (np.asarray(x, dtype=complex) for x in (x0, x1, x2))
    if not (np.isfinite(x0).all() and np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise FloatingPointError("matrix exponential received non-finite entries")
    mu2 = x0 * x0 + x1 * x2
    mu = np.sqrt(mu2)
    small = np.abs(mu) < _MU_SMALL
    out = np.empty((2, 2) + x0.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        cosh_mu = np.cosh(mu)
        sinhc_mu = np.sinh(mu)
        if small.any():
            cosh_mu = np.where(small, 1.0 + mu2 / 2.0 + mu2 * mu2 / 24.0, cosh_mu)
            sinhc_mu = np.where(small, 1.0 + mu2 / 6.0 + mu2 * mu2 / 120.0, sinhc_mu / np.where(small, 1.0, mu))
        else:
            sinhc_mu /= mu
        diag = sinhc_mu * x0
        np.add(cosh_mu, diag, out=out[0, 0, ...])
        np.multiply(sinhc_mu, x1, out=out[0, 1, ...])
        np.multiply(sinhc_mu, x2, out=out[1, 0, ...])
        np.subtract(cosh_mu, diag, out=out[1, 1, ...])
    return out


def expm_su2(u) -> np.ndarray:
    """exp(X) for X = [[i u0, u1 + i u2], [-u1 + i u2, -i u0]], u a real (3, n) array, as a (2, 2, n) batch.

    X = i(u2 s1 + u1 s2 + u0 s3) squares to -theta^2 with theta = |u|, so
    exp(X) = cos(theta) 1 + sinc(theta) X with sinc(theta) = sin(theta)/theta,
    taken from 1 - theta^2/6 where theta < 1e-6.  u is consumed: it is scaled
    by sinc in place.  Raises FloatingPointError on non-finite exponents.
    """
    theta = np.sqrt(np.square(u).sum(axis=0))
    if not np.isfinite(theta).all():
        raise FloatingPointError("matrix exponential received non-finite entries")
    sinc = np.sin(theta)
    small = theta < _MU_SMALL
    if small.any():
        sinc = np.where(small, 1.0 - theta * theta / 6.0, sinc / np.where(small, 1.0, theta))
    else:
        sinc /= theta
    u *= sinc
    out = np.empty((2, 2) + theta.shape, dtype=complex)
    re, im = out.real, out.imag
    np.cos(theta, out=re[0, 0])
    re[1, 1] = re[0, 0]
    im[0, 0] = u[0]
    np.negative(u[0], out=im[1, 1])
    re[0, 1] = u[1]
    np.negative(u[1], out=re[1, 0])
    im[0, 1] = u[2]
    im[1, 0] = u[2]
    return out


def _scan(e):
    """Inclusive ordered products out[..., k] = e[..., k] @ ... @ e[..., 0] of a (2, 2, n) batch.

    Pairwise recursion (Blelloch, "Prefix sums and their applications"): the
    products of adjacent pairs are scanned recursively, which gives the odd
    positions; each even position is its entry times the odd one below it.
    """
    n = e.shape[-1]
    if n == 1:
        return e
    paired = 2 * (n // 2)
    odd = _scan(_mul(e[..., 1:paired:2], e[..., 0:paired:2]))
    out = np.empty_like(e)
    out[..., 0] = e[..., 0]
    out[..., 1::2] = odd
    out[..., 2::2] = _mul(e[..., 2::2], odd[..., : (n - 1) // 2])
    return out


def scan(e, reverse: bool = False) -> np.ndarray:
    """Inclusive ordered products of a (2, 2, n) batch, log depth.

    out[..., k] = e[..., k] @ ... @ e[..., 0]; with ``reverse``, out[..., k] =
    e[..., n-1] @ ... @ e[..., k], the transpose of a forward scan of the
    reversed transposes.
    """
    if not reverse:
        return _scan(e)
    return _scan(e.transpose(1, 0, 2)[..., ::-1]).transpose(1, 0, 2)[..., ::-1]


def frob(a: np.ndarray) -> float:
    """Frobenius norm of a single matrix."""
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))
