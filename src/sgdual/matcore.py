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
many times faster than ``np.matmul`` on ``(n, 2, 2)`` stacks.  There is one
exponential, ``expm_su2``.  It takes the real coordinates u of an su(2)
exponent ``[[i u0, u1 + i u2], [-u1 + i u2, -i u0]]`` (traceless and
anti-Hermitian: at real lambda, the Magnus exponent of every propagation
step and the exponent delta V of every ``rmatrix`` lattice site factor) and
returns cos|u| + sinc|u| X, unitary with determinant 1 to roundoff.  A
batch product is two broadcast multiplications and one addition below 256
matrices, and twelve calls on 1-D rows from 256 up, which spares numpy's
buffer for broadcast operands (``_mul``).  Either way each level of a
product tree or scan is O(1) numpy calls; ``np.moveaxis(e, -1, 0)`` views a
batch as an ``(n, 2, 2)`` stack.
Helpers called once per tree level are private, so call-level
instrumentation wraps only once-per-batch calls.

``scan`` and ``scan_chunks`` share one recursion, ``_scan``, which takes an
optional carry.  The recursion fixes the association of every output:
out[..., k] is a right-nested product of the aligned power-of-two blocks
that tile entries 0..k, each reduced by the pairwise tree, with the newest
block on the left.  So a batch fed in chunks of one power-of-two length
gives the one-piece scan bit for bit: inside a chunk the recursion runs
with the last output of the chunk before as its carry (the innermost
factor of each level's first entry), and each chunk's last entry is the
product of a binary-counter stack of block products (two of equal size
merge as soon as both exist, the newer on the left), the discipline
``transition._folded`` folds its chunk products with.

numpy chooses the inner loop of a complex product by its operands' memory
layout, and its loops need not round alike: the same values as a strided
view and as a contiguous array can give products that differ in the last
bit.  Code rewritten to save memory keeps each multiply's operands in the
layout they had (a contiguous array stays contiguous, a strided view stays
strided), and is compared by ``float.hex``: a 12-digit report can stay
byte-identical while the bits move.
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
    "expm_su2",
    "scan",
    "scan_chunks",
    "frob",
]

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

# Series fallback for the closed-form exponential; below this the
# sin(theta)/theta quotient is taken from its series.
_MU_SMALL = 1e-6
# Batch length from which _mul forms its entries on 1-D rows instead of
# broadcasting (see _mul).
_ROWS = 256


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
    """Batch product a @ b of two (2, 2, ...) batches; a length-1 batch broadcasts.

    Below _ROWS matrices: two broadcast multiplications and one addition,
    which numpy runs through iteration buffers for its broadcast operands
    (131 KB at 1024 matrices, for a 65 KB result).  From _ROWS up, each
    entry is formed on rows: a[i, 0] b[0, j] into out[i, j], a[i, 1] b[1, j]
    into one reused row, then an in-place add, with no buffer (83 KB at 1024
    matrices, against 264 KB).  Its twelve calls cost more on short batches
    (1.3-3 times the time at 256-512 matrices), break even near 1024 and win
    beyond.  A row is 1-D for a (2, 2, n) batch and keeps the leading axes of
    a (2, 2, L, n) one.  Both forms multiply the same entries in the same
    operand order, on rows in the layout of their batch, and add alike: the
    bits agree.
    """
    if max(a.size, b.size) < 4 * _ROWS:
        out = a[:, :1] * b[:1]  # out[i, j] = a[i, 0] b[0, j]
        out += a[:, 1:] * b[1:]  # + a[i, 1] b[1, j]
        return out
    shape = (a if a.size >= b.size else b).shape[2:]
    out = np.empty((2, 2) + shape, dtype=np.result_type(a, b))
    row = np.empty(shape, dtype=out.dtype)
    for i in range(2):
        for j in range(2):
            entry = np.multiply(a[i, 0], b[0, j], out=out[i, j])
            entry += np.multiply(a[i, 1], b[1, j], out=row)
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


def _scan(e, carry=None):
    """(out, tree): inclusive ordered products out[..., k] = e[..., k] @ ... @ e[..., 0] @ carry of a (2, 2, n) batch, and its pairwise tree product.

    Pairwise recursion (Blelloch, "Prefix sums and their applications"),
    unrolled: going down, each level is the products of adjacent pairs of
    the one before, until one entry is left; going up, the scan of a level
    gives the odd positions of the one before, and each even position is its
    entry times the odd one below it.  The first entry of each level is times
    the carry (a batch of one), the innermost factor; those products are
    formed in one batch.  tree is the last level's entry: for n a power of
    two, the product of all n entries by the pairwise tree, without the carry.
    """
    levels = [e]
    while levels[-1].shape[-1] > 1:
        top = levels[-1]
        paired = 2 * (top.shape[-1] // 2)
        levels.append(_mul(top[..., 1:paired:2], top[..., 0:paired:2]))
    tree = odd = levels.pop()
    if carry is not None:
        firsts = _mul(np.concatenate([level[..., :1] for level in levels] + [tree], axis=-1), carry)
        odd = firsts[..., -1:]
    while levels:
        level = levels.pop()
        n = level.shape[-1]
        out = np.empty_like(level)
        out[..., :1] = level[..., :1] if carry is None else firsts[..., len(levels) : len(levels) + 1]
        out[..., 1::2] = odd
        out[..., 2::2] = _mul(level[..., 2::2], odd[..., : (n - 1) // 2])
        odd = out
    return odd, tree


def scan(e, reverse: bool = False) -> np.ndarray:
    """Inclusive ordered products of a (2, 2, n) batch, log depth.

    out[..., k] = e[..., k] @ ... @ e[..., 0]; with ``reverse``, out[..., k] =
    e[..., n-1] @ ... @ e[..., k], the transpose of a forward scan of the
    reversed transposes.  An empty batch gives an empty batch.
    """
    if not reverse:
        return _scan(e)[0]
    return _scan(e.transpose(1, 0, 2)[..., ::-1])[0].transpose(1, 0, 2)[..., ::-1]


def scan_chunks(chunks):
    """Yield the forward scan of consecutive (2, 2, n) chunks, chunk by chunk, bit for bit the one-piece ``scan``.

    Every chunk but the last has one power-of-two length; the last may be
    shorter (ValueError otherwise), and empty chunks yield nothing.  Only one
    chunk, its scan, the carry and at most log2 of the chunk count block
    products are alive; see the module note for why the bits agree.
    """
    size, carry, blocks, ended = None, None, [], False  # blocks: (chunks, product) of the aligned blocks so far, oldest first
    for e in chunks:
        n = e.shape[-1]
        if n == 0:
            continue
        if ended or n > (size or n):
            raise ValueError(f"a chunk of {n} after the last chunk, or after chunks of {size}")
        size = size or n
        out, tree = _scan(e, carry)
        ended = n < size or size & (size - 1)  # a chunk that is not an aligned block can only be the last
        if not ended:
            count = 1
            while blocks and blocks[-1][0] == count:
                count, tree = 2 * count, _mul(tree, blocks.pop()[1])
            blocks.append((count, tree))
            total = blocks[0][1]
            for _, block in blocks[1:]:
                total = _mul(block, total)
            out[..., -1:] = total
        carry = out[..., -1:].copy()  # a copy, so that the carry does not keep the chunk's scan alive
        del e, tree
        yield out
        del out  # nothing of a chunk but the carry and its blocks is alive while the next one is made


def frob(a: np.ndarray) -> float:
    """Frobenius norm of a single matrix."""
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))
