"""Reference computations shared by the tests, independent of sgdual's kernels."""

import numpy as np


def expm_antihermitian(x):
    """exp(X) for an (..., 2, 2) stack of anti-Hermitian X, by numpy's eigendecomposition, not by matcore.

    -i X is Hermitian: with -i X = q diag(w) q^H, exp(X) = q diag(e^{i w}) q^H.
    """
    w, q = np.linalg.eigh(-1j * np.asarray(x))
    return (q * np.exp(1j * w)[..., None, :]) @ np.conj(np.swapaxes(q, -1, -2))
