import numpy as np
import pytest

from sgdual.matcore import (
    ID2,
    ID4,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    _mul,
    comm,
    det2,
    expm_sl2,
    frob,
    inv2,
    scan,
    tensor,
)
from sgdual.transition import _CHUNK

SCAN_LENGTHS = [1, 2, 3, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1]

def random_mat2(n=1, traceless=False, seed=20260808):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    if traceless:
        tr = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
        a[:, 0, 0] -= tr
        a[:, 1, 1] -= tr
    return a


def test_pauli_algebra():
    s1, s2, s3 = SIGMA1, SIGMA2, SIGMA3
    for s in (s1, s2, s3):
        assert np.allclose(s @ s, ID2)
        assert abs(np.trace(s)) == 0.0
        assert np.allclose(s, s.conj().T)
    assert np.allclose(s1 @ s2, 1j * s3)
    assert np.allclose(s2 @ s3, 1j * s1)
    assert np.allclose(s3 @ s1, 1j * s2)


def test_tensor_diag_and_identity():
    assert np.allclose(tensor(SIGMA3, SIGMA3), np.diag([1.0, -1.0, -1.0, 1.0]))
    assert np.allclose(tensor(ID2, ID2), ID4)


def test_tensor_antidiagonal_combination():
    combo = tensor(SIGMA1, SIGMA1) + tensor(SIGMA2, SIGMA2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = 2.0
    assert np.allclose(combo, expected)


def test_tensor_mixed_product_law():
    for trial in range(20):
        a, b, c, d = (random_mat2(seed=100 + 4 * trial + j)[0] for j in range(4))
        lhs = tensor(a, b) @ tensor(c, d)
        rhs = tensor(a @ c, b @ d)
        assert frob(lhs - rhs) < 1e-13 * max(1.0, frob(lhs))


def test_tensor_bilinear():
    a, b, c = (random_mat2(seed=200 + j)[0] for j in range(3))
    assert np.allclose(tensor(a + c, b), tensor(a, b) + tensor(c, b))
    assert np.allclose(tensor(a, 2.5 * b), 2.5 * tensor(a, b))


def expm_oracle(a, squarings=10, terms=24):
    # scaling-and-squaring Taylor oracle, independent of the closed form
    b = a / 2.0**squarings
    acc = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, terms):
        term = term @ b / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def batch(a):
    """The (2, 2, n) batch of an (n, 2, 2) stack."""
    return np.moveaxis(a, 0, -1)


def stacked(e):
    """The (..., 2, 2) stack of a (2, 2, ...) batch."""
    return np.moveaxis(e, (0, 1), (-2, -1))


def expm_traceless(a):
    """The entrywise kernel on (..., 2, 2) traceless input, stacked back."""
    return stacked(expm_sl2(a[..., 0, 0], a[..., 0, 1], a[..., 1, 0]))


# exponentials of single (2, 2) matrices, 0-d entries through the kernel;
# the expm_sl2 tests below take batches


def test_expm_diagonal_phase():
    got = expm_traceless(0.5j * np.pi * SIGMA3)
    assert np.allclose(got, np.diag([1j, -1j]), atol=1e-14)


def test_expm_zero():
    assert np.allclose(expm_traceless(np.zeros((2, 2))), ID2)


def test_expm_det_one_for_traceless():
    dets = [det2(expm_traceless(a)) for a in random_mat2(50, traceless=True)]
    assert np.max(np.abs(np.asarray(dets) - 1.0)) < 1e-12


def test_expm_against_squared_taylor_oracle():
    for a in random_mat2(10, traceless=True):
        assert frob(expm_traceless(a) - expm_oracle(a)) < 1e-12 * max(1.0, frob(expm_oracle(a)))


def test_expm_small_mu_branch():
    # near-nilpotent exponent with a diagonal part exercises the series fallback
    a = np.array([[1e-8, 2e-8], [0.0, -1e-8]], dtype=complex)
    oracle = np.eye(2) + a + a @ a / 2.0
    assert frob(expm_traceless(a) - oracle) < 1e-15


def test_expm_rejects_nonfinite():
    bad = np.array([[np.inf, 0.0], [0.0, -np.inf]], dtype=complex)
    with pytest.raises(FloatingPointError):
        expm_traceless(bad)


def test_expm_batched_matches_loop():
    mats = random_mat2(7, traceless=True)
    batch = expm_traceless(mats)
    for k in range(7):
        assert np.allclose(batch[k], expm_traceless(mats[k]))


def test_expm_sl2_against_squared_taylor_oracle():
    mats = random_mat2(10, traceless=True)
    got = expm_traceless(mats)
    for k, a in enumerate(mats):
        assert frob(got[k] - expm_oracle(a)) < 1e-12 * max(1.0, frob(expm_oracle(a)))


def test_expm_sl2_small_mu_branch():
    a = np.array([[0.0, 1e-8], [1e-8, 0.0]], dtype=complex)
    oracle = np.eye(2) + a + a @ a / 2.0
    assert frob(expm_traceless(a) - oracle) < 1e-15


def test_expm_sl2_mixed_batch_matches_single_matrices():
    # the series branch is formed only when some |mu| is small; a batch that mixes both branches
    # must give each matrix the bits it gets alone
    mats = random_mat2(6, traceless=True)
    mats[2] = [[1e-8, 2e-8], [0.0, -1e-8]]
    mats[4] = 0.0
    got = expm_traceless(mats)
    for k in range(6):
        assert np.array_equal(got[k], expm_traceless(mats[k]))


def test_expm_sl2_det_one():
    dets = det2(expm_traceless(random_mat2(50, traceless=True)))
    assert np.max(np.abs(dets - 1.0)) < 1e-12


def test_expm_sl2_rejects_nonfinite_exponent():
    finite = np.zeros(3, dtype=complex)
    for bad in (np.inf, np.nan):
        poisoned = finite.copy()
        poisoned[1] = bad
        for args in ((poisoned, finite, finite), (finite, poisoned, finite), (finite, finite, poisoned)):
            with pytest.raises(FloatingPointError):
                expm_sl2(*args)


def test_entrywise_product_matches_matmul():
    a, b = random_mat2(500, seed=1), random_mat2(500, seed=2)
    ref = np.matmul(a, b)
    got = stacked(_mul(batch(a), batch(b)))
    rel = np.max(np.abs(got - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
    assert np.max(rel) < 1e-15


def unitary_steps(n, seed):
    # exponentials of random su(2) elements: the products stay well conditioned
    rng = np.random.default_rng(seed)
    x0 = 1j * rng.normal(size=n)
    x1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    return stacked(expm_sl2(x0, x1, -np.conj(x1)))


def assert_close_rel(got, ref, rtol):
    rel = np.max(np.abs(got - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
    assert np.max(rel) < rtol


@pytest.mark.parametrize("n", SCAN_LENGTHS)
def test_prefix_scan_matches_sequential_loop(n):
    steps = unitary_steps(n, seed=n)
    ref = np.empty_like(steps)
    acc = ID2
    for k in range(n):
        acc = steps[k] @ acc
        ref[k] = acc
    assert_close_rel(stacked(scan(batch(steps))), ref, 1e-13)


@pytest.mark.parametrize("n", SCAN_LENGTHS)
def test_suffix_scan_matches_sequential_loop(n):
    steps = unitary_steps(n, seed=n + 1)
    ref = np.empty_like(steps)
    acc = ID2
    for k in range(n - 1, -1, -1):
        acc = acc @ steps[k]
        ref[k] = acc
    assert_close_rel(stacked(scan(batch(steps), reverse=True)), ref, 1e-13)


def test_comm_antisymmetric_and_jacobi():
    for trial in range(20):
        a, b, c = (random_mat2(seed=300 + 3 * trial + j)[0] for j in range(3))
        assert frob(comm(a, b) + comm(b, a)) < 1e-13 * max(1.0, frob(a) * frob(b))
        jac = comm(a, comm(b, c)) + comm(b, comm(c, a)) + comm(c, comm(a, b))
        assert frob(jac) < 1e-12


def test_inv2():
    for a in random_mat2(10):
        assert frob(inv2(a) @ a - ID2) < 1e-12
