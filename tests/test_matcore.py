import tracemalloc

import numpy as np
import pytest

from sgdual.matcore import (
    _ROWS,
    ID2,
    ID4,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    _mul,
    comm,
    det2,
    expm_su2,
    frob,
    inv2,
    scan,
    scan_chunks,
    tensor,
)

SCAN_LENGTHS = [1, 2, 3, 7, 2**14 - 1, 2**14, 2**14 + 1]  # short batches, and both sides of a power of two

def random_mat2(n=1, seed=20260808):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))


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


def test_tensor_is_the_row_major_kronecker_product_bitwise():
    for trial in range(50):
        a, b = (random_mat2(seed=300 + 2 * trial + j)[0] for j in range(2))
        assert np.array_equal(tensor(a, b), np.kron(a, b))
        assert np.array_equal(tensor(a.real, b), np.kron(a.real.astype(complex), b))


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


def su2_matrices(u):
    """[[i u0, u1 + i u2], [-u1 + i u2, -i u0]] for each column of a real (3, n) array, as an (n, 2, 2) stack."""
    d, a01 = 1j * u[0], u[1] + 1j * u[2]
    return stacked(np.array([[d, a01], [-np.conj(a01), -d]]))


def random_su2(n, seed):
    """Real su(2) coordinates u, a (3, n) array."""
    return np.random.default_rng(seed).normal(size=(3, n))


def assert_matches_oracle(got, mats, rtol):
    for k, a in enumerate(mats):
        want = expm_oracle(a)
        assert frob(got[k] - want) < rtol * max(1.0, frob(want))


def test_expm_diagonal_phase():
    u = np.array([[0.5 * np.pi], [0.0], [0.0]])  # exponent (i pi/2) s3
    got = stacked(expm_su2(u.copy()))
    assert np.allclose(got[0], np.diag([1j, -1j]), atol=1e-14)
    assert_matches_oracle(got, su2_matrices(u), 1e-12)


def test_expm_zero():
    assert np.array_equal(stacked(expm_su2(np.zeros((3, 1))))[0], ID2)


def test_expm_batched_matches_loop():
    u = random_su2(7, seed=3)
    got = stacked(expm_su2(u.copy()))
    for k in range(7):
        assert np.allclose(got[k], stacked(expm_su2(u[:, k : k + 1].copy()))[0])
    assert_matches_oracle(got, su2_matrices(u), 1e-12)


def test_expm_su2_mixed_batch_matches_single_matrices():
    # the series branch is formed only when some theta is small; a batch that mixes both branches
    # must give each matrix the bits it gets alone
    u = random_su2(6, seed=4)
    u[:, 2] = [1e-8, 2e-8, -1e-8]
    u[:, 4] = 0.0
    got = expm_su2(u.copy())
    for k in range(6):
        assert np.array_equal(got[..., k : k + 1], expm_su2(u[:, k : k + 1].copy()))
    assert_matches_oracle(stacked(got), su2_matrices(u), 1e-12)


def test_expm_su2_matches_the_oracle_and_stays_unitary():
    rng = np.random.default_rng(7)
    u = rng.normal(size=(3, 40)) * np.geomspace(1e-9, 10.0, 40)  # both sides of the series threshold
    u[:, 0] = 0.0
    got = stacked(expm_su2(u.copy()))
    assert np.array_equal(got[0], ID2)
    assert_matches_oracle(got, su2_matrices(u), 1e-12)
    assert np.max(np.abs(det2(got) - 1.0)) < 1e-15
    assert np.max(np.abs(np.conj(np.swapaxes(got, -1, -2)) @ got - ID2)) < 1e-15


def test_expm_su2_small_angle_series():
    u = np.array([[3e-8, 0.0], [-4e-8, 0.0], [1e-8, 9e-7]])
    mats = su2_matrices(u)
    oracle = ID2 + mats + mats @ mats / 2.0 + mats @ mats @ mats / 6.0
    assert np.max(np.abs(stacked(expm_su2(u.copy())) - oracle)) < 1e-22


def test_expm_su2_rejects_nonfinite_exponent():
    for bad in (np.inf, np.nan):
        for row in range(3):
            u = np.zeros((3, 4))
            u[row, 2] = bad
            with pytest.raises(FloatingPointError):
                expm_su2(u)


def test_entrywise_product_matches_matmul():
    a, b = random_mat2(500, seed=1), random_mat2(500, seed=2)
    ref = np.matmul(a, b)
    got = stacked(_mul(batch(a), batch(b)))
    rel = np.max(np.abs(got - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
    assert np.max(rel) < 1e-15


def broadcast_product(a, b):
    """a @ b of two (2, 2, n) batches as two broadcast multiplications and one addition, numpy's buffers and all."""
    out = a[:, :1] * b[:1]
    out += a[:, 1:] * b[1:]
    return out


def random_batch(n, seed, contiguous):
    """A complex (2, 2, n) batch, contiguous or a stride-2 view (the layout of a tree level's operands)."""
    e = np.moveaxis(random_mat2(n if contiguous else 2 * n, seed), 0, -1).copy()
    return e if contiguous else e[..., ::2]


@pytest.mark.parametrize("contiguous", [False, True], ids=["strided", "contiguous"])
@pytest.mark.parametrize("n", [_ROWS - 1, _ROWS, _ROWS + 1, 1024, 2049])
def test_product_is_bitwise_the_broadcast_formula(n, contiguous):
    a, b, one = random_batch(n, n, contiguous), random_batch(n, n + 1, contiguous), random_batch(1, n + 2, contiguous)
    for x, y in ((a, b), (one, b), (a, one)):  # and a batch of one on either side
        got = _mul(x, y)
        assert got.shape == (2, 2, n) and got.tobytes() == broadcast_product(x, y).tobytes()


def test_long_product_allocates_no_broadcast_buffer():
    # the broadcast formula takes 264 KB at 1024 pairs, 131 KB of it numpy's operand buffers; the result is 65 KB
    a, b = random_batch(1024, 1, False), random_batch(1024, 2, False)
    _mul(a, b)
    tracemalloc.start()
    try:
        _mul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100e3


def unitary_steps(n, seed):
    # exponentials of random su(2) elements: the products stay well conditioned
    return stacked(expm_su2(random_su2(n, seed)))


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


def _chunks(e, size, contiguous):
    """Consecutive chunks of size entries of a (2, 2, n) batch, as strided views or as contiguous copies."""
    for first in range(0, e.shape[-1], size):
        part = e[..., first : first + size]
        yield np.ascontiguousarray(part) if contiguous else part


@pytest.mark.parametrize("contiguous", [False, True], ids=["strided", "contiguous"])
@pytest.mark.parametrize("size", [1, 8, 1024])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 1023, 1024, 1025, 2548, 5000])
def test_streamed_scan_is_bitwise_the_one_piece_scan(n, size, contiguous):
    e = expm_su2(random_su2(n, seed=n + size))
    streamed = list(scan_chunks(_chunks(e, size, contiguous)))
    assert [part.shape[-1] for part in streamed] == [min(size, n - first) for first in range(0, n, size)]
    assert np.concatenate(streamed, axis=-1).tobytes() == scan(e).tobytes()


def test_empty_batches_scan_to_nothing():
    # the pairwise recursion used to halve an empty batch until RecursionError
    empty = np.zeros((2, 2, 0), dtype=complex)
    for reverse in (False, True):
        assert scan(empty, reverse=reverse).shape == (2, 2, 0)
    assert list(scan_chunks([empty])) == [] and list(scan_chunks([])) == []


def test_streamed_scan_refuses_chunks_after_the_last():
    e = expm_su2(random_su2(20, seed=5))
    for sizes in ([8, 4, 8], [8, 16], [6, 6]):  # after a short chunk, a longer one, a length not a power of two
        bounds = np.cumsum([0] + sizes)
        with pytest.raises(ValueError, match="chunk"):
            list(scan_chunks(e[..., a:b] for a, b in zip(bounds[:-1], bounds[1:])))


def test_comm_antisymmetric_and_jacobi():
    for trial in range(20):
        a, b, c = (random_mat2(seed=300 + 3 * trial + j)[0] for j in range(3))
        assert frob(comm(a, b) + comm(b, a)) < 1e-13 * max(1.0, frob(a) * frob(b))
        jac = comm(a, comm(b, c)) + comm(b, comm(c, a)) + comm(c, comm(a, b))
        assert frob(jac) < 1e-12


def test_inv2():
    for a in random_mat2(10):
        assert frob(inv2(a) @ a - ID2) < 1e-12
