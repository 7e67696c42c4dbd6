import numpy as np
import pytest

from entanglab.linalg import (
    ProductDims,
    hermitian_eigenvalues,
    hermitize,
    hs_inner,
    hs_norm,
    kron,
    partial_trace,
    partial_transpose,
    top_eigenpair,
    traceless_part,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(A)


def test_product_dims():
    d = ProductDims((2, 3))
    assert d.n == 6 and d.m == 35 and d.k == 2
    assert ProductDims.of(2, 2, 2).n == 8
    with pytest.raises(ValueError):
        ProductDims((1, 2))
    with pytest.raises(ValueError):
        ProductDims(())


def test_eigenvalues_diagonal_and_pauli():
    assert np.allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [3, 2, 1])
    assert np.allclose(hermitian_eigenvalues(SX), [1, -1])


def test_eigenvalue_trace_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        H = random_hermitian(rng, 7)
        lam = hermitian_eigenvalues(H)
        assert np.all(np.diff(lam) <= 0)
        assert abs(lam.sum() - np.trace(H).real) <= 1e-10 * (1 + hs_norm(H))


def test_eigensolver_residual_contract():
    # backward-stability contract: residual <= 1e-10 (1 + ||H||_HS)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        H = random_hermitian(rng, n)
        w, v = np.linalg.eigh(H)
        res = np.linalg.norm(H @ v - v * w, axis=0).max()
        worst = max(worst, res / (1 + hs_norm(H)))
    assert worst <= 1e-10


def test_top_eigenpair():
    lam, v = top_eigenpair(np.diag([5.0, -1.0]))
    assert lam == pytest.approx(5.0)
    assert abs(abs(v[0]) - 1) < 1e-12
    lam, v = top_eigenpair(SZ)
    assert lam == pytest.approx(1.0)

    rng = np.random.default_rng(5)
    for _ in range(25):
        H = random_hermitian(rng, 9)
        lam, v = top_eigenpair(H)
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert np.linalg.norm(H @ v - lam * v) <= 1e-10 * (1 + hs_norm(H))
        assert lam == pytest.approx(hermitian_eigenvalues(H)[0], abs=1e-9)


def test_kron_basics():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    rng = np.random.default_rng(0)
    A = random_hermitian(rng, 2)
    B = random_hermitian(rng, 3)
    K = kron(A, B)
    assert K.shape == (6, 6)
    assert np.trace(K) == pytest.approx(np.trace(A) * np.trace(B))
    # first factor most significant: (A x B)[i*3+j, k*3+l] = A[i,k] B[j,l]
    assert K[1 * 3 + 2, 0 * 3 + 1] == pytest.approx(A[1, 0] * B[2, 1])


def test_partial_trace_product_case():
    rng = np.random.default_rng(1)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    b = b / np.trace(b).real  # unit trace second factor
    dims = ProductDims((2, 3))
    assert np.allclose(partial_trace(kron(a, b), dims, keep=[0]), a, atol=1e-12)
    assert np.allclose(
        partial_trace(kron(a, b), dims, keep=[1]), np.trace(a).real * b, atol=1e-12
    )


def test_partial_trace_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    P = np.outer(phi, phi.conj())
    red = partial_trace(P, ProductDims((2, 2)), keep=[1])
    assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(2)
    dims = ProductDims((2, 3, 2))
    H = random_hermitian(rng, dims.n)
    for keep in ([0], [1], [2], [0, 2], [1, 2]):
        red = partial_trace(H, dims, keep)
        assert abs(np.trace(red) - np.trace(H)) < 1e-12
        assert np.allclose(red, red.conj().T)
    with pytest.raises(ValueError):
        partial_trace(H, dims, keep=[3])


def test_partial_transpose_product_and_involution():
    rng = np.random.default_rng(4)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    dims = ProductDims((2, 3))
    assert np.allclose(partial_transpose(kron(a, b), dims, 1), kron(a, b.T))
    H = random_hermitian(rng, 6)
    assert np.array_equal(partial_transpose(partial_transpose(H, dims, 1), dims, 1), H)
    with pytest.raises(ValueError):
        partial_transpose(H, dims, 2)


def test_partial_transpose_bell_spectrum():
    # direct 4x4 eigensolve oracle: PT of the maximally entangled projector
    # is half the swap operator, spectrum {1/2 x3, -1/2}
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    P = np.outer(phi, phi.conj())
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    pt = partial_transpose(P, ProductDims((2, 2)), 1)
    assert np.allclose(pt, swap / 2, atol=1e-14)
    assert np.allclose(hermitian_eigenvalues(pt), [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_trace_and_transpose_commute_on_disjoint_factors():
    rng = np.random.default_rng(6)
    dims = ProductDims((2, 2, 3))
    for _ in range(25):
        H = random_hermitian(rng, dims.n)
        a = partial_trace(partial_transpose(H, dims, 1), dims, keep=[1, 2])
        b = partial_transpose(partial_trace(H, dims, keep=[1, 2]), ProductDims((2, 3)), 0)
        assert np.allclose(a, b, atol=1e-12)


def test_hs_inner_real_for_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(50):
        A = random_hermitian(rng, 5)
        B = random_hermitian(rng, 5)
        raw = np.trace(A @ B)
        assert abs(raw.imag) <= 1e-12
        assert hs_inner(A, B) == pytest.approx(raw.real)


def test_traceless_part():
    rng = np.random.default_rng(8)
    A = random_hermitian(rng, 6)
    T = traceless_part(A)
    assert abs(np.trace(T)) < 1e-12
    with pytest.raises(ValueError):
        hermitize(np.full((2, 2), np.nan))


def test_single_matrix_functions_reject_stacks():
    # the batched engine hermitizes stacks through a private helper; the
    # public single-matrix functions keep rejecting (k, n, n) input
    from entanglab.separability import gauge_ppt, gauge_states

    rng = np.random.default_rng(9)
    stack = np.stack([traceless_part(random_hermitian(rng, 4)) for _ in range(3)])
    for f in (hermitize, hermitian_eigenvalues, top_eigenpair, gauge_states):
        with pytest.raises(ValueError):
            f(stack)
    with pytest.raises(ValueError):
        gauge_ppt(stack, ProductDims((2, 2)))
