import numpy as np
import pytest

from koco.errors import NoConvergence, NotPositiveDefinite, SchurNotPositive
from koco.linalg import (APPEND_BLOCK_BYTES, REFRESH_EVERY, RegularizedInverse,
                         gram_shift_product, gram_shift_product_direct, psd_solve,
                         sym_eigvals)


def random_psd(rng, n, rank=None):
    r = rank if rank is not None else n
    B = rng.normal(size=(n, r))
    return B @ B.T / max(r, 1)


# ---------------------------------------------------------------------------
# RegularizedInverse.append
# ---------------------------------------------------------------------------

def test_append_scalar_case():
    ri = RegularizedInverse(alpha=1.0)
    ri.append(np.zeros(0), 1.0)
    assert ri.inv.shape == (1, 1)
    assert ri.inv[0, 0] == pytest.approx(0.5)  # 1/(1+alpha)
    assert ri.order == 1


def test_append_matches_direct_inverse():
    rng = np.random.default_rng(0)
    M = random_psd(rng, 4)
    ri = RegularizedInverse(alpha=0.7)
    for j in range(3):
        ri.append(M[:j, j], M[j, j])
    ri.append(M[:3, 3], M[3, 3])
    direct = np.linalg.inv(M + 0.7 * np.eye(4))
    assert np.max(np.abs(ri.inv - direct)) < 1e-10


def test_append_zero_column_decouples():
    ri = RegularizedInverse(alpha=1.0)
    ri.append(np.zeros(0), 2.0)
    ri.append(np.zeros(1), 0.0)
    assert ri.inv[1, 1] == pytest.approx(1.0)
    assert ri.inv[0, 1] == 0.0


def test_append_rejects_singular_update():
    ri = RegularizedInverse(alpha=1e-13)
    ri.append(np.zeros(0), 1.0)
    # duplicate unit direction: schur complement collapses to ~alpha
    with pytest.raises(SchurNotPositive):
        ri.append(np.array([1.0]), 1.0 - 1e-15)


def test_append_composition_long_run():
    rng = np.random.default_rng(3)
    t = 200
    rows = rng.normal(size=(t, 8))
    M = rows @ rows.T / 8.0
    ri = RegularizedInverse(alpha=1.0)
    for j in range(t):
        ri.append(M[:j, j], M[j, j])
    direct = psd_solve(M, 1.0, np.eye(t))
    assert np.max(np.abs(ri.inv - direct)) < 1e-8


def bordered_reference(inv, cross, diag, alpha):
    """The bordered inverse by the unblocked formula, from scratch."""
    n = inv.shape[0]
    u = inv @ cross
    s = diag + alpha - float(cross @ u)
    out = np.empty((n + 1, n + 1))
    out[:n, :n] = inv + np.outer(u, u) / s
    out[:n, n] = -u / s
    out[n, :n] = -u / s
    out[n, n] = 1.0 / s
    return out


@pytest.mark.parametrize("supplied", [False, True], ids=["computed", "supplied"])
def test_append_is_bit_identical_to_unblocked_formula(supplied):
    # past the first refresh, at orders whose update takes several row blocks
    rng = np.random.default_rng(8)
    n = REFRESH_EVERY + 100
    assert n // (APPEND_BLOCK_BYTES // (8 * n)) >= 5
    rows = rng.normal(size=(n, 6))
    M = rows @ rows.T / 6.0
    ri = RegularizedInverse(alpha=0.9)
    for j in range(n):
        cross, diag = M[:j, j], M[j, j]
        if (j + 1) % REFRESH_EVERY == 0:
            expected = psd_solve(M[: j + 1, : j + 1], 0.9, np.eye(j + 1))
        else:
            expected = bordered_reference(ri.inv.copy(), cross, diag, 0.9)
        ri.append(cross, diag, inv_cross=ri.apply(cross) if supplied else None)
        assert np.array_equal(ri.inv, expected), f"order {j + 1}"
    assert np.array_equal(ri.mat, M)


def test_append_rejects_product_of_wrong_length():
    ri = RegularizedInverse(alpha=1.0)
    ri.append(np.zeros(0), 1.0)
    ri.append(np.array([0.5]), 1.0)
    for bad in (np.zeros(1), np.zeros(3), np.zeros((2, 1))):
        with pytest.raises(ValueError, match="inv_cross has shape"):
            ri.append(np.array([0.1, 0.2]), 1.0, inv_cross=bad)
    assert ri.order == 2


def test_periodic_refresh_runs():
    rng = np.random.default_rng(4)
    ri = RegularizedInverse(alpha=1.0)
    refreshes = []
    refresh = ri.refresh

    def counted():
        refreshes.append(ri.order)
        refresh()

    ri.refresh = counted
    n = REFRESH_EVERY + 8
    rows = rng.normal(size=(n, 5))
    M = rows @ rows.T / 5.0
    for j in range(n):
        ri.append(M[:j, j], M[j, j])
    assert refreshes == [REFRESH_EVERY]
    assert ri.audit() < 1e-10


# ---------------------------------------------------------------------------
# gram_shift_product
# ---------------------------------------------------------------------------

def test_gram_shift_empty_matrix():
    v = np.array([1.0, -2.0, 3.0])
    out = gram_shift_product(np.zeros((3, 0)), 2.0, v)
    assert np.allclose(out, v / 2.0)


def test_gram_shift_unit_column():
    phi = np.array([1.0, 0.0])
    out = gram_shift_product(phi.reshape(2, 1), 1.0, phi)
    assert np.allclose(out, phi / 2.0)


def test_gram_shift_matches_direct():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(5, 3))
    v = rng.normal(size=5)
    a = gram_shift_product(X, 0.7, v)
    b = gram_shift_product_direct(X, 0.7, v)
    c = np.linalg.solve(X @ X.T + 0.7 * np.eye(5), v)
    assert np.max(np.abs(a - b)) < 1e-10
    assert np.max(np.abs(a - c)) < 1e-10


def test_shift_inverse_identity_sweep():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n, m = rng.integers(1, 21, size=2)
        X = rng.normal(size=(n, m))
        for alpha in (0.1, 1.0, 10.0):
            lhs = X @ X.T @ psd_solve(X @ X.T, alpha, np.eye(n))
            rhs = X @ psd_solve(X.T @ X, alpha, X.T)
            assert np.max(np.abs(lhs - rhs)) < 1e-9
            inv_primal = psd_solve(X @ X.T, alpha, np.eye(n))
            inv_dual = (np.eye(n) - X @ psd_solve(X.T @ X, alpha, X.T)) / alpha
            assert np.max(np.abs(inv_primal - inv_dual)) < 1e-9


# ---------------------------------------------------------------------------
# sym_eigvals / psd_solve
# ---------------------------------------------------------------------------

def test_eigvals_identity_and_diag():
    assert np.allclose(sym_eigvals(np.eye(3)), [1, 1, 1])
    assert np.allclose(sym_eigvals(np.diag([9.0, 1.0, 4.0])), [1, 4, 9])


def char_poly_roots(M):
    # Faddeev-LeVerrier coefficients, then companion-matrix roots: a route
    # that never touches the symmetric eigensolver
    n = M.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    Mk = np.zeros((n, n))
    for k in range(1, n + 1):
        Mk = M @ (Mk + coeffs[k - 1] * np.eye(n))
        coeffs[k] = -np.trace(Mk) / k
    return np.sort(np.roots(coeffs).real)


def test_eigvals_against_characteristic_polynomial():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 6))
    A = (A + A.T) / 2
    mine = sym_eigvals(A)
    ref = char_poly_roots(A)
    assert np.max(np.abs(mine - ref)) < 1e-8


def test_eigvals_permutation_invariant():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(7, 7))
    A = A + A.T
    P = np.eye(7)[rng.permutation(7)]
    assert np.allclose(sym_eigvals(A), sym_eigvals(P.T @ A @ P), atol=1e-8)


def test_psd_solve_simple_and_residual():
    assert np.allclose(psd_solve(np.zeros((2, 2)), 2.0, np.array([4.0, 6.0])), [2, 3])
    assert np.allclose(psd_solve(np.eye(2), 1.0, np.array([2.0, 2.0])), [1, 1])
    rng = np.random.default_rng(7)
    M = random_psd(rng, 8)
    b = rng.normal(size=8)
    x = psd_solve(M, 0.3, b)
    resid = np.linalg.norm((M + 0.3 * np.eye(8)) @ x - b)
    assert resid < 1e-10 * np.linalg.norm(b)


def test_psd_solve_rejects_indefinite():
    M = np.diag([1.0, -5.0])
    with pytest.raises(NotPositiveDefinite):
        psd_solve(M, 0.0, np.ones(2))


def test_no_convergence_type_exists():
    # the wrapped eigensolver reports failures through the library error
    assert issubclass(NoConvergence, Exception)
