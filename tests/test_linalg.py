from types import SimpleNamespace

import numpy as np
import pytest

from koco import kors, linalg
from koco.errors import NoConvergence, NotPositiveDefinite, SchurNotPositive
from koco.kernels import cross_vector, gaussian, linear, polynomial, rescaled_gram
from koco.kons import Kons, KonsConfig
from koco.kors import Dictionary, KorsConfig, KorsSampler
from koco.linalg import (APPEND_BLOCK_BYTES, REFRESH_EVERY, RegularizedFactor,
                         RegularizedInverse, psd_solve, sym_eigvals)
from koco.losses import LossEvent, curvature_profile
from koco.skons import SketchedKons, SkonsConfig


def random_psd(rng, n, rank=None):
    r = rank if rank is not None else n
    B = rng.normal(size=(n, r))
    return B @ B.T / max(r, 1)


# ---------------------------------------------------------------------------
# RegularizedInverse and RegularizedFactor growth
# ---------------------------------------------------------------------------

# the refusal tests run each case on both solvers in a loop, so their
# names stay those of the inverse-only tests they extend
SOLVERS = (RegularizedInverse, RegularizedFactor)


def grow(solver, cross, diag):
    """Append a column with the product its score forms, as a store does."""
    return solver.append(cross, diag, solver.schur_complement(cross, diag)[1])


def stored(solver) -> np.ndarray:
    """A copy of what the solver stores at its order: the inverse's rows,
    or the factor's packed rows."""
    if isinstance(solver, RegularizedInverse):
        return solver.inv.copy()
    n = solver.order
    return solver._ap[: n * (n + 1) // 2].copy()


def test_append_scalar_case():
    # 1/(1+alpha), or the factor √(1+alpha)
    for solver, one in zip(SOLVERS, (0.5, np.sqrt(2.0))):
        ri = solver(alpha=1.0)
        grow(ri, np.zeros(0), 1.0)
        assert ri.order == 1
        assert stored(ri).ravel() == pytest.approx([one])


def test_append_matches_direct_inverse():
    rng = np.random.default_rng(0)
    M = random_psd(rng, 4)
    ri = RegularizedInverse(alpha=0.7)
    for j in range(3):
        grow(ri, M[:j, j], M[j, j])
    grow(ri, M[:3, 3], M[3, 3])
    direct = np.linalg.inv(M + 0.7 * np.eye(4))
    assert np.max(np.abs(ri.inv - direct)) < 1e-10


def test_append_zero_column_decouples():
    ri = RegularizedInverse(alpha=1.0)
    grow(ri, np.zeros(0), 2.0)
    grow(ri, np.zeros(1), 0.0)
    assert ri.inv[1, 1] == pytest.approx(1.0)
    assert ri.inv[0, 1] == 0.0


def test_append_rejects_singular_update():
    for solver in SOLVERS:
        ri = solver(alpha=1e-13)
        grow(ri, np.zeros(0), 1.0)
        before = stored(ri)
        # duplicate unit direction: schur complement collapses to ~alpha
        with pytest.raises(SchurNotPositive):
            grow(ri, np.array([1.0]), 1.0 - 1e-15)
        assert ri.order == 1
        assert np.array_equal(stored(ri), before)


def test_append_composition_long_run():
    rng = np.random.default_rng(3)
    t = 200
    rows = rng.normal(size=(t, 8))
    M = rows @ rows.T / 8.0
    ri = RegularizedInverse(alpha=1.0)
    for j in range(t):
        grow(ri, M[:j, j], M[j, j])
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


@pytest.mark.parametrize("product", [RegularizedInverse.apply], ids=["supplied"])
def test_append_is_bit_identical_to_unblocked_formula(product):
    # past the first refresh, at orders whose update takes several row blocks;
    # the one inverse grows across order 128, where its rows move to a wider
    # stride, and 256, where its buffers double, and the update's block
    # scratch, kept between appends, is replaced at each such step
    rng = np.random.default_rng(8)
    n = REFRESH_EVERY + 100
    assert n // (APPEND_BLOCK_BYTES // (8 * n)) >= 5
    rows = rng.normal(size=(n, 6))
    M = rows @ rows.T / 6.0
    ri = RegularizedInverse(alpha=0.9)
    layouts = {}  # order -> (stride, capacity) after its append
    for j in range(n):
        cross, diag = M[:j, j], M[j, j]
        expected = bordered_reference(ri.inv.copy(), cross, diag, 0.9)
        due = ri.append(cross, diag, product(ri, cross))
        assert np.array_equal(ri.inv, expected), f"order {j + 1}"
        assert due == ((j + 1) % REFRESH_EVERY == 0), f"order {j + 1}"
        if due:
            ri.refresh(M[: j + 1, : j + 1].copy())  # refresh consumes its gram
            expected = psd_solve(M[: j + 1, : j + 1], 0.9, np.eye(j + 1))
            assert np.array_equal(ri.inv, expected), f"refresh at order {j + 1}"
        layouts[j + 1] = (ri._inv.shape[1], ri._cap)
    assert ri.refreshes == 1
    assert layouts[128] == (128, 128) and layouts[129] == (256, 256)
    assert layouts[256] == (256, 256) and layouts[257] == (384, 512)
    assert layouts[385] == (512, 512)  # a stride step within the capacity


@pytest.mark.parametrize("n", [40, 700], ids=["one-block", "restrides"])
def test_padded_layout_reads_the_unblocked_values(n):
    # 700 appends cross the strides 16, 32, ..., 128, 256, ..., 768 (moved
    # in place or with a buffer doubling, the last at 513) and the refresh
    # at 512; 40 stay in one block
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(n, 6))
    M = rows @ rows.T / 6.0
    v = rng.normal(size=n)
    ri = RegularizedInverse(alpha=0.9)
    strides, caps = set(), set()
    for j in range(n):
        cross, diag = M[:j, j], M[j, j]
        expected = bordered_reference(ri.inv.copy(), cross, diag, 0.9)
        due = grow(ri, cross, diag)
        assert np.array_equal(ri.inv, expected), f"order {j + 1}"
        if due:
            ri.refresh(M[: j + 1, : j + 1].copy())
            expected = psd_solve(M[: j + 1, : j + 1], 0.9, np.eye(j + 1))
            assert np.array_equal(ri.inv, expected), f"refresh at order {j + 1}"
        assert np.array_equal(ri.apply(v[: j + 1]),
                              np.ascontiguousarray(ri.inv) @ v[: j + 1]), f"order {j + 1}"
        padding = ri._inv[: j + 1, j + 1:]
        assert not padding.any(), f"order {j + 1}"
        strides.add(ri._inv.shape[1])
        caps.add(ri._cap)
    if n == 700:
        assert {48, 80, 128, 256, 384, 512, 640, 768} <= strides and {512, 1024} <= caps
        assert ri.refreshes == 1
    else:
        assert 8 * n * ri._inv.shape[1] <= APPEND_BLOCK_BYTES  # the update is one block


def test_refresh_from_its_own_rows_keeps_every_bit():
    # two inverses grown alike to order 512, where the stride is the order;
    # one is refreshed from a separate gram, the other from the same M
    # built into its own rows, as its store builds it
    rng = np.random.default_rng(10)
    kernel, n = gaussian(0.8), REFRESH_EVERY
    P = rng.normal(size=(n, 3))
    d = rng.uniform(0.2, 2.0, size=n)
    probs = rng.uniform(0.05, 1.0, size=n)
    M = rescaled_gram(kernel, P, d, probs)
    apart, own = RegularizedInverse(alpha=0.9), RegularizedInverse(alpha=0.9)
    for j in range(n):
        assert [grow(ri, M[:j, j], M[j, j]) for ri in (apart, own)] == [j + 1 == n] * 2
    assert own._inv.shape[1] == n
    apart.refresh(M.copy())
    own.refresh(rescaled_gram(kernel, P, d, probs, out=own.inv))
    assert np.array_equal(own.inv.view(np.int64), apart.inv.view(np.int64))
    assert own.refreshes == apart.refreshes == 1


def test_sampler_product_append_matches_the_computed_one():
    # KorsSampler scores a point's member column (weighted by the members'
    # √w) and appends it scaled by its own √w, with the score's product
    # √w·(inv·cross) in place of inv·(cross·√w): equal up to rounding
    rng = np.random.default_rng(10)
    n = 300
    rows = rng.normal(size=(n, 5))
    M = rows @ rows.T / 5.0
    weights = 1.0 / rng.uniform(0.05, 1.0, size=n)
    sw = np.sqrt(weights)
    supplied, computed = RegularizedInverse(alpha=1.0), RegularizedInverse(alpha=1.0)
    for j in range(n):
        cross, diag = M[:j, j] * sw[:j], M[j, j]
        s, u = supplied.schur_complement(cross, diag)
        assert s == diag + 1.0 - float(cross @ supplied.apply(cross))
        supplied.append(cross * sw[j], diag * weights[j], u * sw[j])
        grow(computed, cross * sw[j], diag * weights[j])
        assert np.max(np.abs(supplied.inv - computed.inv)) <= 1e-12, f"order {j + 1}"


@pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
def test_solvers_reject_a_bad_alpha(alpha):
    for solver in SOLVERS:
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            solver(alpha)


def test_schur_rule_at_its_boundary_and_its_callers(monkeypatch):
    diag, alpha = 1.0, 0.5
    at = linalg.SCHUR_RTOL * (diag + alpha)
    assert not linalg.schur_ok(np.nan, diag, alpha)
    assert not linalg.schur_ok(at, diag, alpha)
    assert linalg.schur_ok(np.nextafter(at, np.inf), diag, alpha)

    # both appends and the sampler's score ask the rule, with their own
    # complement, corner and alpha, and refuse the column when it says no
    asked = []

    def refuse(s, diag, alpha):
        asked.append((s, diag, alpha))
        return False

    cross, diag = np.array([0.5]), 0.75
    for solver in SOLVERS:
        ri = solver(alpha)
        grow(ri, np.zeros(0), 1.0)
        monkeypatch.setattr(linalg, "schur_ok", refuse)
        s, product = ri.schur_complement(cross, diag)
        with pytest.raises(SchurNotPositive):
            ri.append(cross, diag, product)
        assert asked.pop() == (s, diag, alpha) and ri.order == 1
        monkeypatch.undo()
    monkeypatch.setattr(kors, "schur_ok", refuse)
    sampler = KorsSampler(gaussian(1.0), KorsConfig(alpha=alpha, epsilon=0.5, beta=1e9,
                                                    delta=0.1))
    res = sampler.step(np.ones(2), d_t=2.0)
    assert asked.pop() == (4.0 + alpha, 4.0, alpha)  # s = k·d² + alpha, no member yet
    assert res.tau_tilde == 0.0 and res.accepted == 0 and sampler.size == 0


def test_append_rejects_product_of_wrong_length():
    for solver in SOLVERS:
        ri = solver(alpha=1.0)
        grow(ri, np.zeros(0), 1.0)
        grow(ri, np.array([0.5]), 1.0)
        for bad in (np.zeros(1), np.zeros(3), np.zeros((2, 1))):
            with pytest.raises(ValueError, match="product has shape"):
                ri.append(np.array([0.1, 0.2]), 1.0, bad)
        assert ri.order == 2


@pytest.mark.parametrize("method", ["schur_complement", "append"])
def test_cross_of_wrong_length_is_rejected(method):
    for solver in SOLVERS:
        ri = solver(alpha=1.0)
        grow(ri, np.zeros(0), 1.0)
        before = stored(ri)
        product = (np.zeros(1),) if method == "append" else ()
        for bad in (np.zeros(0), np.array([0.1, 0.2])):
            with pytest.raises(ValueError, match="cross has length"):
                getattr(ri, method)(bad, 1.0, *product)
            assert ri.order == 1
            assert np.array_equal(stored(ri), before)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cross_fails_the_schur_test(bad):
    for solver in SOLVERS:
        ri = solver(alpha=1.0)
        grow(ri, np.zeros(0), 1.0)
        grow(ri, np.array([0.5]), 1.0)
        before = stored(ri)
        cross = np.array([0.2, bad])
        with np.errstate(invalid="ignore"):
            s, _ = ri.schur_complement(cross, 1.0)
            assert not s > 0.0, solver.__name__
            with pytest.raises(SchurNotPositive):
                grow(ri, cross, 1.0)
        assert ri.order == 2
        assert np.array_equal(stored(ri), before)


def test_factor_scores_match_the_inverse(monkeypatch):
    # two stores admit the same weighted columns, the inverse's past two
    # refreshes and the factor's never rebuilt; the factor's scores |L⁻¹c|²
    # are the inverse's cᵀ(M + alpha I)⁻¹c up to rounding, and each solver
    # still solves with the rebuilt M
    monkeypatch.setattr(linalg, "REFRESH_EVERY", 128)
    rng = np.random.default_rng(13)
    kernel = gaussian(1.0)
    points = rng.normal(size=(300, 3))
    d = rng.uniform(0.2, 2.0, size=300)
    probs = rng.uniform(0.05, 1.0, size=300)
    rounds = SimpleNamespace(kernel=kernel, points=points, d_scale=d)
    stores = [Dictionary(RegularizedInverse(1.0), rounds),
              Dictionary(RegularizedFactor(1.0), rounds)]
    for j, (x, d_t, prob) in enumerate(zip(points, d, probs)):
        cross = cross_vector(kernel, points[:j], x) * d[:j] * d_t * stores[0].sweights
        scores = [store.solver.schur_complement(cross, d_t * d_t) for store in stores]
        (s_inv, _), (s_fac, _) = scores
        assert abs(s_fac - s_inv) <= 1e-12 * abs(s_inv), f"order {j}"
        for store, (_, product) in zip(stores, scores):
            store.admit(j, prob, cross, d_t * d_t, product)
    inverse, factor = (store.solver for store in stores)
    assert inverse.refreshes == 2 and not hasattr(factor, "refresh")
    for store in stores:
        assert store.solver.order == 300
        assert store.solver.audit(store.gram()) <= 1e-10


def squared_cfg(alpha=1.0):
    prof = curvature_profile("squared", 1.0)
    return KonsConfig(clip_c=1.0, alpha=alpha, sigma=prof.sigma,
                      lipschitz=prof.lipschitz)


def squared_stream(seed, T, zero_rounds=0):
    """Squared-loss events whose first `zero_rounds` targets are 0: the
    learners predict 0 there, so those rounds have zero derivative, and
    the later rounds' entries against them are ±0.0."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(T, 3))
    ys = rng.uniform(-0.9, 0.9, size=T)
    ys[:zero_rounds] = 0.0
    return [LossEvent(x, "squared", float(y)) for x, y in zip(X, ys)]


def test_periodic_refresh_runs(monkeypatch):
    # the owner rebuilds its preconditioner once every REFRESH_EVERY
    # columns, from the gram of its rounds
    refreshes = []
    refresh = RegularizedInverse.refresh

    def counted(self, gram):
        refreshes.append(self.order)
        refresh(self, gram)

    monkeypatch.setattr(RegularizedInverse, "refresh", counted)
    learner = Kons(gaussian(1.0), squared_cfg())
    for ev in squared_stream(4, REFRESH_EVERY + 8):
        learner.step(ev.point, ev)
    assert refreshes == [REFRESH_EVERY]
    assert learner.refreshes == 1
    assert learner.dict.solver.audit(learner.dict.gram()) < 1e-10


def capture_borders(monkeypatch) -> dict:
    """Record, per solver (inverse or factor), the border and corner of
    every append that succeeds."""
    borders = {}
    for cls in SOLVERS:
        def recording(self, cross, diag, product, append=cls.append):
            due = append(self, cross, diag, product)
            borders.setdefault(self, []).append((np.array(cross, dtype=np.float64),
                                                 float(diag)))
            return due

        monkeypatch.setattr(cls, "append", recording)
    return borders


def assembled(borders) -> np.ndarray:
    n = len(borders)
    M = np.zeros((n, n))
    for j, (cross, diag) in enumerate(borders):
        M[:j, j] = cross
        M[j, :j] = cross
        M[j, j] = diag
    return M


@pytest.mark.parametrize("kernel", [gaussian(0.8), linear(), polynomial(3, 0.5)],
                         ids=["gaussian", "linear", "polynomial"])
def test_rebuilt_gram_equals_the_appended_borders(monkeypatch, kernel):
    # every store's rebuilt M is the matrix its appends grew, bit for bit
    # (the sign of a zero too), so a refresh inverts exactly that matrix.
    # Zero-derivative rounds get no column, so the -0.0 entries come from
    # rounds 7-9: far-apart points, between which the gaussian underflows,
    # (32, 0, 0) ⟂ (0, 32, 0) for the linear kernel, and an inner product
    # of -0.5 = -offset for the polynomial; each 0.0 entry times rescale
    # factors of opposite sign (targets +0.9 and -0.9 against a 0
    # prediction) is -0.0 in admitted columns
    borders = capture_borders(monkeypatch)
    events = squared_stream(11, 300, zero_rounds=6)
    far = [((32.0, 0.0, 0.0), 0.9), ((0.0, 32.0, 0.0), -0.9), ((-1 / 64, 0.0, 32.0), -0.9)]
    for j, (x, y) in enumerate(far):
        events[6 + j] = LossEvent(np.array(x), "squared", y)
    learners = [Kons(kernel, squared_cfg())] + [
        SketchedKons(kernel, SkonsConfig(
            kons=squared_cfg(),
            kors=KorsConfig(alpha=1.0, epsilon=0.5, beta=30.0, delta=0.1, rng_seed=3),
            gamma=gamma))
        for gamma in (0.1, 1.0)]
    stores = []
    for learner in learners:
        for ev in events:
            learner.step(ev.point, ev)
        stores.append(learner.dict)
        if isinstance(learner, SketchedKons):
            stores.append(learner.kors.dict)
    sampler = KorsSampler(kernel, KorsConfig(alpha=0.5, epsilon=0.5, beta=30.0,
                                             delta=0.1, rng_seed=5))
    d = np.random.default_rng(12).normal(size=len(events))
    d[:6] = 0.0
    for ev, d_t in zip(events, d):
        sampler.step(ev.point, float(d_t))
    stores.append(sampler.dict)
    signed_zeros = 0
    for store in stores:
        M = assembled(borders[store.solver])
        assert M.shape[0] == store.solver.order == len(store) > 20
        rebuilt = store.gram()
        assert np.array_equal(rebuilt.view(np.int64), M.view(np.int64))
        signed_zeros += int(np.sum((M == 0.0) & np.signbit(M)))
    assert signed_zeros > 0


# ---------------------------------------------------------------------------
# the shift-inverse identity of criterion 8
# ---------------------------------------------------------------------------

def test_gram_shift_matches_direct():
    # (X Xᵀ + alpha I)⁻¹v through the dual 3×3 system, as criterion 8
    # forms it, against the primal 5×5 one and a plain solve
    rng = np.random.default_rng(1)
    X = rng.normal(size=(5, 3))
    v = rng.normal(size=5)
    a = (v - X @ psd_solve(X.T @ X, 0.7, X.T @ v)) / 0.7
    b = psd_solve(X @ X.T, 0.7, v)
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
