import numpy as np
import pytest

from koco import losses, oracle
from koco.errors import NoProgress
from koco.kernels import gaussian, gram
from koco.kons import KonsConfig
from koco.linalg import psd_solve
from koco.losses import LossEvent, curvature_profile
from koco.oracle import (best_comparator, dual_preconditioner, effective_dimension,
                         exact_rls, logdet_chain, online_effective_dimension,
                         prefix_rls, primal_ons, psd_sqrt, regularized_comparator,
                         spectral_audit)
from koco.rng import named_rng
from koco.streams import SyntheticSpec, generate_stream


# ---------------------------------------------------------------------------
# leverage scores and dimensions
# ---------------------------------------------------------------------------

def test_exact_rls_singleton():
    assert exact_rls(np.array([[1.0]]), 1.0)[0] == pytest.approx(0.5)


def test_exact_rls_all_ones():
    t = 7
    taus = exact_rls(np.ones((t, t)), 1.0)
    assert np.allclose(taus, 1.0 / (t + 1))


def test_exact_rls_identity():
    taus = exact_rls(np.eye(5), 1.0)
    assert np.allclose(taus, 0.5)
    assert np.all(taus >= 0) and np.all(taus < 1)


def test_effective_dimension_cases():
    assert effective_dimension(np.eye(6), 1.0) == pytest.approx(3.0)
    t = 9
    assert effective_dimension(np.ones((t, t)), 1.0) == pytest.approx(t / (t + 1))
    assert effective_dimension(np.zeros((4, 4)), 1.0) == pytest.approx(0.0)


def test_rls_sums_to_effective_dimension():
    rng = np.random.default_rng(0)
    K = gram(gaussian(1.0), rng.normal(size=(30, 3)))
    assert exact_rls(K, 0.7).sum() == pytest.approx(effective_dimension(K, 0.7), abs=1e-9)


def test_online_dimension_closed_forms():
    assert online_effective_dimension(np.ones((1, 1)), 1.0) == pytest.approx(0.5)
    t = 12
    dupes = online_effective_dimension(np.ones((t, t)), 1.0)
    assert dupes == pytest.approx(sum(1.0 / (s + 1) for s in range(1, t + 1)))
    assert online_effective_dimension(np.eye(t), 1.0) == pytest.approx(t / 2)


def test_prefix_rls_matches_per_prefix_solves():
    # the one-factorization route must agree with literally re-solving each
    # leading submatrix
    rng = np.random.default_rng(1)
    K = gram(gaussian(0.8), rng.normal(size=(40, 2)))
    fast = prefix_rls(K, 0.5)
    slow = np.array([
        float(K[t - 1, :t] @ psd_solve(K[:t, :t], 0.5, np.eye(t)[:, t - 1]))
        for t in range(1, 41)])
    assert np.max(np.abs(fast - slow)) < 1e-10


def test_logdet_chain_cases():
    assert logdet_chain(np.zeros((3, 3)), 1.0) == (0.0, 0.0, 0.0)
    t = 8
    d_onl, logdet, upper = logdet_chain(np.eye(t), 1.0)
    assert d_onl == pytest.approx(t / 2)
    assert logdet == pytest.approx(t * np.log(2))
    assert upper == pytest.approx((t / 2) * (1 + np.log(2)))
    rng = np.random.default_rng(2)
    K = gram(gaussian(1.0), rng.normal(size=(50, 3)))
    d_onl, logdet, upper = logdet_chain(K, 0.3)
    assert d_onl <= logdet + 1e-9 <= upper + 2e-9


# ---------------------------------------------------------------------------
# explicit-feature recursion
# ---------------------------------------------------------------------------

def squared_cfg(C=1.0, alpha=1.0):
    prof = curvature_profile("squared", C)
    return KonsConfig(clip_c=C, alpha=alpha, sigma=prof.sigma,
                      lipschitz=prof.lipschitz)


def test_primal_single_step_zero_init():
    X = np.array([[1.0]])
    preds = primal_ons(X, [LossEvent(X[0], "squared", 0.0)], squared_cfg())
    assert preds[0] == 0.0


def test_primal_two_step_hand_trace():
    # no clipping active: pure preconditioned recursion in d=2
    cfg = squared_cfg(C=10.0)
    sigma, alpha = cfg.sigma, cfg.alpha
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    events = [LossEvent(X[0], "squared", 1.0), LossEvent(X[1], "squared", -1.0)]
    preds = primal_ons(X, events, cfg)
    assert preds[0] == 0.0
    # after round 1: g = (-2, 0), A = alpha*I + sigma*g g^T, u = -A^{-1}g
    g = np.array([-2.0, 0.0])
    Ainv = np.linalg.inv(alpha * np.eye(2) + sigma * np.outer(g, g))
    u = -Ainv @ g
    assert preds[1] == pytest.approx(float(X[1] @ u), abs=1e-12)


def test_primal_predictions_clipped():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    events = [LossEvent(x, "squared", float(y))
              for x, y in zip(X, rng.uniform(-1, 1, 100))]
    preds = primal_ons(X, events, squared_cfg(C=0.3))
    assert np.max(np.abs(preds)) <= 0.3


def test_primal_huge_alpha_shrinks_to_zero():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    events = [LossEvent(x, "squared", 0.5) for x in X]
    preds = primal_ons(X, events, squared_cfg(alpha=1e8))
    assert np.max(np.abs(preds)) < 1e-4


# ---------------------------------------------------------------------------
# comparator
# ---------------------------------------------------------------------------

def test_comparator_interpolates_single_event():
    K = np.array([[1.0]])
    comp = best_comparator(K, [LossEvent(np.zeros(1), "squared", 0.5)], 1.0)
    assert comp.preds[0] == pytest.approx(0.5, abs=1e-6)
    assert comp.total_loss == pytest.approx(0.0, abs=1e-9)


def test_comparator_alternating_targets_goes_to_zero():
    # alternating ±C targets at one point: the best fixed response is the
    # zero function with loss T*C^2
    T, C = 200, 1.0
    K = np.ones((T, T))
    events = [LossEvent(np.ones(1), "squared", C if t % 2 == 0 else -C)
              for t in range(T)]
    comp = best_comparator(K, events, C)
    assert abs(comp.preds).max() < 1e-3
    assert comp.total_loss == pytest.approx(T * C * C, rel=1e-6)
    assert abs(comp.coeffs.sum()) < 1e-3


def test_comparator_beats_ridge_witness():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(60, 2))
    K = gram(gaussian(1.0), pts)
    events = [LossEvent(p, "squared", 0.4) for p in pts]
    comp = best_comparator(K, events, 1.0)
    a_r = psd_solve(K, 1e-3, np.full(60, 0.4))
    witness = float(np.sum((0.4 - K @ a_r) ** 2))
    assert comp.total_loss <= witness + 1e-9


def test_comparator_feasible_and_no_worse_than_zero():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(40, 3))
    K = gram(gaussian(1.0), pts)
    events = [LossEvent(p, "logistic", float(l))
              for p, l in zip(pts, rng.choice([-1.0, 1.0], 40))]
    comp = best_comparator(K, events, 0.8, iters=800)
    zero_loss = 40 * np.log(2)
    assert np.max(np.abs(comp.preds)) <= 0.8 + 1e-6
    assert comp.total_loss <= zero_loss + 1e-9


def test_comparator_rejects_mixed_families():
    K = np.eye(2)
    events = [LossEvent(np.zeros(1), "squared", 0.5),
              LossEvent(np.ones(1), "logistic", 1.0)]
    with pytest.raises(ValueError, match="logistic.*squared"):
        best_comparator(K, events, 1.0, restarts=2, iters=10)


@pytest.mark.parametrize("restarts", [0, 4])
def test_comparator_refuses_restarts_outside_the_three_starts(restarts):
    K = np.eye(2)
    events = [LossEvent(np.zeros(1), "squared", 0.5), LossEvent(np.ones(1), "squared", 0.1)]
    with pytest.raises(ValueError, match=r"restarts must lie in \[1, 3\]"):
        best_comparator(K, events, 1.0, restarts=restarts, iters=10)


def two_product_comparator(K, events, C, restarts=10, iters=5000, seed=0):
    """Reference for `best_comparator`: the same iterates with restarts as
    columns and the coefficients held explicitly, at two kernel products
    an iteration. Returns (preds, total_loss, norm_sq)."""
    T = K.shape[0]
    family = events[0].family
    targ = np.array([ev.target for ev in events])
    tcol = targ[:, None]

    def objective(P):
        return np.sum(losses.value(family, tcol, P), axis=0)

    def derivatives(P):
        return losses.derivative(family, tcol, P)

    rng = named_rng(seed, "comparator-restarts")
    A = np.zeros((T, restarts))
    for j, ridge in enumerate((1e-3, 1.0)):
        if j + 1 < restarts:
            A[:, j + 1] = psd_solve(K, ridge, targ)
    if restarts > 3:
        A[:, 3:] = rng.normal(scale=0.1 / max(T, 1), size=(T, restarts - 3))

    def rescale(A, P):
        over = np.max(np.abs(P), axis=0)
        scale = np.where(over > C, C / np.maximum(over, 1e-300), 1.0)
        A *= scale
        P *= scale

    P = K @ A
    rescale(A, P)
    obj = objective(P)
    best_obj, best_a, best_p = np.inf, np.zeros(T), np.zeros(T)
    g0 = K @ derivatives(P)
    step0 = 0.5 * C / np.maximum(np.max(np.abs(K @ g0), axis=0), 1e-12)
    for k in range(1, iters + 1):
        i = int(np.argmin(obj))
        if obj[i] < best_obj:
            best_obj, best_a, best_p = float(obj[i]), A[:, i].copy(), P[:, i].copy()
        G = K @ derivatives(P)
        step = step0 / np.sqrt(k)
        A -= step * G
        P -= step * (K @ G)
        if k % 500 == 0:
            P = K @ A
        rescale(A, P)
        obj = objective(P)
    P = K @ A
    obj = objective(P)
    i = int(np.argmin(obj))
    if obj[i] < best_obj:
        best_obj, best_a, best_p = float(obj[i]), A[:, i].copy(), P[:, i].copy()
    return best_p, best_obj, float(best_a @ (K @ best_a))


def random_target_stream(family, T, seed=2):
    # uniform points under a wide gaussian kernel, uniform regression
    # targets or random labels: a stream where the loop improves on the
    # rescaled ridge warm starts
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(T, 2))
    if family == "squared":
        targets = rng.uniform(-1, 1, T)
    else:
        targets = rng.choice([-1.0, 1.0], T)
    return gram(gaussian(3.0), pts), [LossEvent(p, family, float(y))
                                      for p, y in zip(pts, targets)]


@pytest.mark.parametrize("family,T,C", [("squared", 100, 0.1), ("logistic", 120, 0.3),
                                        ("squared-hinge", 120, 0.3)])
def test_implicit_coefficients_match_two_product_loop(family, T, C):
    K, events = random_target_stream(family, T)
    comp = best_comparator(K, events, C)
    # the returned iterate comes from the loop, not the warm start
    assert comp.total_loss < best_comparator(K, events, C, iters=0).total_loss - 1e-3
    assert np.max(np.abs(comp.preds - K @ comp.coeffs)) < 1e-9
    assert comp.norm_sq == pytest.approx(float(comp.coeffs @ K @ comp.coeffs), rel=1e-9)
    preds, total_loss, norm_sq = two_product_comparator(K, events, C)
    assert np.max(np.abs(comp.preds - preds)) < 1e-9
    assert comp.total_loss == pytest.approx(total_loss, rel=1e-9)
    assert comp.norm_sq == pytest.approx(norm_sq, rel=1e-9)


def readme_stream(family):
    """Gram and events of the README config's stream at T=125, seed 0."""
    spec = SyntheticSpec(generator="rkhs-target", input_dim=3, horizon=125,
                         noise_sd=0.1, clip_c=1.0)
    events = generate_stream(spec, 0, kernel=gaussian(1.0), family=family)
    return gram(gaussian(1.0), np.vstack([ev.point for ev in events])), events


@pytest.mark.parametrize("family", ["squared", "logistic", "squared-hinge"])
def test_three_starts_match_ten_restarts_on_the_readme_stream(family):
    # no random start of the ten-restart reference supplies its comparator
    K, events = readme_stream(family)
    comp = best_comparator(K, events, 1.0)
    preds, total_loss, norm_sq = two_product_comparator(K, events, 1.0)
    assert np.max(np.abs(comp.preds - preds)) < 1e-9
    assert comp.total_loss == pytest.approx(total_loss, rel=1e-9)
    assert comp.norm_sq == pytest.approx(norm_sq, rel=1e-9)


def regularized_objective(comp, alpha):
    return comp.total_loss + alpha * comp.norm_sq


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_regularized_squared_fit_is_the_ridge_solve(alpha):
    K, events = readme_stream("squared")
    y = np.array([ev.target for ev in events])
    comp = regularized_comparator(K, events, 1.0, alpha)
    assert np.max(np.abs(comp.preds)) < 1.0  # feasible: no rescale
    ridge = psd_solve(K, alpha, y)
    assert np.max(np.abs(comp.coeffs - ridge)) <= 1e-10 * np.max(np.abs(ridge))
    grad = K @ (losses.derivative("squared", y, K @ comp.coeffs) + 2 * alpha * comp.coeffs)
    assert np.max(np.abs(grad)) < 1e-8


@pytest.mark.parametrize("family", ["squared", "logistic", "squared-hinge"])
def test_regularized_comparator_beats_the_loss_only_fit(family):
    # Theorem 1's last step is alpha |u|^2 + L(u): lower at the regularized
    # fit than at the loss-only one
    K, events = readme_stream(family)
    comp = regularized_comparator(K, events, 1.0, 1.0)
    assert np.max(np.abs(comp.preds)) <= 1.0
    assert np.max(np.abs(comp.preds - K @ comp.coeffs)) < 1e-9
    assert comp.norm_sq == pytest.approx(float(comp.coeffs @ K @ comp.coeffs), rel=1e-12)
    loss_only = best_comparator(K, events, 1.0)
    assert regularized_objective(comp, 1.0) <= regularized_objective(loss_only, 1.0)


def test_regularized_fit_outside_the_slab_is_rescaled_onto_it():
    K, events = random_target_stream("logistic", 120)
    C, alpha = 0.3, 1e-3
    free = regularized_comparator(K, events, np.inf, alpha)
    comp = regularized_comparator(K, events, C, alpha)
    over = np.max(np.abs(free.preds))
    assert over > C
    assert np.max(np.abs(comp.preds)) == pytest.approx(C, rel=1e-12)
    assert np.max(np.abs(comp.coeffs - free.coeffs * (C / over))) < 1e-12 * np.max(
        np.abs(free.coeffs))
    zero = 120 * np.log(2.0)
    assert regularized_objective(comp, alpha) <= zero


def test_regularized_comparator_raises_at_its_iteration_cap(monkeypatch):
    # the logistic fit needs more than one Newton step
    monkeypatch.setattr(oracle, "NEWTON_MAX_ITERS", 1)
    K, events = readme_stream("logistic")
    with pytest.raises(NoProgress, match="did not converge in 1 steps"):
        regularized_comparator(K, events, 1.0, 1.0)


def test_regularized_comparator_rejects_mixed_families():
    events = [LossEvent(np.zeros(1), "squared", 0.5),
              LossEvent(np.ones(1), "logistic", 1.0)]
    with pytest.raises(ValueError, match="logistic.*squared"):
        regularized_comparator(np.eye(2), events, 1.0, 1.0)


def test_no_progress_error_exists():
    assert issubclass(NoProgress, Exception)


# ---------------------------------------------------------------------------
# spectral audits
# ---------------------------------------------------------------------------

def test_spectral_audit_identity_and_scaling():
    rng = np.random.default_rng(7)
    B = rng.normal(size=(10, 10))
    A = B @ B.T + np.eye(10)
    assert spectral_audit(A, A) == (pytest.approx(1.0), pytest.approx(1.0))
    lo, hi = spectral_audit(A, 0.5 * A)
    assert lo == pytest.approx(0.5) and hi == pytest.approx(0.5)


def test_dual_preconditioner_full_weights_is_exact():
    rng = np.random.default_rng(8)
    K = gram(gaussian(1.0), rng.normal(size=(15, 2)))
    dual = dual_preconditioner(K, np.ones(15), 0.7)
    assert np.max(np.abs(dual - (K + 0.7 * np.eye(15)))) < 1e-10


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(9)
    K = gram(gaussian(1.0), rng.normal(size=(12, 2)))
    R = psd_sqrt(K)
    assert np.max(np.abs(R @ R - K)) < 1e-10
