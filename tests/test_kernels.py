import tracemalloc

import numpy as np
import pytest

from koco.errors import DimensionMismatch, ZeroNormPoint
from koco.kernels import (FAMILIES, KernelSpec, _self_terms, cross_vector, eval_kernel,
                          gaussian, gram, linear, polynomial, rescaled_gram)
from koco.linalg import sym_eigvals


def test_gaussian_self_is_one():
    k = gaussian(1.0)
    x = np.array([0.3, -1.2])
    assert cross_vector(k, x, x)[0] == 1.0


def test_gaussian_known_value():
    k = gaussian(1.0)
    # exp(-|x-y|^2 / (2 bw^2))
    assert cross_vector(k, np.array([[0.0]]), np.array([2.0]))[0] == pytest.approx(np.exp(-2.0))


def test_linear_orthogonal():
    k = linear()
    assert cross_vector(k, np.array([[1.0, 0.0]]), np.array([0.0, 1.0]))[0] == 0.0


def test_linear_zero_vector_rejected():
    for history, x in ((np.zeros((1, 2)), np.ones(2)), (np.ones((1, 2)), np.zeros(2))):
        with pytest.raises(ZeroNormPoint):
            cross_vector(linear(), history, x)
    # the query is checked against an empty history too, so a zero point
    # with no history fails in its own round; a gaussian takes it
    for spec in (linear(), polynomial(2, 0.0)):
        with pytest.raises(ZeroNormPoint):
            cross_vector(spec, np.zeros((0, 2)), np.zeros(2))
    assert cross_vector(gaussian(), np.zeros((0, 2)), np.zeros(2)).shape == (0,)
    # the gram takes each point's norm once and checks it there
    for spec in (linear(), polynomial(2, 0.0)):
        for pts in ([[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [0.0, 0.0]]):
            with pytest.raises(ZeroNormPoint):
                gram(spec, np.array(pts))


def test_gram_rejects_a_non_finite_point():
    # the gram checks its points once, for every family, as cross_vector
    # checks its query
    for spec in (gaussian(), linear(), polynomial(2, 0.5)):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                gram(spec, np.array([[1.0, 0.5], [bad, 1.0], [0.2, 0.3]]))


def test_polynomial_normalized_self():
    k = polynomial(3, 0.5)
    x = np.array([1.0, 2.0])
    assert cross_vector(k, x, x)[0] == 1.0
    v = cross_vector(k, x, np.array([-1.0, 0.5]))[0]
    assert abs(v) <= 1.0 + 1e-12


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("bad, message", [
    (dict(bandwidth=-1.0), "bandwidth must be positive"),
    (dict(degree=0), "degree must be a positive integer"),
    (dict(degree=2.5), "degree must be a positive integer"),
    (dict(degree=float("nan")), "degree must be a positive integer"),
    (dict(degree=float("inf")), "degree must be a positive integer"),
    (dict(offset=-0.5), "offset must be nonnegative"),
], ids=["bandwidth", "degree", "degree-2.5", "degree-nan", "degree-inf", "offset"])
def test_every_family_checks_every_parameter(family, bad, message):
    KernelSpec(family)
    with pytest.raises(ValueError, match=message):
        KernelSpec(family, **bad)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cross_vector(gaussian(), np.ones((1, 2)), np.ones(3))


def test_cross_vector_empty_and_self():
    k = gaussian()
    assert cross_vector(k, np.zeros((0, 2)), np.ones(2)).shape == (0,)
    x = np.array([0.5, 0.5])
    assert np.allclose(cross_vector(k, x.reshape(1, -1), x), [1.0])


@pytest.mark.parametrize("spec", [gaussian(0.8), linear(), polynomial(2, 1.0)])
def test_cross_vector_matches_elementwise(spec):
    rng = np.random.default_rng(0)
    H = rng.normal(size=(3, 4))
    x = rng.normal(size=4)
    vec = cross_vector(spec, H, x)
    ref = [eval_kernel(spec, h, x) for h in H]
    assert np.max(np.abs(vec - ref)) < 1e-12


@pytest.mark.parametrize("spec", [linear(), polynomial(2, 0.5), polynomial(3, 0.0)],
                         ids=["linear", "polynomial-2", "polynomial-3"])
def test_cosine_kernels_are_symmetric_bit_for_bit(spec):
    # a query's own term and a past point's come from one formula, so
    # k(a, b) and k(b, a) agree in every bit, at 1 to 16 coordinates
    rng = np.random.default_rng(3)
    for dim in range(1, 17):
        for _ in range(50):
            a, b = rng.normal(size=(2, dim)) * rng.choice([0.2, 1.0, 5.0], size=(2, 1))
            ab = cross_vector(spec, [a], b)[0]
            ba = cross_vector(spec, [b], a)[0]
            assert ab.view(np.int64) == ba.view(np.int64), (dim, ab, ba)


@pytest.mark.parametrize("spec", [linear(), polynomial(3, 0.5)], ids=["linear", "polynomial"])
def test_self_terms_take_each_row_alone(spec):
    # every row's term is the same in any stack of rows: a prefix's terms
    # are a prefix of the terms, and one row alone (a query, as x[None])
    # gets the term it has among all of them
    rng = np.random.default_rng(4)
    for dim in list(range(1, 20)) + [31, 64, 129]:
        H = rng.normal(size=(40, dim)) * rng.choice([0.2, 1.0, 5.0], size=(40, 1))
        own = _self_terms(spec, H)
        for m in range(41):
            assert np.array_equal(_self_terms(spec, H[:m]).view(np.int64),
                                  own[:m].view(np.int64)), (dim, m)
        for i in range(40):
            assert _self_terms(spec, H[i][None])[0].view(np.int64) == own[i].view(np.int64)


@pytest.mark.parametrize("spec", [gaussian(0.7), linear(), polynomial(3, 0.5)],
                         ids=["gaussian", "linear", "polynomial"])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_rescaled_gram_rows_are_the_cross_vectors(spec, weighted):
    # row j of the rebuilt gram holds what an append at order j enters:
    # cross_vector over the earlier points, times d_i, times d_j (then
    # times √(1/p_i), times √(1/p_j)); at 1 to 16 coordinates, across
    # row blocks, with zero and negative scales
    rng = np.random.default_rng(1)
    for dim in range(1, 17):
        n = 150 if spec.family == "gaussian" else 40
        P = rng.normal(size=(n, dim)) * rng.choice([0.2, 1.0, 5.0], size=(n, 1))
        d = rng.normal(size=n)
        d[::9] = 0.0
        probs = rng.uniform(0.05, 1.0, size=n) if weighted else np.ones(n)
        G = rescaled_gram(spec, P, d, probs)
        for j in range(n):
            row = cross_vector(spec, P[:j], P[j]) * d[:j] * d[j]
            row = row * np.sqrt(1.0 / probs[:j]) * np.sqrt(1.0 / probs[j])
            diag = d[j] * d[j] * (1.0 / probs[j])
            assert np.array_equal(G[j, :j].view(np.int64), row.view(np.int64)), (dim, j)
            assert np.array_equal(G[:j, j].view(np.int64), row.view(np.int64)), (dim, j)
            assert G[j, j] == diag
    assert rescaled_gram(spec, np.zeros((0, 2)), np.zeros(0), np.zeros(0)).shape == (0, 0)


@pytest.mark.parametrize("spec", [gaussian(0.7), linear(), polynomial(3, 0.5)],
                         ids=["gaussian", "linear", "polynomial"])
def test_rescaled_gram_into_a_buffer_keeps_every_bit(spec):
    # built into a NaN-filled buffer, as into the inverse's rows on a
    # refresh, the gram is the allocated one bit for bit: every entry is
    # overwritten; at one point and at 400 points of 3 coordinates, whose
    # gaussian rows take 54-row blocks
    rng = np.random.default_rng(2)
    for n in (1, 400):
        P = rng.normal(size=(n, 3))
        d = rng.normal(size=n)
        probs = rng.uniform(0.05, 1.0, size=n)
        buf = np.full((n, n), np.nan)
        out = rescaled_gram(spec, P, d, probs, out=buf)
        assert out is buf
        expected = rescaled_gram(spec, P, d, probs)
        assert np.array_equal(buf.view(np.int64), expected.view(np.int64)), n


def test_rescaled_gram_blocks_stay_within_the_points():
    # a row block never spans more rows than there are points, so a gram
    # of two points allocates a few hundred bytes, not a block's worth
    P = np.ones((2, 16))
    tracemalloc.start()
    try:
        rescaled_gram(gaussian(), P, np.ones(2), np.ones(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_gram_single_and_duplicates():
    k = gaussian()
    assert np.allclose(gram(k, np.ones((1, 2))), [[1.0]])
    G = gram(k, np.ones((5, 2)))
    assert np.allclose(G, np.ones((5, 5)))
    lam = sym_eigvals(G)
    assert lam[-1] == pytest.approx(5.0)
    assert np.max(np.abs(lam[:-1])) < 1e-12


@pytest.mark.parametrize("spec", [gaussian(1.0), linear(), polynomial(2, 0.3)])
def test_gram_unit_diagonal_and_psd(spec):
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(100, 3))
    G = gram(spec, pts)
    assert np.all(np.diag(G) == 1.0)
    assert np.linalg.eigvalsh(G)[0] >= -1e-10
    # the exact builder at unit weights: symmetric bit for bit, and row j
    # below the diagonal is the kernel row an append at order j enters
    assert np.array_equal(G, G.T)
    for j in range(len(pts)):
        assert np.array_equal(G[j, :j], cross_vector(spec, pts[:j], pts[j])), j


def test_gram_permutation_consistency():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(12, 2))
    perm = rng.permutation(12)
    G = gram(gaussian(0.5), pts)
    assert np.allclose(G[np.ix_(perm, perm)], gram(gaussian(0.5), pts[perm]))
