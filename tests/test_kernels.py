import numpy as np
import pytest

from koco.errors import DimensionMismatch, ZeroNormPoint
from koco.kernels import (FAMILIES, KernelSpec, cross_vector, eval_kernel, gaussian, gram,
                          linear, polynomial)
from koco.linalg import sym_eigvals


def test_gaussian_self_is_one():
    k = gaussian(1.0)
    x = np.array([0.3, -1.2])
    assert eval_kernel(k, x, x) == 1.0


def test_gaussian_known_value():
    k = gaussian(1.0)
    # exp(-|x-y|^2 / (2 bw^2))
    assert eval_kernel(k, np.array([0.0]), np.array([2.0])) == pytest.approx(np.exp(-2.0))


def test_linear_orthogonal():
    k = linear()
    assert eval_kernel(k, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_linear_zero_vector_rejected():
    with pytest.raises(ZeroNormPoint):
        eval_kernel(linear(), np.zeros(2), np.ones(2))


def test_polynomial_normalized_self():
    k = polynomial(3, 0.5)
    x = np.array([1.0, 2.0])
    assert eval_kernel(k, x, x) == 1.0
    y = np.array([-1.0, 0.5])
    v = eval_kernel(k, x, y)
    assert abs(v) <= 1.0 + 1e-12


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("bad, message", [
    (dict(bandwidth=-1.0), "bandwidth must be positive"),
    (dict(degree=0), "degree must be a positive integer"),
    (dict(offset=-0.5), "offset must be nonnegative"),
], ids=["bandwidth", "degree", "offset"])
def test_every_family_checks_every_parameter(family, bad, message):
    KernelSpec(family)
    with pytest.raises(ValueError, match=message):
        KernelSpec(family, **bad)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_kernel(gaussian(), np.ones(2), np.ones(3))


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


def test_gram_permutation_consistency():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(12, 2))
    perm = rng.permutation(12)
    G = gram(gaussian(0.5), pts)
    assert np.allclose(G[np.ix_(perm, perm)], gram(gaussian(0.5), pts[perm]))
