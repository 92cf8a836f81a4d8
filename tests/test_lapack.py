"""The dense kernel `magnonlab.lapack` against `scipy.linalg.eigh`/`eigvalsh`,
and the free energy's logsumexp against `scipy.special.logsumexp`: both
are mirrors of scipy 1.17, so every comparison here is bitwise."""

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from magnonlab import lapack, spectra
from magnonlab.basis import SpinLattice, SpinMagnitude, enumerate_sector_basis
from magnonlab.operators import (
    assemble_dirichlet_heisenberg,
    assemble_heisenberg,
    assemble_total_spin_squared,
)


def random_symmetric(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a + a.T


def assert_same_eigh(a):
    w, v = lapack.eigh(a)
    w_ref, v_ref = scipy.linalg.eigh(a)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    assert np.array_equal(lapack.eigvalsh(a), scipy.linalg.eigvalsh(a))


@pytest.mark.parametrize("n", [1, 2, 50, 300])
def test_random_matrices_solve_bitwise_as_scipy(n):
    a = random_symmetric(n, seed=n)
    assert_same_eigh(a)
    if n >= 2:
        w, v = lapack.eigh(a, subset_by_index=[0, 1])
        w_ref, v_ref = scipy.linalg.eigh(a, subset_by_index=[0, 1])
        assert w.shape == (2,) and v.shape == (n, 2)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 2, 50, 300])
def test_overwritten_input_solves_and_is_left_as_scipy_leaves_it(n, order):
    a = random_symmetric(n, seed=n + 1)
    mine, theirs = np.array(a, order=order), np.array(a, order=order)
    assert np.array_equal(
        lapack.eigvalsh(mine, overwrite_a=True), scipy.linalg.eigvalsh(theirs, overwrite_a=True)
    )
    assert np.array_equal(mine, theirs)
    mine, theirs = np.array(a, order=order), np.array(a, order=order)
    w, v = lapack.eigh(mine, overwrite_a=True)
    w_ref, v_ref = scipy.linalg.eigh(theirs, overwrite_a=True)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("assemble", [assemble_heisenberg, assemble_dirichlet_heisenberg])
def test_chain_12_middle_sector_solves_bitwise_as_scipy(assemble):
    basis = enumerate_sector_basis(SpinLattice.chain(12), SpinMagnitude(1), 6)
    assert_same_eigh(assemble(basis).to_dense())


def test_casimir_difference_solves_bitwise_as_scipy():
    # D = H - (2/l^3)(k0 - S^2) as the casimir suite forms it, chain 12
    # sector 6 at S=1/2
    ell = 12
    basis = enumerate_sector_basis(SpinLattice.chain(ell), SpinMagnitude(1), 6)
    k0 = 0.5 * ell * (0.5 * ell + 1.0)
    d = np.subtract(0.0, assemble_total_spin_squared(basis).to_dense())
    d.reshape(-1)[:: basis.dim + 1] += k0
    d *= 2.0 / ell**3
    np.subtract(assemble_heisenberg(basis).to_dense(), d, out=d)
    assert_same_eigh(d)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_raises_value_error(bad):
    a = random_symmetric(4, seed=0)
    a[1, 2] = bad
    with pytest.raises(ValueError):
        lapack.eigh(a)
    with pytest.raises(ValueError):
        lapack.eigvalsh(a)


@pytest.mark.parametrize(
    "a", [np.ones((2, 3)), np.ones(3), np.ones((2, 2), dtype=np.float32), np.eye(2, dtype=int)]
)
def test_only_square_float64_matrices_are_solved(a):
    with pytest.raises(ValueError, match="square float64"):
        lapack.eigvalsh(a)


@pytest.mark.parametrize("subset", [[1, 0], [0, 4], [-1, 1]])
def test_an_invalid_subset_raises_value_error(subset):
    with pytest.raises(ValueError, match="outside"):
        lapack.eigh(np.eye(4), subset_by_index=subset)


def test_the_empty_matrix_gives_empty_arrays_as_in_scipy():
    w, v = lapack.eigh(np.empty((0, 0)))
    assert w.shape == (0,) and v.shape == (0, 0)
    assert lapack.eigvalsh(np.empty((0, 0))).shape == (0,)


def test_the_kernel_calls_the_routines_scipy_linalg_calls():
    assert lapack._flapack.dsyevr is scipy.linalg.lapack.dsyevr
    assert lapack._flapack.dsyevr_lwork is scipy.linalg.lapack.dsyevr_lwork


def _logsumexp_inputs():
    rng = np.random.default_rng(2024)
    for size in range(1, 41):
        for _ in range(50):
            a = rng.standard_normal(size) * rng.choice([1.0, 30.0, 1e3])
            a = np.round(a, rng.integers(0, 3))  # rounding makes ties
            if rng.random() < 0.3:  # several copies of the maximum
                a[rng.integers(0, size, 3)] = a.max()
            if rng.random() < 0.2:
                a[rng.integers(0, size)] = -np.inf
            yield a
    yield np.array([-np.inf, -np.inf])


def test_logsumexp_matches_scipy_bitwise():
    mismatches = [
        a for a in _logsumexp_inputs() if not spectra._logsumexp(a) == scipy.special.logsumexp(a)
    ]
    assert mismatches == []
