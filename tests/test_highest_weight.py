"""The free chain's highest-weight blocks, which `full_spectrum` solves
for every free-chain sector above `WHOLE_SECTOR_MAX`: the coupling paths
as the rows of a magnon-sector basis, each block's Hamiltonian from the
closed-form tridiagonal bond, checked against the bond matrices that 6j
recoupling gives (`oracles.recoupled_bond_matrix`), and the 6j symbols of
that reference.  The sector spectra the blocks give are checked against
the whole solve in `test_spectra.test_parity_blocks_match_the_whole_sector_solve`
and the tensor-product oracle in `test_parity_blocks_match_the_tensor_product_oracle`.
"""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from magnonlab import spectra
from magnonlab.basis import SpinLattice, SpinMagnitude, sector_dimension
from magnonlab.operators import dense_block
from magnonlab.spectra import _coupling_basis, _highest_weight_block, full_spectrum
from oracles import recoupled_bond_matrix, six_j_by_factorials


def allowed(a, two_s, c):
    """Doubled J_k between 2J_{k-1} = a and 2J_{k+1} = c."""
    return [b for b in range(abs(a - two_s), a + two_s + 1, 2) if abs(b - two_s) <= c <= b + two_s]


@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
def test_six_j_symbols_are_orthogonal(two_s):
    # sum_K (2K+1)(2b+1) {a S b; S c K}{a S b'; S c K} = delta_bb'
    for a in range(0, 13):
        for c in range(max(a - 2 * two_s, (a + 2 * two_s) % 2), a + 2 * two_s + 1, 2):
            bs = allowed(a, two_s, c)
            for b, b2 in itertools.product(bs, repeat=2):
                total = sum(
                    (k + 1) * (b + 1) * six_j_by_factorials(a, two_s, b, two_s, c, k)
                    * six_j_by_factorials(a, two_s, b2, two_s, c, k)
                    for k in range(0, 2 * two_s + 1, 2)
                )
                assert abs(total - (b == b2)) <= 1e-14, (a, b, b2, c)


def test_six_j_is_zero_off_the_triangle_rule():
    assert six_j_by_factorials(1, 1, 4, 1, 1, 0) == 0.0  # (1/2, 1/2, 2) is no triad
    assert six_j_by_factorials(1, 1, 1, 1, 1, 1) == 0.0  # 1/2 + 1/2 + 1/2 is not an integer
    assert six_j_by_factorials(2, 2, 2, 2, 2, 6) == 0.0  # (1, 1, 3) is no triad


def test_six_j_matches_sympy():
    wigner = pytest.importorskip("sympy.physics.wigner")
    from sympy import Rational

    rng = np.random.default_rng(6)
    checked = 0
    while checked < 60:
        args = rng.integers(0, 13, 6).tolist()
        ours = six_j_by_factorials(*args)
        if ours == 0.0:
            continue
        reference = float(wigner.wigner_6j(*(Rational(x, 2) for x in args)))
        assert abs(ours - reference) <= 4.5e-16 * abs(reference), args
        checked += 1
    assert six_j_by_factorials(1, 1, 2, 1, 1, 0) == 0.5
    # Racah's sum exceeds 2^1024 here, so its sign is not taken in floats
    for args, reference in [((58, 58, 116, 58, 174, 116), 0.008547008547008548),
                            ((57, 57, 114, 57, 171, 114), -0.008695652173913044)]:
        assert abs(six_j_by_factorials(*args) - reference) <= 4.5e-16 * abs(reference), args


def coupling_paths(ell, two_s, two_j):
    """Every path (0, 2J_1, ..., 2J_ell = two_j), J_k in |J_{k-1} - S| ..
    J_{k-1} + S, by recursion, which grows them in ascending order."""
    def grow(path):
        if len(path) == ell + 1:
            if path[-1] == two_j:
                yield list(path)
            return
        for b in range(abs(path[-1] - two_s), path[-1] + two_s + 1, 2):
            yield from grow(path + (b,))

    return list(grow((0,)))


# The largest coupling sector the count enumerates: chain 8 at 2S = 4 has
# a middle sector of 38165 states, and chains 16, 11, 9 and 8 at 2S = 1..4
# are the longest whose middle sectors fit.
COUNTED = 40_000


@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
@pytest.mark.parametrize("ell", range(2, 17))
def test_path_counts_are_the_multiplicities(ell, two_s):
    # on a longer chain only the blocks of sectors up to COUNTED states
    # are counted, and the sum over every spin is left out
    top = two_s * ell
    states = 0
    for n in range(top // 2 + 1):
        if sector_dimension(ell, n, two_s) > COUNTED:
            break
        basis, _ = _coupling_basis(ell, two_s, n)
        assert basis.dim == sector_dimension(ell, n, two_s) - sector_dimension(ell, n - 1, two_s), n
        states += (top - 2 * n + 1) * basis.dim
    else:
        assert states == (two_s + 1) ** ell


@pytest.mark.parametrize("ell,two_s", [(ell, 1) for ell in range(2, 13)] + [(ell, 2) for ell in range(2, 8)]
                         + [(ell, 3) for ell in range(2, 6)])
def test_paths_ascend_and_rank_to_their_rows(ell, two_s):
    top = two_s * ell
    for n in range(top // 2 + 1):
        basis, paths = _coupling_basis(ell, two_s, n)
        assert paths.tolist() == coupling_paths(ell, two_s, top - 2 * n), n
        assert np.array_equal(2 * basis.states, np.diff(paths, axis=1) + two_s)
        assert np.array_equal(basis.state_index(basis.states), np.arange(basis.dim))


@pytest.mark.parametrize("ell,two_s", [(ell, 1) for ell in range(2, 13)] + [(ell, 2) for ell in range(2, 8)]
                         + [(ell, 3) for ell in range(2, 6)] + [(ell, 4) for ell in range(2, 5)])
def test_every_block_is_bitwise_symmetric_and_sized_by_its_multiplicity(ell, two_s):
    # a recoupling phase that depends on J_k or K would break the symmetry
    for n in range(two_s * ell // 2 + 1):
        h = dense_block(*_highest_weight_block(ell, two_s, n))
        assert len(h) == sector_dimension(ell, n, two_s) - sector_dimension(ell, n - 1, two_s)
        assert h.flags.f_contiguous
        assert np.array_equal(h, h.T), n


# the chains of the symmetry test above, up to chain 10 at S=1/2, which
# the plain loop below assembles in under a second, and two large spins,
# where the closed form's integer factors are large
RECOUPLED = ([(ell, 1) for ell in range(2, 11)] + [(ell, 2) for ell in range(2, 8)]
             + [(ell, 3) for ell in range(2, 6)] + [(ell, 4) for ell in range(2, 5)] + [(3, 17), (2, 40)])


def test_every_block_equals_the_recoupled_bond_matrices():
    # a plain loop over rows and bonds adds the row of the 6j bond matrix
    # of (2J_{k-1}, 2J_{k+1}) at the path's own J_k to the paths that differ
    # from it in J_k alone, entries off the tridiagonal (rounding noise) too
    bond_matrix = functools.lru_cache(maxsize=None)(recoupled_bond_matrix)
    for ell, two_s in RECOUPLED:
        for n in range(two_s * ell // 2 + 1):
            basis, paths = _coupling_basis(ell, two_s, n)
            reference = np.zeros((basis.dim, basis.dim))
            for row, steps in enumerate(basis.states):
                for k in range(1, ell):
                    values, m = bond_matrix(int(paths[row, k - 1]), int(paths[row, k + 1]), two_s)
                    here = values.tolist().index(steps[k - 1])
                    for value, entry in zip(values.tolist(), m[here]):
                        moved = steps.copy()
                        moved[k - 1], moved[k] = value, steps[k - 1] + steps[k] - value
                        reference[row, basis.state_index(moved)] += entry
                        if value == steps[k - 1] + 1:  # J_k raised: one unit moves from site k to k - 1
                            assert basis.hop_targets(np.array([row]), k, k - 1)[0] == basis.state_index(moved)
            h = dense_block(*_highest_weight_block(ell, two_s, n))
            assert np.abs(h - reference).max() <= 1e-13 * np.abs(reference).max(), (ell, two_s, n)


def test_each_block_is_solved_once_per_call(monkeypatch):
    spin = SpinMagnitude(1)
    built = []
    exact = spectra._highest_weight_block

    def recorded(nsites, two_s, n):
        built.append(n)
        return exact(nsites, two_s, n)

    monkeypatch.setattr(spectra, "_highest_weight_block", recorded)
    # at the real gate, chain 13's 1716-state middle sector splits the
    # lattice, and every block up to the middle is built once
    full_spectrum(SpinLattice.chain(13), spin)
    assert built == list(range(7))
    built.clear()
    monkeypatch.setattr(spectra, "WHOLE_SECTOR_MAX", 0)
    full_spectrum(SpinLattice.chain(8), spin)
    assert built == [0, 1, 2, 3, 4]
    full_spectrum(SpinLattice.chain(8), spin)  # nothing is kept across calls
    assert built == [0, 1, 2, 3, 4] * 2


def test_a_nan_in_a_highest_weight_block_raises(monkeypatch):
    exact = spectra._highest_weight_block

    def spoiled(nsites, two_s, n):
        rows, cols, vals, dim = exact(nsites, two_s, n)
        if n == 2:
            vals[np.flatnonzero(rows == cols)[0]] = np.nan  # a diagonal value
        return rows, cols, vals, dim

    monkeypatch.setattr(spectra, "_highest_weight_block", spoiled)
    monkeypatch.setattr(spectra, "WHOLE_SECTOR_MAX", 0)
    with pytest.raises(ValueError, match="infs or NaNs"):
        full_spectrum(SpinLattice.chain(6), SpinMagnitude(1))


def test_two_spins_of_2s_924_solve_one_state_per_block_in_a_whole_blocks_memory(monkeypatch):
    # the middle sector, 925 states, lies above the gate, and each of
    # sectors 0..924 solves one highest-weight state, of spin
    # J = 924 - n: E_J = S^2 + S(S+1) - J(J+1)/2, S = 462
    two_s, s = 924, 462
    solved = []
    exact = spectra.sla.eigvalsh

    def recorded(a, **kwargs):
        solved.append(len(a))
        return exact(a, **kwargs)

    monkeypatch.setattr(spectra.sla, "eigvalsh", recorded)
    spectrum = full_spectrum(SpinLattice.chain(2), SpinMagnitude(two_s))
    assert solved == [1] * (two_s + 1)
    j = np.arange(two_s, -1, -1.0)
    energies = s * s + s * (s + 1) - j * (j + 1) / 2
    for n, eigs in enumerate(spectrum.sector_eigenvalues):
        reference = np.sort(energies[: min(n, 2 * two_s - n) + 1])
        np.testing.assert_allclose(eigs, reference, rtol=1e-15, atol=0, err_msg=f"n={n}")
    # a block holds no bond matrix, only arrays of its own rows: here three
    # one-state blocks stay within 20 (2S+1)-vectors of float64, where one
    # (2S+1)^2 matrix of the recoupled bond would take 6.8 MB
    tracemalloc.start()
    try:
        for n in (0, two_s // 2, two_s):
            _highest_weight_block(2, two_s, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * (two_s + 1) * 8
