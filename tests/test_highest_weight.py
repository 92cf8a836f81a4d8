"""The free chain's highest-weight blocks, which `full_spectrum` solves
as two reflection-parity halves for every free-chain sector above
`WHOLE_SECTOR_MAX`: the half-chain coupling paths and the mirror-coupled
rows, the closed-form 6j symbols with an argument 1, the reversal of the
coupled states on the tensor-product space as the signed row map, each
block's Hamiltonian against those states and against the sequential
block (`oracles.sequential_highest_weight_block`), itself checked
against the bond matrices that 6j recoupling gives
(`oracles.recoupled_bond_matrix`), and the 6j symbols of that reference.
The sector spectra the blocks give are checked against the whole solve
in `test_spectra.test_parity_blocks_match_the_whole_sector_solve` and the
tensor-product oracle in `test_parity_blocks_match_the_tensor_product_oracle`.
"""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from magnonlab import spectra
from magnonlab.basis import SpinLattice, SpinMagnitude, sector_dimension
from magnonlab.operators import dense_block
from magnonlab.spectra import (
    _half_paths,
    _highest_weight_block,
    _mirror_coupling,
    _parity_blocks,
    _six_j_one,
    full_spectrum,
)
from oracles import (
    coupling_basis,
    mirror_coupled_states,
    palindrome_count,
    recoupled_bond_matrix,
    sequential_highest_weight_block,
    six_j_by_factorials,
    tensor_product_heisenberg,
)


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


def test_the_closed_form_six_j_with_an_argument_1_is_racahs_sum():
    # every {a b c; 1 c1 b1} with b1 - b, c1 - c in -2, 0, 2 whose triads
    # (a b c) and (a c1 b1) hold, over doubled spins up to 13 and at 2S = 80
    args = [(a, b, c, b + db, c + dc) for a, b, c in itertools.product(range(14), repeat=3)
            for db, dc in itertools.product((-2, 0, 2), repeat=2)]
    args += [(80, 80, 80, 80 + db, 80 + dc) for db, dc in itertools.product((-2, 0, 2), repeat=2)]

    def triad(x, y, z):
        return (x + y + z) % 2 == 0 and abs(x - y) <= z <= x + y

    args = [x for x in args if min(x) >= 0 and triad(*x[:3]) and triad(x[0], x[4], x[3])]
    ours = _six_j_one(*np.array(args).T)
    reference = np.array([six_j_by_factorials(a, b, c, 2, c1, b1) for a, b, c, b1, c1 in args])
    assert len(args) > 5000
    assert np.abs(ours - reference).max() <= 1e-15


def coupling_paths(ell, two_s, two_j=None):
    """Every path (0, 2J_1, ..., 2J_ell), to 2J_ell = two_j or, by default,
    to any spin, J_k in |J_{k-1} - S| .. J_{k-1} + S, by recursion, which
    grows them in ascending order."""
    def grow(path):
        if len(path) == ell + 1:
            if two_j in (None, path[-1]):
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
        rows = len(_mirror_coupling(ell, two_s, n)[1])
        assert rows == sector_dimension(ell, n, two_s) - sector_dimension(ell, n - 1, two_s), n
        states += (top - 2 * n + 1) * rows
    else:
        assert states == (two_s + 1) ** ell


@pytest.mark.parametrize("ell,two_s", [(ell, 1) for ell in range(2, 13)] + [(ell, 2) for ell in range(2, 8)]
                         + [(ell, 3) for ell in range(2, 6)])
def test_paths_ascend_and_rank_to_their_rows(ell, two_s):
    # the half paths are every path in ascending order, and the sequential
    # reference's paths to each spin are theirs; the rows ascend in
    # (left, right, 2K), and reversal maps (a, b, K) to (b, a, K), an
    # involution with one sign per orbit
    assert _half_paths(ell, two_s).tolist() == coupling_paths(ell, two_s)
    top = two_s * ell
    for n in range(top // 2 + 1):
        basis, paths = coupling_basis(ell, two_s, n)
        assert paths.tolist() == coupling_paths(ell, two_s, top - 2 * n), n
        assert np.array_equal(2 * basis.states, np.diff(paths, axis=1) + two_s)
        assert np.array_equal(basis.state_index(basis.states), np.arange(basis.dim))
        half_paths, left, right, k, mirror, sign = _mirror_coupling(ell, two_s, n)
        assert half_paths.tolist() == coupling_paths(ell // 2, two_s)
        rows = list(zip(left.tolist(), right.tolist(), k.tolist()))
        assert rows == sorted(set(rows)), n
        assert np.array_equal(left[mirror], right) and np.array_equal(k[mirror], k)
        assert np.array_equal(mirror[mirror], np.arange(len(k))) and np.array_equal(sign[mirror], sign)


@pytest.mark.parametrize("ell,two_s", [(ell, 1) for ell in range(2, 13)] + [(ell, 2) for ell in range(2, 8)]
                         + [(ell, 3) for ell in range(2, 6)] + [(ell, 4) for ell in range(2, 5)])
def test_every_block_is_bitwise_symmetric_and_sized_by_its_multiplicity(ell, two_s):
    # a recoupling phase that depends on J_k or K would break the symmetry
    for n in range(two_s * ell // 2 + 1):
        h = dense_block(*_highest_weight_block(ell, two_s, n)[:4])
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
            basis, paths = coupling_basis(ell, two_s, n)
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
            h = dense_block(*sequential_highest_weight_block(ell, two_s, n))
            assert np.abs(h - reference).max() <= 1e-13 * np.abs(reference).max(), (ell, two_s, n)


def _halves(ell, two_s, n):
    """The two reflection-parity halves of block n, as `full_spectrum` forms them."""
    return list(_parity_blocks(*_highest_weight_block(ell, two_s, n)))


def test_the_halves_of_every_block_hold_the_sequential_block_spectrum():
    for ell, two_s in RECOUPLED:
        for n in range(two_s * ell // 2 + 1):
            reference = spectra.sla.eigvalsh(dense_block(*sequential_highest_weight_block(ell, two_s, n)))
            union = np.concatenate([spectra.sla.eigvalsh(dense_block(*half)) for half in _halves(ell, two_s, n)])
            np.testing.assert_allclose(np.sort(union), reference, rtol=0, atol=1e-12, err_msg=f"{ell} {two_s} {n}")


@pytest.mark.parametrize("ell,two_s", [(ell, 1) for ell in range(2, 8)] + [(ell, 2) for ell in range(2, 6)]
                         + [(2, 3), (3, 3)])
def test_reversing_the_sites_is_the_signed_row_map_on_the_coupled_states(ell, two_s):
    # the rows' states, built from Clebsch-Gordan coefficients on the
    # tensor-product space, are orthonormal; reversing the sites maps row
    # i to sign[i] times row mirror[i]; and the block is H on them
    h = tensor_product_heisenberg(SpinLattice.chain(ell), SpinMagnitude(two_s))
    for n in range(two_s * ell // 2 + 1):
        paths, left, right, k, mirror, sign = _mirror_coupling(ell, two_s, n)
        states = mirror_coupled_states(ell, two_s, two_s * ell - 2 * n, paths, left, right, k)
        sites = states.reshape((two_s + 1,) * ell + (-1,))
        reversed_states = np.transpose(sites, list(range(ell - 1, -1, -1)) + [ell]).reshape(states.shape)
        assert np.abs(states.T @ states - np.eye(len(k))).max() <= 1e-13, n
        assert np.abs(reversed_states - states[:, mirror] * sign).max() <= 1e-13, n
        block = dense_block(*_highest_weight_block(ell, two_s, n)[:4])
        assert np.abs(block - states.T @ h @ states).max() <= 1e-12, n


@pytest.mark.parametrize("ell,two_s", [(ell, 1) for ell in range(2, 13)] + [(ell, 2) for ell in range(2, 8)]
                         + [(ell, 3) for ell in range(2, 6)] + [(ell, 4) for ell in range(2, 5)])
def test_each_pair_of_halves_differs_by_the_new_palindromes(ell, two_s):
    # the trace of the reversal on block n, even - odd, is its trace on
    # sector n, whose palindromic occupation vectors it fixes, less its
    # trace on sector n - 1, which holds every multiplet of higher spin:
    # a fixed row sent to the wrong half moves the difference by two
    lattice, spin = SpinLattice.chain(ell), SpinMagnitude(two_s)
    for n in range(two_s * ell // 2 + 1):
        even, odd = (half[3] for half in _halves(ell, two_s, n))
        assert even + odd == sector_dimension(ell, n, two_s) - sector_dimension(ell, n - 1, two_s), n
        assert even - odd == palindrome_count(lattice, spin, n) - palindrome_count(lattice, spin, n - 1), n


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



@pytest.mark.parametrize("variant,calls", [("free", 7), ("dirichlet", 6)])
def test_each_blocks_reflection_is_built_with_its_rows(monkeypatch, variant, calls):
    # free chain 13 builds its blocks 0..6 and pinned chain 14 free chain
    # 15's blocks 2..7, each carrying the signed row map it was coupled with
    counted = []
    exact = spectra._mirror_coupling

    def recorded(nsites, two_s, n):
        counted.append(n)
        return exact(nsites, two_s, n)

    monkeypatch.setattr(spectra, "_mirror_coupling", recorded)
    full_spectrum(SpinLattice.chain(13 if variant == "free" else 14), SpinMagnitude(1), variant)
    assert len(counted) == calls

def test_a_nan_in_a_highest_weight_block_raises(monkeypatch):
    exact = spectra._highest_weight_block

    def spoiled(nsites, two_s, n):
        rows, cols, vals, dim, mirror, sign = exact(nsites, two_s, n)
        if n == 2:
            vals[np.flatnonzero(rows == cols)[0]] = np.nan  # a diagonal value
        return rows, cols, vals, dim, mirror, sign

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
