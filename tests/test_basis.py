import numpy as np
import pytest

from magnonlab.basis import (
    ResourceLimitError,
    SpinLattice,
    SpinMagnitude,
    enumerate_sector_basis,
    require_sector_dimensions,
    sector_dimension,
)


def test_spin_magnitude_exact():
    assert SpinMagnitude(1).s == 0.5
    assert SpinMagnitude(3).s == 1.5
    assert SpinMagnitude(2).site_dim == 3
    with pytest.raises(ValueError):
        SpinMagnitude(0)


def test_lattice_validation():
    with pytest.raises(ValueError):
        SpinLattice((1,))
    with pytest.raises(ValueError):
        SpinLattice((3, 3, 3))
    lat = SpinLattice.square(3)
    assert lat.nsites == 9
    assert len(lat.bonds()) == 12
    assert sorted(lat.degrees().tolist()) == [2, 2, 2, 2, 3, 3, 3, 3, 4]


def test_hardcore_dimension_is_binomial():
    # n=2 magnons on 4 sites with cap 1: C(4,2) = 6
    basis = enumerate_sector_basis(SpinLattice.chain(4), SpinMagnitude(1), 2)
    assert basis.dim == 6


def test_spin1_dimension_by_brute_force():
    # three states of shape (2,0,0) and three of shape (1,1,0)
    basis = enumerate_sector_basis(SpinLattice.chain(3), SpinMagnitude(2), 2)
    assert basis.dim == 6
    shapes = sorted(tuple(sorted(row, reverse=True)) for row in basis.states.tolist())
    assert shapes.count((2, 0, 0)) == 3 and shapes.count((1, 1, 0)) == 3


def test_vacuum_sector():
    basis = enumerate_sector_basis(SpinLattice.chain(2), SpinMagnitude(1), 0)
    assert basis.dim == 1
    assert basis.states.tolist() == [[0, 0]]


def test_all_states_sum_to_n_and_respect_cap():
    basis = enumerate_sector_basis(SpinLattice.chain(5), SpinMagnitude(2), 4)
    assert np.all(basis.states.sum(axis=1) == 4)
    assert basis.states.max() <= 2


def test_lexicographic_deterministic_order():
    basis = enumerate_sector_basis(SpinLattice.chain(3), SpinMagnitude(2), 2)
    states = [tuple(r) for r in basis.states.tolist()]
    assert states == sorted(states)
    assert [basis.state_index(s) for s in states] == list(range(basis.dim))
    assert basis.state_index(basis.states).tolist() == list(range(basis.dim))


def test_out_of_range_magnon_number():
    with pytest.raises(ValueError, match="outside"):
        enumerate_sector_basis(SpinLattice.chain(2), SpinMagnitude(1), 3)
    with pytest.raises(ValueError, match="outside"):
        enumerate_sector_basis(SpinLattice.chain(2), SpinMagnitude(1), -1)


def test_uncapped_basis_dimension():
    basis = enumerate_sector_basis(SpinLattice.chain(3), SpinMagnitude(1), 4, capped=False)
    # compositions of 4 into 3 parts: C(6,2) = 15
    assert basis.dim == 15
    assert basis.cap == 4


def test_sector_dimension_counts_match_enumeration():
    for nsites, cap in ((3, 1), (3, 2), (4, 2), (5, 3)):
        lat = SpinLattice.chain(nsites)
        spin = SpinMagnitude(cap)
        for n in range(cap * nsites + 1):
            basis = enumerate_sector_basis(lat, spin, n)
            assert basis.dim == sector_dimension(nsites, n, cap)


def test_require_sector_dimensions_names_the_first_oversized_sector():
    require_sector_dimensions(15, 1, range(7), 6000)  # C(15, 6) = 5005 states
    with pytest.raises(ResourceLimitError, match=r"^sector n=8 has dimension 6435 > 6000$"):
        require_sector_dimensions(15, 1, [0, 8, 7], 6000)
    # an uncapped sector passes its magnon number as the cap
    with pytest.raises(ResourceLimitError, match=r"^sector n=4 has dimension 35 > 34$"):
        require_sector_dimensions(4, 4, [4], 34)


def test_total_dimension_partitions_hilbert_space():
    lat, spin = SpinLattice.chain(4), SpinMagnitude(2)
    total = sum(
        enumerate_sector_basis(lat, spin, n).dim for n in range(2 * 4 + 1)
    )
    assert total == 3**4


def test_magnon_number_tracks_total_spin_projection():
    # n = S*M + S^3_tot: the diagonal of S^3_tot is sum(occ) - S*M
    lat, spin = SpinLattice.chain(3), SpinMagnitude(2)
    for n in (0, 2, 5):
        basis = enumerate_sector_basis(lat, spin, n)
        s3 = basis.states.sum(axis=1) - spin.s * lat.nsites
        assert np.allclose(s3, n - spin.s * lat.nsites)


def test_2d_basis():
    basis = enumerate_sector_basis(SpinLattice.square(2), SpinMagnitude(1), 2)
    assert basis.dim == 6


def test_state_index_round_trips_when_keys_exceed_int64():
    # uncapped n = 2 sector of 40 sites: cap 2, and 3**40 > 2**63
    basis = enumerate_sector_basis(SpinLattice.chain(40), SpinMagnitude(1), 2, capped=False)
    assert basis.dim == 820 and 3**40 > 2**63
    assert [basis.state_index(s) for s in basis.states] == list(range(basis.dim))
    rows = np.arange(basis.dim)
    src = basis.states.argmax(axis=1)
    dst = (src + 1) % 40
    moved = basis.states.copy()
    moved[rows, src] -= 1
    moved[rows, dst] += 1
    assert basis.hop_targets(rows, src, dst).tolist() == [
        basis.state_index(s) for s in moved
    ]
    assert basis.state_index(moved).tolist() == basis.hop_targets(rows, src, dst).tolist()


@pytest.mark.parametrize(
    "occ",
    [(1, 1, 1), (2, 0, 1), (3, 0, 0), (-1, 2, 1), (1, 1), (1, 1, 0, 0)],
)
def test_state_index_rejects_states_outside_the_sector(occ):
    basis = enumerate_sector_basis(SpinLattice.chain(3), SpinMagnitude(2), 2)
    with pytest.raises(KeyError):
        basis.state_index(occ)
    if len(occ) == basis.lattice.nsites:
        with pytest.raises(KeyError):
            basis.state_index(np.vstack([basis.states, occ]))


def _bounded_compositions(total, nsites, cap):
    """Reference enumeration: occupation tuples summing to `total`, each
    entry in [0, cap], in ascending lexicographic order, by recursion."""
    state = [0] * nsites

    def rec(pos, remaining):
        if pos == nsites - 1:
            if remaining <= cap:
                state[pos] = remaining
                yield tuple(state)
                state[pos] = 0
            return
        lo = max(0, remaining - cap * (nsites - 1 - pos))
        hi = min(cap, remaining)
        for k in range(lo, hi + 1):
            state[pos] = k
            yield from rec(pos + 1, remaining - k)
        state[pos] = 0

    yield from rec(0, total)


def test_sector_enumeration_matches_the_recursive_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(
        ell=st.integers(2, 7),
        two_s=st.integers(1, 4),
        capped=st.booleans(),
        data=st.data(),
    )
    def check(ell, two_s, capped, data):
        n = data.draw(st.integers(0, two_s * ell if capped else 8), label="n")
        basis = enumerate_sector_basis(
            SpinLattice.chain(ell), SpinMagnitude(two_s), n, capped=capped
        )
        reference = np.array(
            list(_bounded_compositions(n, ell, basis.cap)), dtype=np.int64
        ).reshape(-1, ell)
        assert basis.states.dtype == reference.dtype
        assert np.array_equal(basis.states, reference)
        assert basis.dim == sector_dimension(ell, n, basis.cap)

    check()
