import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from magnonlab.basis import SpinLattice, SpinMagnitude, enumerate_sector_basis
from magnonlab.boundlab import neumann_boson_laplacian
from magnonlab.operators import (
    HermitianOperator,
    assemble_dirichlet_heisenberg,
    assemble_free_boson_t,
    assemble_heisenberg,
    assemble_projector_p,
    assemble_total_spin_squared,
    dense_block,
    occupancy_weight,
    verify_su2_representation,
)
from oracles import ground_multiplet_vector, hermiticity_defect, tensor_product_heisenberg


def sector_eigs(op):
    return np.sort(sla.eigvalsh(op.to_dense()))


def test_two_site_halfspin_spectrum():
    # hand diagonalization: triplet at 0, singlet at 1
    lat, spin = SpinLattice.chain(2), SpinMagnitude(1)
    all_eigs = np.sort(
        np.concatenate(
            [
                sector_eigs(assemble_heisenberg(enumerate_sector_basis(lat, spin, n)))
                for n in range(3)
            ]
        )
    )
    assert np.allclose(all_eigs, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_one_magnon_block_is_scaled_path_laplacian():
    lat, spin = SpinLattice.chain(4), SpinMagnitude(1)
    h = assemble_heisenberg(enumerate_sector_basis(lat, spin, 1))
    expected = [2 * 0.5 * (1 - math.cos(math.pi * m / 4)) for m in range(4)]
    assert np.allclose(sector_eigs(h), sorted(expected), atol=1e-12)


def test_vacuum_block_is_zero():
    for two_s, ell in ((1, 3), (2, 4), (3, 2)):
        basis = enumerate_sector_basis(SpinLattice.chain(ell), SpinMagnitude(two_s), 0)
        h = assemble_heisenberg(basis)
        assert h.to_dense().shape == (1, 1)
        assert abs(h.to_dense()[0, 0]) == 0.0


def test_pinned_one_magnon_block_has_sine_mode_spectrum():
    basis = enumerate_sector_basis(SpinLattice.chain(3), SpinMagnitude(1), 1)
    hd = assemble_dirichlet_heisenberg(basis)
    expected = sorted(
        0.5 * 2 * (1 - math.cos(math.pi * m / 4)) for m in (1, 2, 3)
    )
    assert np.allclose(sector_eigs(hd), expected, atol=1e-12)


def test_pinned_vacuum_and_full_blocks():
    basis0 = enumerate_sector_basis(SpinLattice.chain(4), SpinMagnitude(2), 0)
    assert abs(assemble_dirichlet_heisenberg(basis0).to_dense()[0, 0]) == 0.0
    basis2 = enumerate_sector_basis(SpinLattice.chain(2), SpinMagnitude(1), 2)
    val = assemble_dirichlet_heisenberg(basis2).to_dense()[0, 0]
    assert val > 0.5  # boundary pinning penalizes the fully flipped state


def test_pinned_assembly_rejects_2d():
    basis = enumerate_sector_basis(SpinLattice.square(2), SpinMagnitude(1), 1)
    with pytest.raises(ValueError, match="1d chains"):
        assemble_dirichlet_heisenberg(basis)


def test_free_boson_requires_uncapped_basis():
    capped = enumerate_sector_basis(SpinLattice.chain(3), SpinMagnitude(1), 2)
    with pytest.raises(ValueError, match="uncapped"):
        assemble_free_boson_t(capped)


def test_free_boson_one_particle_modes():
    basis = enumerate_sector_basis(SpinLattice.chain(3), SpinMagnitude(1), 1, capped=False)
    t = assemble_free_boson_t(basis)
    expected = sorted(0.5 * 2 * (1 - math.cos(math.pi * m / 4)) for m in (1, 2, 3))
    assert np.allclose(sector_eigs(t), expected, atol=1e-12)


def test_free_boson_mode_energies_add():
    # two bosons on two pinned sites: eigenvalues are all sums of mode pairs
    basis = enumerate_sector_basis(SpinLattice.chain(2), SpinMagnitude(1), 2, capped=False)
    t = assemble_free_boson_t(basis)
    eps = [0.5 * 2 * (1 - math.cos(math.pi * m / 3)) for m in (1, 2)]
    sums = sorted([2 * eps[0], eps[0] + eps[1], 2 * eps[1]])
    assert np.allclose(sector_eigs(t), sums, atol=1e-12)
    basis0 = enumerate_sector_basis(SpinLattice.chain(5), SpinMagnitude(1), 0, capped=False)
    assert abs(assemble_free_boson_t(basis0).to_dense()[0, 0]) == 0.0


def test_free_boson_2d_one_particle_modes():
    basis = enumerate_sector_basis(SpinLattice.square(3), SpinMagnitude(1), 1, capped=False)
    t = assemble_free_boson_t(basis)
    eps1 = [2 * (1 - math.cos(math.pi * m / 4)) for m in (1, 2, 3)]
    expected = sorted(0.5 * (a + b) for a in eps1 for b in eps1)
    assert np.allclose(sector_eigs(t), expected, atol=1e-12)


def test_projector_weights():
    assert occupancy_weight(0, SpinMagnitude(2)) == 1.0
    assert occupancy_weight(1, SpinMagnitude(2)) == 1.0
    assert occupancy_weight(2, SpinMagnitude(2)) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert occupancy_weight(2, SpinMagnitude(1)) == 0.0
    basis = enumerate_sector_basis(SpinLattice.chain(3), SpinMagnitude(2), 2)
    p = assemble_projector_p(basis)
    assert p[basis.state_index((2, 0, 0))] == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert p[basis.state_index((1, 1, 0))] == 1.0
    # uncapped basis: weights vanish beyond the hard core
    unc = enumerate_sector_basis(SpinLattice.chain(2), SpinMagnitude(1), 2, capped=False)
    pw = assemble_projector_p(unc)
    assert pw[unc.state_index((2, 0))] == 0.0
    assert pw[unc.state_index((1, 1))] == 1.0
    assert np.all((pw >= 0.0) & (pw <= 1.0))


def test_total_spin_squared_examples():
    b = enumerate_sector_basis(SpinLattice.chain(2), SpinMagnitude(1), 1)
    assert np.allclose(sector_eigs(assemble_total_spin_squared(b)), [0.0, 2.0], atol=1e-12)
    b3 = enumerate_sector_basis(SpinLattice.chain(3), SpinMagnitude(1), 1)
    assert np.allclose(
        sector_eigs(assemble_total_spin_squared(b3)), [0.75, 0.75, 3.75], atol=1e-12
    )
    # vacuum: maximal total spin S*M
    b0 = enumerate_sector_basis(SpinLattice.chain(4), SpinMagnitude(3), 0)
    smax = 1.5 * 4
    assert np.allclose(
        assemble_total_spin_squared(b0).to_dense(), [[smax * (smax + 1)]], atol=1e-12
    )


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_su2_representation(two_s):
    cert = verify_su2_representation(SpinMagnitude(two_s))
    assert -cert.slack <= 1e-12


@pytest.mark.parametrize("two_s", [72, 100, 400])
def test_su2_representation_passes_at_large_spin(two_s):
    # the residuals round at about u S(S+1): 2S = 72 is the first to
    # exceed a flat 1e-12
    assert verify_su2_representation(SpinMagnitude(two_s)).verdict == "pass"


@pytest.mark.parametrize("two_s", [1, 3, 100, 400])
def test_su2_representation_fails_a_scaled_raising_operator(monkeypatch, two_s):
    import magnonlab.operators as operators

    exact = operators.boson_spin_matrices

    def scaled(spin):
        sp_, sm_, s3 = exact(spin)
        return sp_ * (1 + 1e-9), sm_, s3

    monkeypatch.setattr(operators, "boson_spin_matrices", scaled)
    assert verify_su2_representation(SpinMagnitude(two_s)).verdict == "fail"


@pytest.mark.parametrize("ell,two_s", [(3, 1), (4, 1), (3, 2), (2, 3)])
def test_hermiticity_and_symmetry_invariants(ell, two_s):
    lat, spin = SpinLattice.chain(ell), SpinMagnitude(two_s)
    for n in range(two_s * ell + 1):
        basis = enumerate_sector_basis(lat, spin, n)
        h = assemble_heisenberg(basis)
        s2 = assemble_total_spin_squared(basis)
        assert hermiticity_defect(h) <= 1e-12
        assert hermiticity_defect(s2) <= 1e-12
        hd, s2d = h.to_dense(), s2.to_dense()
        scale = max(np.abs(hd).max() * np.abs(s2d).max(), 1.0)
        assert np.abs(hd @ s2d - s2d @ hd).max() <= 1e-10 * scale
        # positive form: every sector block is PSD
        eigs = sla.eigvalsh(hd)
        assert eigs[0] >= -1e-10 * max(abs(eigs).max(), 1.0)


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_boson_assembly_matches_tensor_product_oracle(ell):
    lat, spin = SpinLattice.chain(ell), SpinMagnitude(1)
    dense = tensor_product_heisenberg(lat, spin)
    oracle = np.sort(sla.eigvalsh(dense))
    sector = np.sort(
        np.concatenate(
            [
                sector_eigs(assemble_heisenberg(enumerate_sector_basis(lat, spin, n)))
                for n in range(ell + 1)
            ]
        )
    )
    assert np.abs(oracle - sector).max() <= 1e-10


def test_tensor_product_oracle_spin1():
    lat, spin = SpinLattice.chain(3), SpinMagnitude(2)
    oracle = np.sort(sla.eigvalsh(tensor_product_heisenberg(lat, spin)))
    sector = np.sort(
        np.concatenate(
            [
                sector_eigs(assemble_heisenberg(enumerate_sector_basis(lat, spin, n)))
                for n in range(7)
            ]
        )
    )
    assert np.abs(oracle - sector).max() <= 1e-10


def test_2d_assembly_zero_modes_and_hermiticity():
    lat, spin = SpinLattice.square(2), SpinMagnitude(1)
    eigs = np.sort(
        np.concatenate(
            [
                sector_eigs(assemble_heisenberg(enumerate_sector_basis(lat, spin, n)))
                for n in range(5)
            ]
        )
    )
    # ground multiplet: 2*S*M + 1 = 5 zero modes
    assert int(np.sum(np.abs(eigs) < 1e-10)) == 5
    assert eigs[0] >= -1e-12


def test_ground_multiplet_vector_is_zero_mode():
    for ell, two_s, n in ((4, 1, 2), (3, 2, 3), (4, 2, 3)):
        basis = enumerate_sector_basis(SpinLattice.chain(ell), SpinMagnitude(two_s), n)
        h = assemble_heisenberg(basis).to_csr()
        v = ground_multiplet_vector(basis)
        assert np.linalg.norm(h @ v) <= 1e-12 * max(1.0, abs(h).max())


@pytest.mark.parametrize(
    "lattice,two_s",
    [(SpinLattice.chain(ell), two_s) for ell in (2, 3, 4, 5) for two_s in (1, 2, 3)]
    + [(SpinLattice.square(2), 2)],
)
def test_sector_blocks_embed_into_tensor_product_oracle(lattice, two_s):
    spin = SpinMagnitude(two_s)
    oracle = tensor_product_heisenberg(lattice, spin)
    m = lattice.nsites
    place = spin.site_dim ** np.arange(m - 1, -1, -1)
    embedded = np.zeros_like(oracle)
    for n in range(two_s * m + 1):
        basis = enumerate_sector_basis(lattice, spin, n)
        idx = basis.states @ place
        embedded[np.ix_(idx, idx)] = assemble_heisenberg(basis).to_dense()
    assert np.abs(embedded - oracle).max() <= 1e-12


def _loop_reference(basis, pairs, scale, dressed, diag_fn):
    """Entry dict {(row, col): value} of an operator built state by state
    with Python floats, the arithmetic the vectorized kernel must repeat."""
    two_s = basis.spin.two_s

    def dressing(k):
        val = 1.0 - k / two_s
        return math.sqrt(val) if val > 0.0 else 0.0

    entries = {}
    for i, occ in enumerate(basis.states.tolist()):
        if diag_fn(occ) != 0.0:
            entries[i, i] = diag_fn(occ)
        for src, dst in pairs:
            n_src, n_dst = occ[src], occ[dst]
            if n_src == 0 or n_dst + 1 > basis.cap:
                continue
            amp = math.sqrt(n_src * (n_dst + 1))
            if dressed:
                amp *= dressing(n_dst) * dressing(n_src - 1)
            if amp != 0.0:
                moved = list(occ)
                moved[src] -= 1
                moved[dst] += 1
                entries[basis.state_index(moved), i] = scale * amp
    return entries


@pytest.mark.parametrize(
    "lattice,two_s",
    [(SpinLattice.chain(ell), two_s) for ell in (2, 4, 5) for two_s in (1, 2, 3)]
    + [(SpinLattice.square(2), 1), (SpinLattice((2, 3)), 2),
       (SpinLattice.chain(3), 1)],
)
def test_vectorized_assembly_repeats_loop_arithmetic_exactly(lattice, two_s):
    spin = SpinMagnitude(two_s)
    s, m = spin.s, lattice.nsites
    bonds = lattice.bonds()
    pairs = bonds + [(y, x) for x, y in bonds]
    all_pairs = [(x, y) for y in range(m) for x in range(m) if x != y]

    def bond_diag(occ):
        return sum(s * (occ[x] + occ[y]) - occ[x] * occ[y] for x, y in bonds)

    def casimir_diag(occ):
        dev = np.array(occ, dtype=float) - s
        return m * s * (s + 1.0) + np.sum(dev) ** 2 - np.sum(dev**2)

    cases = []
    for n in range(two_s * m + 1):
        basis = enumerate_sector_basis(lattice, spin, n)
        cases.append((assemble_heisenberg(basis), basis, pairs, -s, True, bond_diag))
        cases.append((assemble_total_spin_squared(basis), basis, all_pairs, 2.0 * s,
                      True, casimir_diag))
        if lattice.dimension == 1:
            cases.append((assemble_dirichlet_heisenberg(basis), basis, pairs, -s, True,
                          lambda occ: bond_diag(occ) + s * (occ[0] + occ[-1])))
    for n in range(5):
        free = enumerate_sector_basis(lattice, spin, n, capped=False)
        cases.append((assemble_free_boson_t(free), free, pairs, -s, False,
                      lambda occ: 2.0 * lattice.dimension * s * sum(occ)))
        if lattice.dimension == 1:
            cases.append((assemble_dirichlet_heisenberg(free), free, pairs, -s, True,
                          lambda occ: bond_diag(occ) + s * (occ[0] + occ[-1])))
        if lattice.dimension == 1 and two_s == 1:
            lap = sp.coo_matrix(neumann_boson_laplacian(m, n))
            cases.append((HermitianOperator(free, lap.row, lap.col, lap.data), free, pairs,
                          -1.0, False, lambda occ: int(lattice.degrees() @ occ)))
    for op, basis, hops, scale, dressed, diag_fn in cases:
        expected = _loop_reference(basis, hops, scale, dressed, diag_fn)
        got = dict(zip(zip(op.rows.tolist(), op.cols.tolist()), op.vals.tolist()))
        assert len(op.vals) == len(expected)
        assert got == expected


def _entries(rows, cols, vals):
    return dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))


def test_hop_kernel_repeats_loop_arithmetic_on_random_sectors():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(
        ell=st.integers(2, 6),
        two_s=st.integers(1, 3),
        capped=st.booleans(),
        data=st.data(),
    )
    def check(ell, two_s, capped, data):
        n = data.draw(st.integers(0, two_s * ell if capped else 5), label="n")
        lattice, spin = SpinLattice.chain(ell), SpinMagnitude(two_s)
        basis = enumerate_sector_basis(lattice, spin, n, capped=capped)
        s, bonds = spin.s, lattice.bonds()
        pairs = bonds + [(y, x) for x, y in bonds]
        if not capped:
            op = assemble_free_boson_t(basis)
            expected = _loop_reference(basis, pairs, -s, False, lambda occ: 2.0 * s * sum(occ))
            assert len(op.vals) == len(expected) and _entries(op.rows, op.cols, op.vals) == expected
            assert np.array_equal(op.to_dense(), op.to_csr().toarray())
            assert op.to_dense().flags.c_contiguous
            return
        expected = _loop_reference(
            basis, pairs, -s, True,
            lambda occ: sum(s * (occ[x] + occ[y]) - occ[x] * occ[y] for x, y in bonds),
        )
        op = assemble_heisenberg(basis)
        assert len(op.vals) == len(expected) and _entries(op.rows, op.cols, op.vals) == expected
        assert np.array_equal(op.to_dense(), op.to_csr().toarray())
        # the Casimir hops over every ordered pair of sites, not just bonds
        s2 = assemble_total_spin_squared(basis)
        assert np.array_equal(s2.to_dense(), s2.to_csr().toarray())
        # C order: numpy's products on a Hamiltonian round by its layout
        assert op.to_dense().flags.c_contiguous and s2.to_dense().flags.c_contiguous

    check()


def test_dense_block_sums_duplicates_in_triplet_order():
    # the pinned chain's parity blocks rest on this order: 0.1 + 0.2 + 0.3
    # rounds to 0.6000000000000001, 0.3 + 0.2 + 0.1 to 0.6
    rows, cols = np.array([1, 1, 1, 0]), np.array([0, 0, 0, 1])
    forward = dense_block(rows, cols, np.array([0.1, 0.2, 0.3, 5.0]), 2)
    backward = dense_block(rows, cols, np.array([0.3, 0.2, 0.1, 5.0]), 2)
    assert forward[1, 0] == 0.6000000000000001 and backward[1, 0] == 0.6
    assert forward[0, 1] == 5.0 and forward[0, 0] == forward[1, 1] == 0.0
    assert forward.flags.f_contiguous


def test_dense_block_of_no_triplets_is_a_float_zero_block():
    empty = np.array([], dtype=np.int64)
    block = dense_block(empty, empty, np.array([]), 3)
    assert block.dtype == np.float64 and block.flags.f_contiguous
    assert np.array_equal(block, np.zeros((3, 3)))
