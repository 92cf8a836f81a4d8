import functools
import math

import numpy as np
import pytest

import scipy.linalg as sla
import scipy.sparse as sp

from magnonlab import spectra
from magnonlab.basis import SpinLattice, SpinMagnitude, enumerate_sector_basis, sector_dimension
from magnonlab.operators import (
    assemble_dirichlet_heisenberg,
    assemble_free_boson_t,
    assemble_heisenberg,
    assemble_total_spin_squared,
    dense_block,
)
from magnonlab.spectra import (
    ResourceLimitError,
    chain_free_energies,
    check_localization_bound,
    check_subadditivity,
    dense_sectors,
    free_boson_propagator,
    free_energy,
    free_energy_from_eigenvalues,
    full_spectrum,
    gibbs_variational_upper,
    sector_energy_spin_pairs,
    spectral_gap,
)
from oracles import ground_multiplet_vector, middle_sector_gap, palindrome_count, tensor_product_heisenberg


def test_full_spectrum_two_sites_halfspin():
    spec = full_spectrum(SpinLattice.chain(2), SpinMagnitude(1))
    assert np.allclose(np.sort(spec.all_eigenvalues), [0, 0, 0, 1], atol=1e-12)
    assert spec.all_eigenvalues.size == 2**2


def test_full_spectrum_two_sites_spin1():
    # pair-coupling oracle: E(t) = S^2 - [t(t+1) - 2S(S+1)]/2 over t = 0,1,2
    # gives energies {3, 2, 0} with multiplicities {1, 3, 5}
    spec = full_spectrum(SpinLattice.chain(2), SpinMagnitude(2))
    eigs = np.sort(spec.all_eigenvalues)
    expected = np.sort([0.0] * 5 + [2.0] * 3 + [3.0])
    assert np.allclose(eigs, expected, atol=1e-12)
    assert spec.zero_mode_count() == 5


def test_full_spectrum_three_sites_halfspin():
    spec = full_spectrum(SpinLattice.chain(3), SpinMagnitude(1))
    eigs = np.sort(spec.all_eigenvalues)
    assert np.allclose(eigs, [0, 0, 0, 0, 0.5, 0.5, 1.5, 1.5], atol=1e-12)
    assert eigs.size == 8


def test_vacuum_sector_contains_zero_and_counts_match():
    lat, spin = SpinLattice.chain(4), SpinMagnitude(2)
    spec = full_spectrum(lat, spin)
    assert abs(spec.sector_eigenvalues[0][0]) < 1e-14
    assert spec.all_eigenvalues.size == 3**4
    assert spec.all_eigenvalues.min() >= -1e-10 * max(spec.scale, 1.0)


def test_resource_cap():
    with pytest.raises(ResourceLimitError, match="cap"):
        full_spectrum(SpinLattice.chain(21), SpinMagnitude(1))


def test_free_energy_closed_form():
    spec = full_spectrum(SpinLattice.chain(2), SpinMagnitude(1))
    f = free_energy(spec, 1.0)
    assert f == pytest.approx(-0.5 * math.log(3.0 + math.exp(-1.0)), abs=1e-12)


def test_free_energy_limits():
    spec = full_spectrum(SpinLattice.chain(2), SpinMagnitude(1))
    # ground energy 0: f -> 0^- at low temperature
    assert -1e-3 < free_energy(spec, 1e4) < 0
    # high temperature: f ~ -(1/(2 beta)) ln 4
    assert free_energy(spec, 0.01) == pytest.approx(-math.log(4.0) / 0.02, rel=1e-2)
    with pytest.raises(ValueError, match="positive"):
        free_energy(spec, 0.0)


def test_free_energy_upper_bounded_by_degeneracy():
    # Tr e^{-beta H} >= 2SM+1 zero modes, so f <= -(ln(2SM+1))/(beta M) < 0
    for ell, two_s in ((4, 1), (3, 2)):
        spec = full_spectrum(SpinLattice.chain(ell), SpinMagnitude(two_s))
        for beta in (0.5, 2.0, 16.0):
            assert free_energy(spec, beta) <= -math.log(two_s * ell + 1) / (beta * ell)


def test_logsumexp_stability_large_beta():
    spec = full_spectrum(SpinLattice.chain(12), SpinMagnitude(1))
    f = free_energy(spec, 1000.0)
    assert math.isfinite(f) and f < 0


def test_single_site_chain_free_energy():
    assert chain_free_energies(1, SpinMagnitude(2), [2.0, 5.0]) == pytest.approx(
        [-math.log(3.0) / 2.0, -math.log(3.0) / 5.0], abs=1e-15
    )
    with pytest.raises(ValueError, match="free variant"):
        chain_free_energies(1, SpinMagnitude(2), [2.0], "dirichlet")


@pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
def test_free_energies_reject_a_beta_that_is_not_positive_and_finite(beta):
    with pytest.raises(ValueError, match="beta"):
        free_energy_from_eigenvalues([0.0, 1.0], beta, 2)
    with pytest.raises(ValueError, match="beta"):
        chain_free_energies(1, SpinMagnitude(1), [1.0, beta])


def test_full_spectrum_refuses_an_unknown_variant():
    with pytest.raises(ValueError, match="unknown variant 'periodic'"):
        full_spectrum(SpinLattice.chain(3), SpinMagnitude(1), variant="periodic")


def test_spectral_gap_refuses_a_lattice_that_is_not_a_chain():
    # so every lattice the gap solves holds each chain bond its Casimir floor needs
    with pytest.raises(ValueError, match="defined for chains"):
        spectral_gap(SpinLattice.square(3), SpinMagnitude(1))


def test_dirichlet_dominates_free():
    for ell, two_s in ((3, 1), (4, 1), (3, 2)):
        spin = SpinMagnitude(two_s)
        betas = [0.5, 2.0, 8.0]
        pinned = chain_free_energies(ell, spin, betas, "dirichlet")
        for f_pin, f_free in zip(pinned, chain_free_energies(ell, spin, betas)):
            assert f_pin >= f_free
            assert f_pin <= 0.0


@pytest.mark.parametrize("ell,two_s", [(2, 1), (4, 1), (6, 2), (9, 1)])
def test_spectral_gap_matches_reference(ell, two_s):
    report = spectral_gap(SpinLattice.chain(ell), SpinMagnitude(two_s))
    assert report.deviation <= 1e-9
    assert report.reference == pytest.approx(
        2 * (two_s / 2) * (1 - math.cos(math.pi / ell)), abs=1e-15
    )


def _oracle_gap(lat, spin):
    """Smallest nonzero eigenvalue of the dense spectrum of every sector."""
    spec = full_spectrum(lat, spin)
    ev = spec.all_eigenvalues
    return float(ev[ev > 1e-10 * max(spec.scale, 1.0)].min())


def test_the_casimir_floor_stops_the_chain_8_gap_at_sector_2():
    # sector 2 (36 states) alone, where the Casimir floor stops the loop;
    # the middle sector has 1107 states
    lat, spin = SpinLattice.chain(8), SpinMagnitude(2)
    report = spectral_gap(lat, spin)
    assert report.sector_dims == (36,) and report.sector == 2
    assert 0.0 < report.residual <= 1e-10
    assert report.gap == pytest.approx(_oracle_gap(lat, spin), abs=1e-10)


@pytest.mark.parametrize(
    "ell,two_s",
    [(ell, 1) for ell in range(2, 10)]
    + [(ell, 2) for ell in range(2, 8)]
    + [(ell, 3) for ell in range(2, 6)],
)
def test_spectral_gap_equals_full_spectrum_gap(ell, two_s):
    lat, spin = SpinLattice.chain(ell), SpinMagnitude(two_s)
    assert spectral_gap(lat, spin).gap == pytest.approx(_oracle_gap(lat, spin), abs=1e-10)


GAP_CHAINS = (
    [(ell, two_s) for two_s in (1, 2) for ell in range(2, 13)]
    + [(ell, 3) for ell in range(2, 8)]
    + [(ell, 4) for ell in range(2, 7)]
)


@pytest.mark.parametrize("ell,two_s", GAP_CHAINS)
def test_spectral_gap_equals_the_middle_sector_gap(ell, two_s):
    lat, spin = SpinLattice.chain(ell), SpinMagnitude(two_s)
    report = spectral_gap(lat, spin)
    assert report.gap == pytest.approx(middle_sector_gap(lat, spin), abs=1e-12)
    assert report.residual <= 1e-10


def _new_energies(upper, lower, atol=1e-9):
    """The multiset difference upper - lower of two ascending spectra,
    lower contained in upper up to `atol`."""
    new, j = [], 0
    for e in upper:
        if j < len(lower) and abs(e - lower[j]) <= atol:
            j += 1
        else:
            new.append(e)
    assert j == len(lower), "sector n - 1 is not contained in sector n"
    return np.array(new)


@pytest.mark.parametrize(
    "ell,two_s",
    [(ell, 1) for ell in range(2, 13)]
    + [(ell, 2) for ell in range(2, 9)]
    + [(ell, 3) for ell in range(2, 7)],
)
def test_every_multiplet_the_gap_skips_lies_above_its_floor_and_the_gap(ell, two_s):
    # sector n holds one highest-weight state per multiplet of total spin
    # J = Sl - n beyond those of sector n - 1
    lat, spin = SpinLattice.chain(ell), SpinMagnitude(two_s)
    report = spectral_gap(lat, spin)
    sectors = full_spectrum(lat, spin).sector_eigenvalues
    s_max = spin.s * ell
    for n in range(report.sector + 1, two_s * ell // 2 + 1):
        j = s_max - n
        floor = (2.0 / ell**3) * (s_max * (s_max + 1.0) - j * (j + 1.0))
        lowest = _new_energies(sectors[n], sectors[n - 1]).min()
        assert lowest >= floor and lowest > report.gap, (n, lowest, floor)


def _self_conjugate(basis):
    return 2 * basis.n == basis.spin.two_s * basis.lattice.nsites


def character_isometries(basis):
    """[(chi, Q)]: one CSR isometry per character of the sector's
    symmetry group, a test-only check that the sector Hamiltonian
    commutes with the chain's mirror and spin-flip symmetries.

    The group elements are row maps found by lookup: the identity, the
    mirror P and, on a self-conjugate sector, the flip F (the rows of
    2S - states) and PF.  A character lists its signs in that order.
    Column a of Q_chi is sum_g chi(g) e_{g(a)}, normalized, for the
    lowest row a of each orbit; a column whose sum vanishes is left out,
    so Q_chi may have no columns.
    """
    rows = np.arange(basis.dim)
    mirror = basis.state_index(basis.states[:, ::-1])
    maps, characters = [rows, mirror], [(1, 1), (1, -1)]
    if _self_conjugate(basis):
        flip = basis.state_index(basis.spin.two_s - basis.states)
        maps += [flip, mirror[flip]]
        characters = [(1, p, f, p * f) for p in (1, -1) for f in (1, -1)]
    maps = np.array(maps)
    reps = rows[maps.min(axis=0) == rows]
    out = []
    for chi in characters:
        m = sp.csr_matrix(
            (np.repeat(chi, len(reps)).astype(float),
             (maps[:, reps].ravel(), np.tile(np.arange(len(reps)), len(maps)))),
            shape=(basis.dim, len(reps)),
        )
        m.eliminate_zeros()
        norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=0)).ravel())
        keep = np.flatnonzero(norms > 0.5)
        out.append((chi, (m[:, keep] @ sp.diags(1.0 / norms[keep])).tocsr()))
    return out


PARITY_CHAINS = [(ell, two_s) for two_s in (1, 2) for ell in range(2, 9)]


@pytest.mark.parametrize("ell,two_s", PARITY_CHAINS)
def test_mirror_map_is_an_involution_and_splits_every_sector(ell, two_s):
    lat, spin = SpinLattice.chain(ell), SpinMagnitude(two_s)
    for n in range(two_s * ell + 1):
        basis = enumerate_sector_basis(lat, spin, n)
        rows = np.arange(basis.dim)
        mirror = basis.state_index(basis.states[:, ::-1])
        assert np.array_equal(mirror[mirror], rows)
        h = assemble_heisenberg(basis).to_dense()
        # the chain Hamiltonian is mirror symmetric entry for entry
        assert np.array_equal(h[np.ix_(mirror, mirror)], h)
        if _self_conjugate(basis):
            # the flip reverses the lexicographic order of a self-conjugate sector
            assert np.array_equal(basis.state_index(two_s - basis.states), rows[::-1])
            # and commutes with H up to the rounding of its sqrt hop amplitudes
            np.testing.assert_allclose(h[::-1, ::-1], h, rtol=0, atol=1e-13)
        isometries = character_isometries(basis)
        assert len(isometries) == (4 if _self_conjugate(basis) else 2)
        q = sp.hstack([q for _, q in isometries]).toarray()
        assert q.shape == (basis.dim, basis.dim)
        assert np.allclose(q.T @ q, np.eye(basis.dim), atol=1e-15)


def lattice_id(value):
    """Test id of a lattice parameter ("chain8", "square3"); pytest's own for the rest."""
    if isinstance(value, SpinLattice):
        return ("chain" if value.dimension == 1 else "square") + str(value.extents[0])
    return None


@pytest.mark.parametrize(
    "lattice,two_s,variant",
    [(SpinLattice.chain(ell), two_s, "dirichlet") for ell, two_s in PARITY_CHAINS]
    + [(SpinLattice.square(side), two_s, "free") for side in (2, 3) for two_s in (1, 2)],
    ids=lattice_id,
)
def test_reversing_the_sites_is_an_involution_and_a_bitwise_symmetry(lattice, two_s, variant):
    # full_spectrum's parity blocks rest on this: the mirror of the pinned
    # chain and the point reflection of the row-major grid
    for basis, h in dense_sectors(lattice, SpinMagnitude(two_s), variant=variant):
        rows = np.arange(basis.dim)
        mirror = basis.state_index(basis.states[:, ::-1])
        assert np.array_equal(mirror[mirror], rows), basis.n
        assert np.array_equal(h[np.ix_(mirror, mirror)], h), basis.n


@pytest.mark.parametrize("ell,two_s", PARITY_CHAINS)
def test_parity_block_spectra_recombine_to_the_sector_spectrum(ell, two_s):
    lat, spin = SpinLattice.chain(ell), SpinMagnitude(two_s)
    for n in range(two_s * ell + 1):
        basis = enumerate_sector_basis(lat, spin, n)
        h = assemble_heisenberg(basis).to_dense()
        qs = [q.toarray() for _, q in character_isometries(basis) if q.shape[1]]
        blocks = [q.T @ h @ q for q in qs]
        spectra = [sla.eigvalsh(block) for block in blocks]
        np.testing.assert_allclose(
            np.sort(np.concatenate(spectra)), sla.eigvalsh(h), rtol=0, atol=1e-12,
        )


def test_spectral_gap_never_builds_the_full_spectrum(monkeypatch):
    from magnonlab import spectra

    def refuse(*args, **kwargs):
        raise AssertionError("full_spectrum called")

    monkeypatch.setattr(spectra, "full_spectrum", refuse)
    for two_s in (1, 2):
        for ell in range(2, 11):
            report = spectral_gap(SpinLattice.chain(ell), SpinMagnitude(two_s))
            assert report.deviation <= 1e-9 and report.residual <= 1e-10


def test_spectral_gap_is_bit_reproducible():
    for ell, two_s in ((8, 2), (11, 1)):
        lat, spin = SpinLattice.chain(ell), SpinMagnitude(two_s)
        first, second = spectral_gap(lat, spin), spectral_gap(lat, spin)
        assert first == second


@pytest.mark.parametrize(
    "spoil,message",
    [
        # a gap vector off by 1e-6 has a residual far above the bound
        (lambda w, x: (w, x + 1e-6 * np.roll(x, 1, axis=0)), "Ritz residual"),
        # a gap off by 1e-3 no longer matches its vector
        pytest.param(lambda w, x: (w + [0.0, 1e-3], x), "Ritz residual",
                     id="shifted-theta-Ritz residual"),
        # a gap at zero is a second zero mode
        (lambda w, x: (w * 0, x), "zero mode"),
        # a lowest eigenvalue 1e-6 off zero is not the maximal-spin zero mode
        pytest.param(lambda w, x: (w + [1e-6, 0.0], x), "is not a zero mode",
                     id="shifted-zero-mode"),
    ],
)
def test_spoiled_eigh_result_raises(monkeypatch, spoil, message):
    from magnonlab import spectra

    exact = spectra.sla.eigh

    def spoiled(*args, **kwargs):
        return spoil(*exact(*args, **kwargs))

    monkeypatch.setattr(spectra.sla, "eigh", spoiled)
    with pytest.raises(RuntimeError, match=message):
        spectral_gap(SpinLattice.chain(8), SpinMagnitude(2))


class _CutChain(SpinLattice):
    """Chain without its middle bond: two decoupled halves, still
    reflection-symmetric."""

    def bonds(self):
        middle = self.nsites // 2 - 1
        return [bond for bond in super().bonds() if bond != (middle, middle + 1)]


def test_a_second_zero_mode_in_the_blocks_raises():
    # each half of chain 8 at 2S=2 is a spin-4 ground multiplet; coupled to
    # total spin T=0..8 they give n+1 zero modes in sector n, so the
    # maximal-spin vector is a zero mode but not the only one; the floor
    # of the whole chain ends the loop at sector 2, with three zero modes
    lattice = _CutChain(1, (8,))
    basis = enumerate_sector_basis(lattice, SpinMagnitude(2), 8)
    assert np.linalg.norm(assemble_heisenberg(basis).to_csr() @ ground_multiplet_vector(basis)) < 1e-12
    with pytest.raises(RuntimeError, match="second zero mode"):
        spectral_gap(lattice, SpinMagnitude(2))


def test_spectral_gap_calls_eigh_once_per_sector_and_never_assembles_csr(monkeypatch):
    from magnonlab import operators, spectra

    dims = []
    exact = spectra.sla.eigh

    def recorded(a, *args, **kwargs):
        dims.append(len(a))
        return exact(a, *args, **kwargs)

    def refuse(self):
        raise AssertionError("HermitianOperator.to_csr called")

    monkeypatch.setattr(spectra.sla, "eigh", recorded)
    monkeypatch.setattr(operators.HermitianOperator, "to_csr", refuse)
    for ell, two_s in ((8, 2), (12, 1), (4, 1)):
        spectral_gap(SpinLattice.chain(ell), SpinMagnitude(two_s))
    # sector 2, where the Casimir floor stops the first two chains and
    # which is the middle sector of chain 4 at 2S=1
    assert dims == [36, 66, 6]
    # chains 2 and 4 at 2S=1 run to their middle sector
    for ell in (2, 4):
        assert spectral_gap(SpinLattice.chain(ell), SpinMagnitude(1)).sector == ell // 2


def test_spectral_gap_holds_one_small_sector_at_a_time():
    # chain 12 at 2S=2 stops at sector 2 (78 states); its middle sector of
    # 73,789 states is never built
    import tracemalloc

    tracemalloc.start()
    try:
        report = spectral_gap(SpinLattice.chain(12), SpinMagnitude(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.deviation <= 1e-9 and report.residual <= 1e-10
    assert peak <= 1e6


@pytest.mark.parametrize("ell", [2, 3, 4])
@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_degeneracy_law(ell, two_s):
    spec = full_spectrum(SpinLattice.chain(ell), SpinMagnitude(two_s))
    assert spec.zero_mode_count() == two_s * ell + 1


def test_subadditivity_certificates():
    assert check_subadditivity(4, SpinMagnitude(1), [2.0])[0].passed
    assert check_subadditivity(6, SpinMagnitude(1), [8.0])[0].passed
    assert check_subadditivity(4, SpinMagnitude(2), [1.0])[0].passed


def test_doubling_monotonicity():
    # equal split of the subadditivity: f_{2l} >= f_l
    for ell, two_s, beta in ((2, 1, 2.0), (3, 1, 4.0), (2, 2, 1.0)):
        spin = SpinMagnitude(two_s)
        (f_double,) = chain_free_energies(2 * ell, spin, [beta])
        (f_single,) = chain_free_energies(ell, spin, [beta])
        assert f_double >= f_single - 1e-12


def test_localization_certificate():
    (cert,) = check_localization_bound(7, 2, SpinMagnitude(1), [4.0])
    assert cert.passed
    with pytest.raises(ValueError, match="k\\*\\(ell\\+1\\)\\+1"):
        check_localization_bound(8, 2, SpinMagnitude(1), [4.0])
    with pytest.raises(ValueError, match=">= 2"):
        check_localization_bound(5, 1, SpinMagnitude(1), [4.0])


def test_localization_cross_check_both_temperatures():
    for cert in check_localization_bound(6, 4, SpinMagnitude(1), [2.0, 8.0]):
        assert cert.passed
        assert cert.extras["slack_cross"] >= -cert.tolerance


@pytest.mark.parametrize(
    "check",
    [
        lambda betas: check_subadditivity(5, SpinMagnitude(1), betas),
        lambda betas: check_subadditivity(4, SpinMagnitude(2), betas),
        lambda betas: check_localization_bound(7, 2, SpinMagnitude(1), betas),
        lambda betas: check_localization_bound(7, 2, SpinMagnitude(2), betas),
    ],
    ids=["subadditivity-s1/2", "subadditivity-s1", "localization-s1/2", "localization-s1"],
)
def test_beta_list_certificates_equal_one_beta_calls(check):
    betas = [1.0, 2.0, 8.0]
    together = [cert.to_json() for cert in check(betas)]
    assert together == [check([beta])[0].to_json() for beta in betas]


def test_default_suites_build_each_chain_spectrum_once_per_check_call(monkeypatch):
    from magnonlab import spectra
    from magnonlab.checks import run_check

    calls = []
    exact = spectra.full_spectrum

    def counted(lattice, spin, variant="free"):
        calls.append((lattice.nsites, spin.two_s, variant))
        return exact(lattice, spin, variant)

    monkeypatch.setattr(spectra, "full_spectrum", counted)
    run_check("subadditivity")
    run_check("localization")
    # subadditivity: 22 chains over 5 (L, 2S) cells; localization: 3 per (L, l, 2S) cell
    assert len(calls) == 34


def test_sector_energy_spin_pairs():
    basis = enumerate_sector_basis(SpinLattice.chain(3), SpinMagnitude(1), 1)
    energies, spins = sector_energy_spin_pairs(
        basis,
        assemble_heisenberg(basis).to_dense(),
        sla.eigh(assemble_total_spin_squared(basis).to_dense()),
    )
    ts = sorted(spins.tolist())
    assert ts == [0.5, 0.5, 1.5]
    zero = energies[spins == 1.5]
    assert len(zero) == 1 and abs(zero[0]) < 1e-12


def test_numpy_blas_scope_restores_the_thread_count_also_on_an_exception():
    blas = spectra._numpy_openblas()
    if blas is None:
        pytest.skip("no OpenBLAS bundled in the numpy wheel")
    get, _ = blas
    before = get()
    with spectra._numpy_blas_one_thread():
        assert get() == 1
    assert get() == before
    with pytest.raises(ZeroDivisionError):
        with spectra._numpy_blas_one_thread():
            1 / 0
    assert get() == before


def test_numpy_blas_scope_without_the_library_does_nothing(monkeypatch):
    basis = enumerate_sector_basis(SpinLattice.chain(6), SpinMagnitude(1), 3)
    h = assemble_heisenberg(basis).to_dense()
    casimir = sla.eigh(assemble_total_spin_squared(basis).to_dense())
    scoped = sector_energy_spin_pairs(basis, h, casimir)
    blas = spectra._numpy_openblas()
    monkeypatch.setattr(spectra, "_numpy_openblas", lambda: None)
    if blas is not None:
        before = blas[0]()
        with spectra._numpy_blas_one_thread():
            assert blas[0]() == before
    for unscoped, exact in zip(sector_energy_spin_pairs(basis, h, casimir), scoped):
        assert unscoped.tobytes() == exact.tobytes()


# (l, 2S, beta) -> value, gamma_trace, trial_trace_ratio from the earlier
# evaluation over uncapped Fock sectors, truncated at relative tail 1e-10
GIBBS_PINNED = {
    (2, 1, 4.0): (-0.017832683447504077, 1.0, 0.9892904510221744),
    (3, 2, 6.0): (-0.001668262675813224, 1.0, 0.9998258937273268),
    (2, 3, 2.0): (-0.012785340999537514, 1.0, 0.999548728854603),
}


def test_gibbs_variational_upper_examples():
    for (ell, two_s, beta), (value, trace, ratio) in GIBBS_PINNED.items():
        got, cert, details = gibbs_variational_upper(ell, SpinMagnitude(two_s), beta)
        assert cert.passed and cert.slack > 0
        assert got == pytest.approx(value, abs=1e-12)
        assert details["gamma_trace"] == pytest.approx(trace, abs=1e-12)
        assert details["trial_trace_ratio"] == pytest.approx(ratio, rel=1e-10)
        assert got >= details["f_dirichlet"]
        # the trial value sits above the plain free-boson pressure
        assert details["gap_to_free_boson"] > 0


def test_free_boson_propagator_matches_uncapped_exponential():
    # reference: e^{-beta T} on the uncapped sector, restricted to the hard core
    checked = 0
    for ell in (2, 3, 4):
        for two_s in (1, 2, 3):
            spin = SpinMagnitude(two_s)
            for n in range(two_s * ell + 1):
                if sector_dimension(ell, n, n) > 500:
                    continue
                lattice = SpinLattice.chain(ell)
                free = enumerate_sector_basis(lattice, spin, n, capped=False)
                capped = enumerate_sector_basis(lattice, spin, n)
                rows = free.state_index(capped.states)
                w, u = sla.eigh(assemble_free_boson_t(free).to_dense())
                for beta in (0.5, 4.0):
                    exact = ((u * np.exp(-beta * w)) @ u.T)[np.ix_(rows, rows)]
                    assert np.abs(free_boson_propagator(capped, beta) - exact).max() <= 1e-12
                checked += 1
    assert checked == 63


def test_gibbs_variational_upper_refuses_before_enumerating(monkeypatch):
    from magnonlab import spectra

    def refuse(*args, **kwargs):
        raise AssertionError("basis enumerated before the size check")

    monkeypatch.setattr(spectra, "enumerate_sector_basis", refuse)
    with pytest.raises(ResourceLimitError, match=r"^sector n=7 has dimension 6435 > 6000$"):
        gibbs_variational_upper(15, SpinMagnitude(1), 2.0)


def test_gibbs_variational_upper_six_sites():
    value, cert, details = gibbs_variational_upper(6, SpinMagnitude(1), 8.0)
    assert cert.passed and value >= details["f_dirichlet"]
    assert details["gamma_trace"] == pytest.approx(1.0, abs=1e-12)


def _forbid_dense_solves(monkeypatch):
    from magnonlab import spectra

    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(spectra.sla, "eigvalsh", refuse)


def test_full_spectrum_refuses_before_any_dense_solve(monkeypatch):
    _forbid_dense_solves(monkeypatch)
    with pytest.raises(ResourceLimitError, match=r"sector n=\d+ has dimension \d+ > 6000"):
        full_spectrum(SpinLattice.chain(12), SpinMagnitude(2))


@pytest.mark.parametrize(
    "variant,assemble", [("free", assemble_heisenberg), ("dirichlet", assemble_dirichlet_heisenberg)]
)
def test_dense_sectors_yield_every_sector_in_order(variant, assemble):
    lattice, spin = SpinLattice.chain(4), SpinMagnitude(2)
    built = list(dense_sectors(lattice, spin, variant=variant))
    assert [basis.n for basis, _ in built] == list(range(9))
    for basis, h in built:
        reference = enumerate_sector_basis(lattice, spin, basis.n)
        assert np.array_equal(basis.states, reference.states)
        assert np.array_equal(h, assemble(reference).to_dense())
    ((basis, _),) = dense_sectors(lattice, spin, [3])
    assert basis.n == 3


@pytest.mark.parametrize("variant", ["free", "dirichlet"])
def test_every_dense_sector_block_is_bitwise_symmetric(variant):
    # full_spectrum hands LAPACK h.T in place of h: bit-identical only if h == h.T exactly
    cases = [
        (SpinLattice.chain(ell), two_s)
        for two_s, longest in ((1, 14), (2, 8), (3, 6))
        for ell in range(2, longest + 1)
    ]
    if variant == "free":
        cases += [(SpinLattice.square(2), 1), (SpinLattice.square(2), 2), (SpinLattice.square(3), 1)]
    for lattice, two_s in cases:
        for basis, h in dense_sectors(lattice, SpinMagnitude(two_s), variant=variant):
            assert np.array_equal(h, h.T), (lattice.nsites, two_s, basis.n)


def test_every_casimir_block_is_bitwise_symmetric():
    # the Casimir's callers hand LAPACK its transpose in place of it
    for two_s, longest in ((1, 12), (2, 7), (3, 5)):
        for ell in range(2, longest + 1):
            for basis, _ in dense_sectors(SpinLattice.chain(ell), SpinMagnitude(two_s)):
                s2 = assemble_total_spin_squared(basis).to_dense()
                assert np.array_equal(s2, s2.T), (ell, two_s, basis.n)


# lattices solved whole: chain 12 sits at the gate (middle sector 924
# states), and chain 7 is the longest S=1 chain below it (393 states)
@pytest.mark.parametrize(
    "lattice,two_s,variant",
    [
        (SpinLattice.chain(12), 1, "free"),
        (SpinLattice.chain(12), 1, "dirichlet"),
        (SpinLattice.chain(7), 2, "free"),
        (SpinLattice.chain(7), 2, "dirichlet"),
        (SpinLattice.square(3), 1, "free"),
    ],
    ids=["chain12-free", "chain12-dirichlet", "chain7-2S2-free", "chain7-2S2-dirichlet", "square3"],
)
def test_in_place_sector_solve_equals_the_copying_solve_bit_for_bit(lattice, two_s, variant):
    spin = SpinMagnitude(two_s)
    spectrum = full_spectrum(lattice, spin, variant)
    sectors = dense_sectors(lattice, spin, variant=variant)
    for n, (eigs, (_, h)) in enumerate(zip(spectrum.sector_eigenvalues, sectors, strict=True)):
        assert np.array_equal(eigs, np.sort(sla.eigvalsh(h))), n
        assert np.all(np.diff(eigs) >= 0), n


def test_full_spectrum_holds_one_sector_and_solves_it_in_place():
    import tracemalloc

    largest_sector_bytes = 8 * 924**2  # chain 12, S=1/2, n=6
    tracemalloc.start()
    try:
        full_spectrum(SpinLattice.chain(12), SpinMagnitude(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a LAPACK copy of the block, or the previous block kept alive, each add 1.0
    assert peak <= 1.25 * largest_sector_bytes


def test_full_spectrum_holds_one_parity_block_above_the_gate():
    import tracemalloc

    # chain 13, S=1/2, n=8: 636 two-state orbits + 15 palindromes; sectors
    # 2..7 are paired, and no half of a free chain 14 block exceeds 518
    even_block_bytes = 8 * 651**2
    tracemalloc.start()
    try:
        # the pinned chain: the free one takes highest-weight blocks instead
        full_spectrum(SpinLattice.chain(13), SpinMagnitude(1), "dirichlet")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block, LAPACK's finiteness mask (1/8 of it) and the sector's
    # triplets read 1.36; the odd block kept alive adds 0.95, and one dense
    # copy of the whole 1716-state sector alone is 6.9
    assert peak <= 1.5 * even_block_bytes


def _whole_sector_spectra(lattice, spin, variant):
    return [np.sort(sla.eigvalsh(h)) for _, h in dense_sectors(lattice, spin, variant=variant)]


SPLIT_CASES = [
    (SpinLattice.chain(ell), two_s, variant)
    for two_s, longest in ((1, 10), (2, 8), (3, 6))
    for ell in range(2, longest + 1)
    for variant in ("free", "dirichlet")
] + [(SpinLattice.square(2), 1, "free"), (SpinLattice.square(2), 2, "free"),
     (SpinLattice.square(3), 1, "free")]
# pinned S=1/2 chain of SPLIT_CASES -> the sectors m that `full_spectrum`
# takes from free chain ell + 1's highest-weight block m once the gate is
# down: every m >= 2 with 2m < ell + 2
HALF_SPIN_PAIRED = {ell: range(2, (ell + 3) // 2) for ell in range(2, 11)}


def _half_sizes(lattice, spin, n, highest_weight):
    """(even, odd) sizes of sector n's reflection-parity blocks, or of the
    halves of its highest-weight block: the reversal's trace on a sector
    is its palindrome count, and a block holds sector n less sector n - 1."""
    size, fixed = sector_dimension(lattice.nsites, n, spin.two_s), palindrome_count(lattice, spin, n)
    if highest_weight:
        size -= sector_dimension(lattice.nsites, n - 1, spin.two_s)
        fixed -= palindrome_count(lattice, spin, n - 1)
    return (size + fixed) // 2, (size - fixed) // 2


@pytest.mark.parametrize("lattice,two_s,variant", SPLIT_CASES, ids=lattice_id)
def test_parity_blocks_match_the_whole_sector_solve(monkeypatch, lattice, two_s, variant):
    spin = SpinMagnitude(two_s)
    whole = _whole_sector_spectra(lattice, spin, variant)
    sizes = _record_solve_sizes(monkeypatch)
    monkeypatch.setattr(spectra, "WHOLE_SECTOR_MAX", 0)
    split = full_spectrum(lattice, spin, variant).sector_eigenvalues
    ell, top = lattice.nsites, two_s * lattice.nsites
    free_chain = variant == "free" and lattice.dimension == 1
    paired = HALF_SPIN_PAIRED[ell] if (variant, two_s) == ("dirichlet", 1) else ()
    # the free chain solves the two halves of its highest-weight blocks
    # j = 0..N/2, of total spin S*sites - j, once each, and every sector
    # is a prefix of their spectra; a paired sector of a pinned S=1/2
    # chain solves the halves of free chain ell + 1's highest-weight block,
    # after every other sector, from the middle down; elsewhere an even and
    # an odd block per sector; a half or block with no rows is not solved
    order = sorted(range(top + 1), key=lambda n: (n in paired, -n if n in paired else n))
    expected = []
    for n in order:
        if n in paired:
            expected += _half_sizes(SpinLattice.chain(ell + 1), spin, n, highest_weight=True)
        elif not free_chain:
            expected += _half_sizes(lattice, spin, n, highest_weight=False)
        elif 2 * n <= top:
            expected += _half_sizes(lattice, spin, n, highest_weight=True)
    assert sizes == [size for size in expected if size]
    for n, (eigs, reference) in enumerate(zip(split, whole, strict=True)):
        assert np.all(np.diff(eigs) >= 0), n
        np.testing.assert_allclose(eigs, reference, rtol=0, atol=1e-12, err_msg=f"n={n}")


def _pinned_sector_spectrum(ell, two_s, n):
    """Whole-sector eigenvalues of pinned chain `ell`'s sector n, none past the top."""
    if n > two_s * ell:
        return np.zeros(0)
    ((_, h),) = dense_sectors(SpinLattice.chain(ell), SpinMagnitude(two_s), [n], "dirichlet")
    return sla.eigvalsh(h, overwrite_a=True)


def _pinned_parity_spectrum(ell, n):
    """Pinned chain `ell`'s sector n at S=1/2, none past the top, from its
    two parity blocks, which match the whole solve to 1e-12
    (`test_parity_blocks_match_the_whole_sector_solve`)."""
    if n > ell:
        return np.zeros(0)
    op = spectra._sector_operator(SpinLattice.chain(ell), SpinMagnitude(1), n, "dirichlet")
    mirror = op.basis.state_index(op.basis.states[:, ::-1])
    blocks = spectra._parity_blocks(op.rows, op.cols, op.vals, op.dim, mirror, 1)
    return np.sort(np.concatenate([sla.eigvalsh(dense_block(*block)) for block in blocks]))


def _highest_weight_spectrum(ell, two_s, n):
    return sla.eigvalsh(dense_block(*spectra._highest_weight_block(ell, two_s, n)[:4]))


@pytest.mark.parametrize("ell", range(2, 15))
def test_a_pinned_half_spin_sector_is_a_free_highest_weight_block_and_a_pinned_sector(ell):
    # what `full_spectrum` rests on, observed and unproven: pinned chain
    # ell's sector m, 2m < ell + 2, is as a multiset the union of free
    # chain ell + 1's highest-weight block m and pinned sector ell + 2 - m
    # (none for m < 2); chain 14 checks its paired sectors 2..7, each
    # pinned sector from its parity blocks and each free block whole
    pinned = _pinned_parity_spectrum if ell == 14 else functools.partial(_pinned_sector_spectrum, two_s=1)
    for m in range(2, 8) if ell == 14 else range((ell + 3) // 2):
        block = _highest_weight_spectrum(ell + 1, 1, m)
        union = np.concatenate([block, pinned(ell, n=ell + 2 - m)])
        np.testing.assert_allclose(np.sort(union), pinned(ell, n=m), rtol=0, atol=1e-12, err_msg=f"m={m}")


def test_at_spin_one_a_free_highest_weight_block_is_not_in_the_pinned_sector():
    # why `full_spectrum` pairs sectors at S=1/2 only: free chain 5's
    # highest-weight block 2 at S=1 has as many states as pinned chain 4's
    # sector 2, so containment would be equality, and the two spectra
    # differ (3 twice against 4 twice)
    block, sector = _highest_weight_spectrum(5, 2, 2), _pinned_sector_spectrum(4, 2, 2)
    assert len(block) == len(sector) == 10
    assert not np.allclose(block, sector, rtol=0, atol=1e-8)


def _record_solve_sizes(monkeypatch):
    """A list that gets the size of every block `full_spectrum` solves."""
    sizes = []
    exact = spectra.sla.eigvalsh

    def recorded(a, **kwargs):
        sizes.append(len(a))
        return exact(a, **kwargs)

    monkeypatch.setattr(spectra.sla, "eigvalsh", recorded)
    return sizes


def test_chain_14_solves_no_block_above_1001_states(monkeypatch):
    import tracemalloc

    largest_block_bytes = 8 * 518**2  # the even half of the spin-2 highest-weight block
    sizes = _record_solve_sizes(monkeypatch)
    tracemalloc.start()
    try:
        full_spectrum(SpinLattice.chain(14), SpinMagnitude(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 3432-state middle sector splits the lattice: sector n = 0..7
    # solves the even and odd halves of the highest-weight block of spin
    # 7 - n (1, 13, 77, 273, 637, 1001, 1001, 429 states; sector 0 has no
    # odd half) once, and every sector is a prefix of their spectra
    assert sizes == [1, 6, 7, 42, 35, 133, 140, 329, 308, 490, 511, 518, 483, 197, 232]
    # the half, LAPACK's finiteness mask and the block's triplets read
    # 1.43; neither the 3432-state middle sector nor any of its symmetry
    # blocks, nor a whole highest-weight block (3.7), is built dense
    assert peak <= 1.5 * largest_block_bytes


FLIP_CASES = (
    [(SpinLattice.chain(ell), 1) for ell in range(2, 11)]
    + [(SpinLattice.chain(ell), 2) for ell in range(2, 9)]
    + [(SpinLattice.square(side), two_s) for side in (2, 3) for two_s in (1, 2)]
)


@pytest.mark.parametrize("lattice,two_s", FLIP_CASES, ids=lattice_id)
def test_the_spin_flip_maps_each_free_sector_onto_its_conjugate(lattice, two_s):
    # the conjugate sector is the flipped one, in reversed order, so a
    # free sector and its conjugate have one spectrum
    spin = SpinMagnitude(two_s)
    top = two_s * lattice.nsites
    for n in range(top // 2 + 1):
        (basis, h), *pair = dense_sectors(lattice, spin, sorted({n, top - n}))
        conjugate, h_conjugate = pair[0] if pair else (basis, h)
        assert np.array_equal(conjugate.states, (two_s - basis.states)[::-1]), n
        if two_s == 1:
            assert np.array_equal(h_conjugate, h[::-1, ::-1]), n
        else:  # up to the rounding of the sqrt hop amplitudes
            assert np.abs(h_conjugate - h[::-1, ::-1]).max() <= 1e-15, n
        del h, h_conjugate


@pytest.mark.parametrize("two_s", [1, 2])
@pytest.mark.parametrize("ell", range(3, 9))
def test_the_pinned_chain_has_no_spin_flip_symmetry(ell, two_s):
    spectrum = full_spectrum(SpinLattice.chain(ell), SpinMagnitude(two_s), "dirichlet")
    eigs = spectrum.sector_eigenvalues
    top = two_s * ell
    for n in range((top + 1) // 2):
        assert not np.allclose(eigs[n], eigs[top - n], rtol=0, atol=1e-8), n


# the chain-13 case ids keep the solve counts of the lattice that split
# only its sectors above the gate (10 whole + 2 * 4 and 10 + 6 + 1), so
# the case names stay stable across that change
@pytest.mark.parametrize(
    "lattice,two_s,variant,largest,calls",
    [
        pytest.param(SpinLattice.chain(13), 1, "dirichlet", 651,
                     [1, 7, 6, 651, 636, 365, 350, 146, 140, 42, 36, 7, 6, 1,
                      197, 232, 518, 483, 490, 511, 329, 308, 133, 140, 42, 35], id="dirichlet-18"),
        pytest.param(SpinLattice.chain(13), 1, "free", 286, [1, 6, 6, 35, 30, 104, 104, 219, 210, 286, 286, 217, 212],
                     id="free-17"),
        pytest.param(SpinLattice.chain(8), 2, "dirichlet", 563,
                     [1, 4, 4, 20, 16, 56, 56, 138, 128, 252, 252, 400, 384, 508, 508, 563, 544,
                      508, 508, 400, 384, 252, 252, 138, 128, 56, 56, 20, 16, 4, 4, 1], id="chain8-2S2-dirichlet"),
        pytest.param(SpinLattice.chain(8), 2, "free", 148,
                     [1, 3, 4, 16, 12, 36, 40, 82, 72, 114, 124, 148, 132, 108, 124, 55, 36], id="chain8-2S2-free"),
    ],
)
def test_chain_13_solve_counts_and_no_shared_sector_arrays(
    monkeypatch, lattice, two_s, variant, largest, calls
):
    # the middle sector (1716 states at 2S = 1, 1107 at 2S = 2) splits
    # the lattice, and every block is solved as an even and an odd half,
    # one with no rows left out: the pinned chain solves every sector as
    # its two parity blocks, (states +- palindromes) / 2, sectors 0 and
    # 2S*sites having no odd one, except that at 2S = 1 its sectors 2..7
    # come last, from the middle down, as the halves of free chain 14's
    # highest-weight blocks 7..2 (429, 1001, 1001, 637, 273, 77 states);
    # the free chain solves for each j <= N/2, N = 2S*sites, the halves
    # of its highest-weight block of spin N/2 - j (1, 12, 65, 208, 429,
    # 572, 429 states on chain 13 and 1, 7, 28, 76, 154, 238, 280, 232,
    # 91 on chain 8 at S=1) once, and every sector is a prefix of their
    # spectra
    top = two_s * lattice.nsites
    solved = _record_solve_sizes(monkeypatch)
    spectrum = full_spectrum(lattice, SpinMagnitude(two_s), variant)
    assert solved == calls
    assert max(solved) == largest
    eigs = spectrum.sector_eigenvalues
    for n in range(top // 2 + 1, top + 1):
        assert eigs[n] is not eigs[top - n]


@pytest.mark.parametrize(
    "lattice,two_s",
    [(SpinLattice.chain(ell), 1) for ell in range(2, 7)]
    + [(SpinLattice.chain(ell), 2) for ell in range(2, 5)]
    + [(SpinLattice.chain(ell), 3) for ell in range(2, 4)]
    + [(SpinLattice.square(2), 1), (SpinLattice.square(2), 2)],
    ids=lattice_id,
)
def test_parity_blocks_match_the_tensor_product_oracle(monkeypatch, lattice, two_s):
    spin = SpinMagnitude(two_s)
    oracle = np.sort(sla.eigvalsh(tensor_product_heisenberg(lattice, spin)))
    monkeypatch.setattr(spectra, "WHOLE_SECTOR_MAX", 0)
    eigs = np.sort(full_spectrum(lattice, spin).all_eigenvalues)
    assert np.abs(eigs - oracle).max() <= 1e-10


@pytest.mark.parametrize(
    "lattice,two_s,variant",
    [
        pytest.param(SpinLattice.chain(13), 1, "free", id="free"),
        pytest.param(SpinLattice.chain(13), 1, "dirichlet", id="dirichlet"),
        pytest.param(SpinLattice.chain(8), 2, "free", id="chain8-2S2-free"),
        pytest.param(SpinLattice.chain(8), 2, "dirichlet", id="chain8-2S2-dirichlet"),
    ],
)
def test_chain_13_splits_every_sector_by_its_large_ones(lattice, two_s, variant):
    # chain 13's sectors 5..8 (1287 and 1716 states) and chain 8's middle
    # sector at S=1 (1107 states) lie above the gate, so every sector is
    # split, each within rounding of its whole solve
    spin = SpinMagnitude(two_s)
    spectrum = full_spectrum(lattice, spin, variant)
    whole = _whole_sector_spectra(lattice, spin, variant)
    assert max(map(len, whole)) > spectra.WHOLE_SECTOR_MAX
    for n, (eigs, reference) in enumerate(zip(spectrum.sector_eigenvalues, whole, strict=True)):
        np.testing.assert_allclose(eigs, reference, rtol=0, atol=1e-12, err_msg=f"n={n}")


def test_the_gate_is_the_largest_lattice_a_committed_output_solves_whole(monkeypatch, tmp_path):
    # every lattice `full_spectrum` builds for the README `free-energy`
    # commands and the default-grid suites, whose bytes bench/references.json
    # pins (it is only read): the largest middle sector among them is the gate
    import json
    from pathlib import Path

    from magnonlab.checks import CHECKS
    from magnonlab.cli import main

    middles = []
    exact = spectra.full_spectrum

    def recorded(lattice, spin, variant="free"):
        top = spin.two_s * lattice.nsites
        middles.append(sector_dimension(lattice.nsites, top // 2, spin.two_s))
        return exact(lattice, spin, variant)

    monkeypatch.setattr(spectra, "full_spectrum", recorded)
    monkeypatch.chdir(tmp_path)
    references = json.loads((Path(__file__).resolve().parents[1] / "bench" / "references.json").read_text())
    commands = [command for command in references["cli-readme"] if command.startswith("free-energy")]
    assert commands
    for command in commands:
        assert main(command.split()) == 0, command
    for run in CHECKS.values():
        run(grid="default")
    assert max(middles) == spectra.WHOLE_SECTOR_MAX


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_sector_block_raises_from_full_spectrum(monkeypatch, bad):
    exact = spectra._sector_operator

    def spoiled(lattice, spin, n, variant):
        op = exact(lattice, spin, n, variant)
        if n == 2:  # chain 4's 6-state sector, solved whole
            op.vals[0] = bad
        return op

    monkeypatch.setattr(spectra, "_sector_operator", spoiled)
    with pytest.raises(ValueError, match="infs or NaNs"):
        full_spectrum(SpinLattice.chain(4), SpinMagnitude(1))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_parity_block_raises_from_full_spectrum(monkeypatch, bad):
    exact = spectra._sector_operator

    def spoiled(lattice, spin, n, variant):
        op = exact(lattice, spin, n, variant)
        if n == 8:  # pinned chain 13's 1287-state sector, solved as parity blocks
            op.vals[0] = bad
        return op

    monkeypatch.setattr(spectra, "_sector_operator", spoiled)
    with pytest.raises(ValueError, match="infs or NaNs"):
        full_spectrum(SpinLattice.chain(13), SpinMagnitude(1), "dirichlet")


def test_a_wrong_highest_weight_block_fails_the_paired_sector_guard(monkeypatch):
    exact = spectra._highest_weight_block

    def shifted(nsites, two_s, n):
        rows, cols, vals, dim, mirror, sign = exact(nsites, two_s, n)
        assert rows[0] == cols[0]  # a diagonal value
        vals = vals.copy()
        vals[0] += 1e-6
        return rows, cols, vals, dim, mirror, sign

    monkeypatch.setattr(spectra, "_highest_weight_block", shifted)
    # pinned chain 13's sector 7, from free chain 14's highest-weight block
    with pytest.raises(RuntimeError, match="sector 7:"):
        full_spectrum(SpinLattice.chain(13), SpinMagnitude(1), "dirichlet")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_paired_sector_raises_from_full_spectrum(monkeypatch, bad):
    exact = spectra._sector_operator

    def spoiled(lattice, spin, n, variant):
        op = exact(lattice, spin, n, variant)
        if n == 7:  # pinned chain 13's sector that only the guard assembles
            op.vals[0] = bad
        return op

    monkeypatch.setattr(spectra, "_sector_operator", spoiled)
    with pytest.raises(RuntimeError, match="sector 7:"):
        full_spectrum(SpinLattice.chain(13), SpinMagnitude(1), "dirichlet")


def _forbid_enumeration(monkeypatch):
    from magnonlab import spectra

    class Enumerated(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Enumerated("sector enumerated")

    monkeypatch.setattr(spectra, "enumerate_sector_basis", refuse)
    return Enumerated


def test_dense_sectors_refuse_at_the_call_before_enumerating(monkeypatch):
    _forbid_enumeration(monkeypatch)
    with pytest.raises(ResourceLimitError, match=r"^sector n=7 has dimension 6435 > 6000$"):
        dense_sectors(SpinLattice.chain(15), SpinMagnitude(1), [0, 7])


def test_spectral_gap_refuses_a_middle_sector_above_the_cap(monkeypatch):
    # chain 4 at S=1/2 starts at its middle sector n=2 (6 states), which a
    # cap of 5 refuses before enumerating any sector
    from magnonlab import spectra

    enumerated = []
    exact = spectra.enumerate_sector_basis

    def recorded(lattice, spin, n, **kwargs):
        enumerated.append(n)
        return exact(lattice, spin, n, **kwargs)

    monkeypatch.setattr(spectra, "enumerate_sector_basis", recorded)
    monkeypatch.setattr(spectra, "DENSE_SECTOR_CAP", 5)
    with pytest.raises(ResourceLimitError, match=r"^sector n=2 has dimension 6 > 5$"):
        spectral_gap(SpinLattice.chain(4), SpinMagnitude(1))
    assert enumerated == []


def test_spectral_gap_refuses_sector_two_above_the_dense_cap(monkeypatch):
    # chain 110 at S=1/2 is the longest whose sector 2 (5995 states) fits
    _forbid_enumeration(monkeypatch)
    with pytest.raises(ResourceLimitError, match=r"^sector n=2 has dimension 6105 > 6000$"):
        spectral_gap(SpinLattice.chain(111), SpinMagnitude(1))


def test_spectral_gap_solves_a_chain_whose_middle_sector_is_above_the_cap():
    # chain 24 at S=1/2: the middle sector n=12 has 2,704,156 states, far
    # above DENSE_SECTOR_CAP, and the Casimir floor stops the loop at sector 2
    report = spectral_gap(SpinLattice.chain(24), SpinMagnitude(1))
    assert sector_dimension(24, 12, 1) > 1 << 20
    assert report.sector == 2 and report.sector_dims == (276,)
    assert report.deviation <= 1e-9 and report.residual <= 1e-10


def test_every_gap_sweep_chain_stops_below_its_middle_sector():
    # a fall-back to the middle sector (73,789 states at l=12, 2S=2) would
    # only slow the benchmark; here it fails
    for two_s in (1, 2):
        for ell in range(8, 13):
            report = spectral_gap(SpinLattice.chain(ell), SpinMagnitude(two_s))
            last = sector_dimension(ell, report.sector, two_s)
            assert report.sector <= 3, (ell, two_s)
            assert last < sector_dimension(ell, two_s * ell // 2, two_s), (ell, two_s)


# the loop reaches enumeration of sector 2 (78 and 105 states) whatever the
# size of the middle sector (73,789 and 616,227 states)
@pytest.mark.parametrize("ell,two_s", [(12, 2), (14, 2)])
def test_spectral_gap_admits_middle_sectors_below_the_cap(monkeypatch, ell, two_s):
    enumerated = _forbid_enumeration(monkeypatch)
    with pytest.raises(enumerated):
        spectral_gap(SpinLattice.chain(ell), SpinMagnitude(two_s))


def test_every_gap_sweep_chain_meets_its_reference_and_residual_bound():
    # every gap-sweep chain, l = 2..12 at 2S = 1, 2; sector 2 holds every
    # multiplet of sector 1, so a chain whose middle sector is 2 or above
    # starts there and never solves sector 1
    for two_s in (1, 2):
        for ell in range(2, 13):
            report = spectral_gap(SpinLattice.chain(ell), SpinMagnitude(two_s))
            assert report.deviation <= 1e-9 and report.residual <= 1e-10, (ell, two_s)
            if two_s * ell // 2 >= 2:
                assert report.sector_dims[0] == sector_dimension(ell, 2, two_s), (ell, two_s)


def test_nan_free_energy_fails_subadditivity_and_localization(monkeypatch):
    from magnonlab import spectra

    exact = spectra.free_energy

    def nan_at_two(spectrum, beta):
        free_two = spectrum.lattice.nsites == 2 and spectrum.variant == "free"
        return math.nan if free_two else exact(spectrum, beta)

    monkeypatch.setattr(spectra, "free_energy", nan_at_two)
    spin = SpinMagnitude(1)
    (sub,) = check_subadditivity(4, spin, [2.0])
    (loc,) = check_localization_bound(7, 2, spin, [2.0])
    for cert in (sub, loc):
        assert math.isnan(cert.slack) and not cert.passed
