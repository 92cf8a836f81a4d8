import math

import numpy as np
import pytest

import scipy.linalg as sla
import scipy.sparse as sp

from magnonlab.basis import SpinLattice, SpinMagnitude, enumerate_sector_basis, sector_dimension
from magnonlab.operators import (
    assemble_dirichlet_heisenberg,
    assemble_free_boson_t,
    assemble_heisenberg,
)
from magnonlab.spectra import (
    ResourceLimitError,
    chain_free_energy,
    check_localization_bound,
    check_subadditivity,
    dense_sectors,
    dirichlet_free_energy,
    free_boson_propagator,
    free_energy,
    free_energy_from_eigenvalues,
    full_spectrum,
    gibbs_variational_upper,
    parity_isometries,
    sector_energy_spin_pairs,
    spectral_gap,
)


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
    assert chain_free_energy(1, SpinMagnitude(2), 2.0) == pytest.approx(
        -math.log(3.0) / 2.0, abs=1e-15
    )


def test_dirichlet_dominates_free():
    for ell, two_s in ((3, 1), (4, 1), (3, 2)):
        spin = SpinMagnitude(two_s)
        for beta in (0.5, 2.0, 8.0):
            assert dirichlet_free_energy(ell, spin, beta) >= chain_free_energy(
                ell, spin, beta
            )
            assert dirichlet_free_energy(ell, spin, beta) <= 0.0


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


def test_sparse_gap_path_agrees_with_dense():
    # middle sector of dim 1107, parity blocks of 563 and 544: the Lanczos
    # path, on a size the dense spectrum of every sector can check
    lat, spin = SpinLattice.chain(8), SpinMagnitude(2)
    report = spectral_gap(lat, spin)
    assert report.solver == "lanczos"
    assert report.block_dims == (563, 544)
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


PARITY_CHAINS = [(ell, two_s) for two_s in (1, 2) for ell in range(2, 9)]


@pytest.mark.parametrize("ell,two_s", PARITY_CHAINS)
def test_mirror_map_is_an_involution_and_splits_every_sector(ell, two_s):
    lat, spin = SpinLattice.chain(ell), SpinMagnitude(two_s)
    for n in range(two_s * ell + 1):
        basis = enumerate_sector_basis(lat, spin, n)
        mirror = basis.state_index(basis.states[:, ::-1])
        assert np.array_equal(mirror[mirror], np.arange(basis.dim))
        palindromes = int(np.sum(mirror == np.arange(basis.dim)))
        q_even, q_odd = parity_isometries(basis)
        assert q_even.shape[1] + q_odd.shape[1] == basis.dim
        assert q_odd.shape[1] == (basis.dim - palindromes) // 2
        q = sp.hstack([q_even, q_odd]).toarray()
        assert np.allclose(q.T @ q, np.eye(basis.dim), atol=1e-15)


@pytest.mark.parametrize("ell,two_s", PARITY_CHAINS)
def test_parity_block_spectra_recombine_to_the_sector_spectrum(ell, two_s):
    lat, spin = SpinLattice.chain(ell), SpinMagnitude(two_s)
    for n in range(two_s * ell + 1):
        basis = enumerate_sector_basis(lat, spin, n)
        h = assemble_heisenberg(basis).to_csr()
        blocks = [sla.eigvalsh((q.T @ h @ q).toarray()) for q in parity_isometries(basis)]
        np.testing.assert_allclose(
            np.sort(np.concatenate(blocks)), sla.eigvalsh(h.toarray()), rtol=0, atol=1e-10
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


def test_lanczos_gap_is_bit_reproducible():
    lat, spin = SpinLattice.chain(8), SpinMagnitude(2)
    first, second = spectral_gap(lat, spin), spectral_gap(lat, spin)
    assert first.solver == "lanczos"
    assert first.gap == second.gap and first.residual == second.residual


@pytest.mark.parametrize(
    "spoil,message",
    [
        # a Ritz vector off by 1e-6 has a residual far above the bound
        (lambda theta, vecs: (theta, vecs + 1e-6 * np.roll(vecs, 1, axis=0)), "Ritz residual"),
        # a lower Ritz value shifted off zero is no zero mode
        (lambda theta, vecs: (theta + 1e-3, vecs), "zero mode"),
    ],
)
def test_spoiled_lanczos_result_raises(monkeypatch, spoil, message):
    from magnonlab import spectra

    exact = spectra.spla.eigsh

    def spoiled(*args, **kwargs):
        return spoil(*exact(*args, **kwargs))

    monkeypatch.setattr(spectra.spla, "eigsh", spoiled)
    with pytest.raises(RuntimeError, match=message):
        spectral_gap(SpinLattice.chain(8), SpinMagnitude(2))


@pytest.mark.parametrize("ell", [2, 3, 4])
@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_degeneracy_law(ell, two_s):
    spec = full_spectrum(SpinLattice.chain(ell), SpinMagnitude(two_s))
    assert spec.zero_mode_count() == two_s * ell + 1


def test_subadditivity_certificates():
    assert check_subadditivity(4, SpinMagnitude(1), 2.0).passed
    assert check_subadditivity(6, SpinMagnitude(1), 8.0).passed
    assert check_subadditivity(4, SpinMagnitude(2), 1.0).passed


def test_doubling_monotonicity():
    # equal split of the subadditivity: f_{2l} >= f_l
    for ell, two_s, beta in ((2, 1, 2.0), (3, 1, 4.0), (2, 2, 1.0)):
        spin = SpinMagnitude(two_s)
        assert chain_free_energy(2 * ell, spin, beta) >= chain_free_energy(
            ell, spin, beta
        ) - 1e-12


def test_localization_certificate():
    cert = check_localization_bound(7, 2, SpinMagnitude(1), 4.0)
    assert cert.passed
    with pytest.raises(ValueError, match="k\\*\\(ell\\+1\\)\\+1"):
        check_localization_bound(8, 2, SpinMagnitude(1), 4.0)
    with pytest.raises(ValueError, match=">= 2"):
        check_localization_bound(5, 1, SpinMagnitude(1), 4.0)


def test_localization_cross_check_both_temperatures():
    for beta in (2.0, 8.0):
        cert = check_localization_bound(6, 4, SpinMagnitude(1), beta)
        assert cert.passed
        assert cert.extras["slack_cross"] >= -cert.tolerance


def test_sector_energy_spin_pairs():
    basis = enumerate_sector_basis(SpinLattice.chain(3), SpinMagnitude(1), 1)
    pairs = sector_energy_spin_pairs(basis, assemble_heisenberg(basis).to_dense())
    ts = sorted(t for _, t in pairs)
    assert ts == [0.5, 0.5, 1.5]
    zero = [e for e, t in pairs if t == 1.5]
    assert len(zero) == 1 and abs(zero[0]) < 1e-12


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
    _forbid_enumeration(monkeypatch)
    with pytest.raises(ResourceLimitError,
                       match=r"^sector n=12 has dimension 2704156 > 1048576$"):
        spectral_gap(SpinLattice.chain(24), SpinMagnitude(1))


@pytest.mark.parametrize("ell,two_s", [(12, 2), (14, 2)])  # 73,789 and 616,227 states
def test_spectral_gap_admits_middle_sectors_below_the_cap(monkeypatch, ell, two_s):
    enumerated = _forbid_enumeration(monkeypatch)
    with pytest.raises(enumerated):
        spectral_gap(SpinLattice.chain(ell), SpinMagnitude(two_s))


def test_large_middle_sector_gap_goes_straight_to_sparse(monkeypatch):
    _forbid_dense_solves(monkeypatch)
    report = spectral_gap(SpinLattice.chain(10), SpinMagnitude(2))
    assert report.deviation <= 1e-9


def test_nan_free_energy_fails_subadditivity_and_localization(monkeypatch):
    from magnonlab import spectra

    exact = spectra.chain_free_energy

    def nan_at_two(ell, spin, beta, variant="free"):
        return math.nan if ell == 2 and variant == "free" else exact(ell, spin, beta, variant)

    monkeypatch.setattr(spectra, "chain_free_energy", nan_at_two)
    spin = SpinMagnitude(1)
    sub = check_subadditivity(4, spin, 2.0)
    loc = check_localization_bound(7, 2, spin, 2.0)
    for cert in (sub, loc):
        assert math.isnan(cert.slack) and not cert.passed
