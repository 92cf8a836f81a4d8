import math

import numpy as np
import pytest

from magnonlab.basis import SpinLattice, SpinMagnitude
from magnonlab.spectra import (
    ResourceLimitError,
    chain_free_energy,
    check_localization_bound,
    check_subadditivity,
    dirichlet_free_energy,
    fock_tail_cutoff,
    free_energy,
    free_energy_from_eigenvalues,
    full_spectrum,
    gibbs_variational_upper,
    localization_cross_check,
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
        full_spectrum(SpinLattice.chain(8), SpinMagnitude(1), dim_cap=100)


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


def test_sparse_gap_path_agrees_with_dense():
    # force the sparse middle-sector path on a size the dense path can check
    lat, spin = SpinLattice.chain(8), SpinMagnitude(1)
    dense = spectral_gap(lat, spin)
    from magnonlab.spectra import _middle_sector_gap

    sparse_gap = _middle_sector_gap(lat, spin)
    assert sparse_gap == pytest.approx(dense.gap, abs=1e-10)


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
        assert localization_cross_check(4, SpinMagnitude(1), beta).passed


def test_sector_energy_spin_pairs():
    pairs = sector_energy_spin_pairs(SpinLattice.chain(3), SpinMagnitude(1), 1)
    ts = sorted(t for _, t in pairs)
    assert ts == [0.5, 0.5, 1.5]
    zero = [e for e, t in pairs if t == 1.5]
    assert len(zero) == 1 and abs(zero[0]) < 1e-12


def test_gibbs_variational_upper_examples():
    value, cert, details = gibbs_variational_upper(2, SpinMagnitude(1), 4.0)
    assert cert.passed and cert.slack > 0
    assert details["gamma_trace"] == pytest.approx(1.0, abs=1e-12)
    assert value >= details["f_dirichlet"]
    # the trial value sits above the plain free-boson pressure
    assert details["gap_to_free_boson"] > 0

    value3, cert3, _ = gibbs_variational_upper(3, SpinMagnitude(2), 6.0)
    assert cert3.passed
    # half-integer spin above 1/2
    _, cert4, _ = gibbs_variational_upper(2, SpinMagnitude(3), 2.0)
    assert cert4.passed


def test_fock_tail_cutoff_certifies_tail():
    # brute force: compare against an explicit long summation of the
    # free-boson partition function per particle number
    from magnonlab.basis import enumerate_sector_basis
    from magnonlab.operators import assemble_free_boson_t
    import scipy.linalg as sla

    ell, spin, beta = 2, SpinMagnitude(1), 3.0
    cutoff = fock_tail_cutoff(ell, spin, beta, rel_tol=1e-10)
    z = []
    for n in range(cutoff + 25):
        basis = enumerate_sector_basis(SpinLattice.chain(ell), spin, n, capped=False)
        t = assemble_free_boson_t(basis).to_dense()
        z.append(np.exp(-beta * sla.eigvalsh(t)).sum())
    tail = sum(z[cutoff + 1 :])
    assert tail <= 1e-10 * sum(z)


def test_gibbs_resource_error():
    with pytest.raises(ResourceLimitError, match="budget"):
        gibbs_variational_upper(6, SpinMagnitude(1), 2.0, max_states=10)


def _forbid_dense_solves(monkeypatch):
    from magnonlab import spectra

    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(spectra.sla, "eigvalsh", refuse)


def test_full_spectrum_refuses_before_any_dense_solve(monkeypatch):
    _forbid_dense_solves(monkeypatch)
    with pytest.raises(ResourceLimitError, match=r"sector n=\d+ has dimension \d+ > 6000"):
        full_spectrum(SpinLattice.chain(12), SpinMagnitude(2))


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
