import math

import numpy as np
import pytest
import scipy.linalg as sla

from magnonlab.basis import SpinLattice, SpinMagnitude, enumerate_sector_basis
from magnonlab.boundlab import (
    CoordinateState,
    coordinate_collapse_matrix,
    gibbs_random_state,
    haar_random_state,
    neumann_boson_laplacian,
    rng_for,
    two_particle_density,
    verify_casimir_lower_bound,
    verify_density_bounds,
    verify_halfspin_quadratic_form_equality,
    verify_laplacian_lower_bound,
    verify_low_energy_truncation,
    verify_php_leq_t,
    verify_vnorm_lower_bound,
)
from magnonlab.checks import run_check
from magnonlab.magnongas import compute_budget
from magnonlab.operators import assemble_heisenberg
from oracles import build_coordinate_map_v


def test_php_certificates_examples():
    assert verify_php_leq_t(3, SpinMagnitude(1), 2).passed
    assert verify_php_leq_t(2, SpinMagnitude(2), 3).passed
    cert0 = verify_php_leq_t(4, SpinMagnitude(1), 0)
    assert cert0.passed and abs(cert0.slack) < 1e-15


def test_php_grid():
    for ell in (2, 3, 4):
        for two_s in (1, 2):
            for n in range(0, 5):
                assert verify_php_leq_t(ell, SpinMagnitude(two_s), n).passed


def test_php_holds_at_most_two_dense_copies_of_its_sector():
    # the difference is formed in T's storage and H^D is freed before
    # eigvalsh copies it
    import tracemalloc

    dim = 1716  # uncapped n=6 sector of the pinned chain 8
    tracemalloc.start()
    try:
        cert = verify_php_leq_t(8, SpinMagnitude(1), 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.passed
    assert peak <= 2.25 * 8 * dim**2


def test_casimir_certificates():
    for ell, two_s in ((4, 1), (3, 2), (2, 1)):
        cert = verify_casimir_lower_bound(ell, SpinMagnitude(two_s))
        assert cert.passed
        assert cert.extras["scalar_chain_slack"] >= -cert.tolerance


def test_casimir_nan_energy_fails_the_certificate(monkeypatch):
    from magnonlab import boundlab

    exact = boundlab.sector_energy_spin_pairs

    def nan_in_sector_one(basis, h, s2):
        energies, spins = exact(basis, h, s2)
        if basis.n == 1:
            energies = np.full_like(energies, math.nan)
        return energies, spins

    monkeypatch.setattr(boundlab, "sector_energy_spin_pairs", nan_in_sector_one)
    cert = verify_casimir_lower_bound(3, SpinMagnitude(1))
    assert math.isnan(cert.extras["scalar_chain_slack"])
    assert math.isnan(cert.slack) and not cert.passed


@pytest.mark.parametrize("ell,two_s", [(4, 1), (3, 2)])
def test_casimir_enumerates_each_sector_once(monkeypatch, ell, two_s):
    from magnonlab import boundlab, spectra

    calls = []
    exact = spectra.enumerate_sector_basis

    def counted(lattice, spin, n, capped=True):
        calls.append(n)
        return exact(lattice, spin, n, capped)

    for module in (boundlab, spectra):
        monkeypatch.setattr(module, "enumerate_sector_basis", counted)
    assert verify_casimir_lower_bound(ell, SpinMagnitude(two_s)).passed
    assert calls == list(range(two_s * ell + 1))


def test_casimir_assembles_each_sector_casimir_once(monkeypatch):
    from magnonlab import boundlab, spectra

    calls = []
    exact = boundlab.assemble_total_spin_squared

    def counted(basis):
        calls.append(basis.n)
        return exact(basis)

    for module in (boundlab, spectra):
        monkeypatch.setattr(module, "assemble_total_spin_squared", counted, raising=False)
    assert verify_casimir_lower_bound(4, SpinMagnitude(1)).passed
    assert calls == [0, 1, 2, 3, 4]


def test_vnorm_suite_builds_one_collapse_matrix_per_cell(monkeypatch):
    from magnonlab import boundlab, checks

    calls = []
    exact = boundlab.coordinate_collapse_matrix

    def counted(basis):
        calls.append((basis.lattice.nsites, basis.spin.two_s, basis.n))
        return exact(basis)

    for module in (boundlab, checks):
        monkeypatch.setattr(module, "coordinate_collapse_matrix", counted, raising=False)
    certs = run_check("vnorm")
    assert len(certs) == 8 and all(cert.passed for cert in certs)
    assert len(calls) == 8


def test_worst_of_samples_keeps_a_nan_slack(monkeypatch):
    from magnonlab import checks

    exact = checks.verify_vnorm_lower_bound
    calls = []

    def nan_on_second_sample(state, vmat):
        cert = exact(state, vmat)
        calls.append(cert)
        if len(calls) == 2:
            cert.slack = math.nan
        return cert

    monkeypatch.setattr(checks, "verify_vnorm_lower_bound", nan_on_second_sample)
    (cert,) = checks.run_check("vnorm", ells=[4], ns=[2], spins=[1])
    assert math.isnan(cert.slack) and not cert.passed


def test_casimir_two_site_equality_watch():
    # triplet: energy 0 against floor (2/8)(2 - S_tot^2=2) = 0, an equality
    cert = verify_casimir_lower_bound(2, SpinMagnitude(1))
    assert cert.passed and cert.slack >= -1e-12
    assert abs(cert.extras["matrix_slack"]) < 1e-10


def test_coordinate_map_examples():
    table = build_coordinate_map_v(5, 3)
    assert table[(1, 2, 3)] == (1, 1, 1)
    assert table[(1, 3, 5)] == (1, 2, 3)
    table42 = build_coordinate_map_v(4, 2)
    assert len(set(table42.values())) == 6  # nondecreasing pairs in [1,3]^2
    # ordered-image count: all of [1,3]^2 is covered once permutations are added
    ordered = set()
    for img in table42.values():
        ordered.add(img)
        ordered.add((img[1], img[0]))
    assert ordered == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)}
    with pytest.raises(ValueError, match="n <= ell"):
        build_coordinate_map_v(3, 4)


def test_collapse_matrix_structure():
    basis = enumerate_sector_basis(SpinLattice.chain(4), SpinMagnitude(1), 2)
    vmat, targets = coordinate_collapse_matrix(basis)
    assert vmat.shape == (targets.shape[0], basis.dim)
    # every source column has exactly one entry; every target row at least one
    assert np.all(np.asarray((vmat != 0).sum(axis=0)).ravel() == 1)
    assert np.all(np.asarray((vmat != 0).sum(axis=1)).ravel() >= 1)
    # norms never increase under the collapse
    rng = rng_for(3, 11)
    for _ in range(50):
        psi = rng.standard_normal(basis.dim)
        psi /= np.linalg.norm(psi)
        assert np.linalg.norm(vmat @ psi) <= 1.0 + 1e-12


def test_collapse_matrix_drops_multiply_occupied_sources():
    basis = enumerate_sector_basis(SpinLattice.chain(3), SpinMagnitude(2), 2)
    vmat, _ = coordinate_collapse_matrix(basis)
    col = basis.state_index((2, 0, 0))
    assert vmat[:, col].nnz == 0
    col11 = basis.state_index((1, 1, 0))
    assert vmat[:, col11].nnz == 1


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_collapse_matrix_matches_coordinate_table(ell, two_s):
    # reference: the dict collapse table, weights 1/sqrt(prod_a m_a!)
    for n in range(ell + 1):
        basis = enumerate_sector_basis(SpinLattice.chain(ell), SpinMagnitude(two_s), n)
        vmat, targets = coordinate_collapse_matrix(basis)
        target_row = {tuple(t): i for i, t in enumerate(targets.tolist())}
        expected = np.zeros((len(targets), basis.dim))
        for xs, image in build_coordinate_map_v(ell, n).items():
            occ = np.zeros(ell, dtype=int)
            occ[np.array(xs, dtype=int) - 1] = 1
            counts = np.bincount(np.array(image, dtype=int) - 1, minlength=ell - n + 1)
            prod = math.prod(math.factorial(m) for m in counts)
            expected[target_row[tuple(counts.tolist())], basis.state_index(occ)] = (
                1.0 / math.sqrt(prod)
            )
        got = vmat.toarray()
        assert np.array_equal(got != 0, expected != 0)
        np.testing.assert_allclose(got, expected, rtol=4 * np.finfo(float).eps, atol=0)


def test_neumann_laplacian_small_cases():
    # single particle: path-graph Laplacian spectrum 2(1 - cos(pi m / M))
    lap = neumann_boson_laplacian(4, 1)
    expected = sorted(2 * (1 - math.cos(math.pi * m / 4)) for m in range(4))
    assert np.allclose(np.sort(sla.eigvalsh(lap)), expected, atol=1e-12)
    # one-site box: nothing to hop, zero operator
    assert neumann_boson_laplacian(1, 3).shape == (1, 1)
    assert abs(neumann_boson_laplacian(1, 3)[0, 0]) == 0.0
    # two free particles: eigenvalues are sums of one-particle modes
    lap2 = neumann_boson_laplacian(3, 2)
    one = [2 * (1 - math.cos(math.pi * m / 3)) for m in range(3)]
    sums = sorted(one[i] + one[j] for i in range(3) for j in range(i, 3))
    assert np.allclose(np.sort(sla.eigvalsh(lap2)), sums, atol=1e-12)


@pytest.mark.parametrize("two_s", [1, 2])
@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_laplacian_lower_bound_grid(ell, two_s):
    for n in range(0, ell + 1):
        assert verify_laplacian_lower_bound(ell, SpinMagnitude(two_s), n).passed


def test_laplacian_bound_is_equality_for_one_magnon():
    cert = verify_laplacian_lower_bound(5, SpinMagnitude(2), 1)
    assert cert.passed and abs(cert.slack) < 1e-12


def test_laplacian_bound_holds_at_most_four_dense_copies_of_its_sector():
    # H, the dense collapse matrix and the two collapsed products; the
    # difference is formed in H's storage and eigvalsh copies it only once
    # the collapsed Laplacian is freed
    import tracemalloc

    dim = 1287  # n=5 sector of chain 13 at S=1/2, collapsed onto a box of 9 sites
    tracemalloc.start()
    try:
        cert = verify_laplacian_lower_bound(13, SpinMagnitude(1), 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.passed
    assert peak <= 4.5 * 8 * dim**2


def test_laplacian_bound_full_box():
    # n = l: the target box is a point and the bound reduces to H >= 0
    assert verify_laplacian_lower_bound(3, SpinMagnitude(2), 3).passed


def test_psd_verifier_resource_guards():
    from magnonlab.spectra import ResourceLimitError

    with pytest.raises(ResourceLimitError, match="dimension"):
        verify_php_leq_t(10, SpinMagnitude(1), 10)
    with pytest.raises(ResourceLimitError, match="dimension"):
        verify_casimir_lower_bound(16, SpinMagnitude(2))


@pytest.mark.parametrize(
    "run",
    [
        lambda: verify_laplacian_lower_bound(20, SpinMagnitude(1), 10),
        lambda: verify_low_energy_truncation(20, SpinMagnitude(1), [4.0]),
        lambda: verify_casimir_lower_bound(20, SpinMagnitude(1)),
        lambda: run_check("density", ells=[20], spins=[1], ns=[10]),
        lambda: verify_halfspin_quadratic_form_equality(20, 10),
        lambda: run_check("subadditivity", ells=[20], spins=[1], betas=[1.0]),
        lambda: verify_php_leq_t(8, SpinMagnitude(1), 8),
    ],
    ids=["laplacian", "truncation", "casimir", "density", "halfspin", "subadditivity", "php"],
)
def test_dense_verifiers_refuse_an_oversized_sector_before_enumerating(monkeypatch, run):
    from magnonlab import boundlab, checks, spectra
    from magnonlab.spectra import ResourceLimitError

    def refuse(*args, **kwargs):
        raise AssertionError("sector enumerated before the size check")

    for module in (boundlab, checks, spectra):
        monkeypatch.setattr(module, "enumerate_sector_basis", refuse)
    with pytest.raises(ResourceLimitError, match=r"sector n=\d+ has dimension \d+ > 6000"):
        run()


def test_psd_certificates_spin_three_halves():
    for ell, n in ((3, 2), (4, 3), (2, 2)):
        assert verify_laplacian_lower_bound(ell, SpinMagnitude(3), n).passed
        assert verify_php_leq_t(ell, SpinMagnitude(3), n).passed
    assert verify_casimir_lower_bound(3, SpinMagnitude(3)).passed


def test_halfspin_quadratic_form_equality():
    assert verify_halfspin_quadratic_form_equality(4, 2, samples=100).passed
    assert verify_halfspin_quadratic_form_equality(5, 1, samples=20).passed
    assert verify_halfspin_quadratic_form_equality(4, 4, samples=20).passed


def test_two_particle_density_examples():
    basis = enumerate_sector_basis(SpinLattice.chain(4), SpinMagnitude(1), 2)
    state = CoordinateState.from_occupation(basis, (1, 1, 0, 0))
    rho = two_particle_density(state)
    assert rho[0, 1] == 1.0 and rho[1, 0] == 1.0
    assert np.sum(np.abs(rho)) == pytest.approx(2.0)
    assert rho.sum() == pytest.approx(2 * 1)  # n(n-1)

    basis2 = enumerate_sector_basis(SpinLattice.chain(3), SpinMagnitude(2), 2)
    state2 = CoordinateState.from_occupation(basis2, (2, 0, 0))
    rho2 = two_particle_density(state2)
    assert rho2[0, 0] == pytest.approx(2.0)


def test_two_particle_density_random_invariants():
    basis = enumerate_sector_basis(SpinLattice.chain(5), SpinMagnitude(2), 3)
    rng = rng_for(17, 4)
    for _ in range(25):
        rho = two_particle_density(haar_random_state(basis, rng))
        assert np.allclose(rho, rho.T, atol=1e-12)
        assert rho.min() >= -1e-12
        assert rho.sum() == pytest.approx(3 * 2, abs=1e-10)


def test_vnorm_certificates():
    basis = enumerate_sector_basis(SpinLattice.chain(4), SpinMagnitude(1), 2)
    vmat, _ = coordinate_collapse_matrix(basis)
    # spread-out pair: collapse is isometric, right side <= 1
    far = CoordinateState.from_occupation(basis, (1, 0, 0, 1))
    cert = verify_vnorm_lower_bound(far, vmat)
    assert cert.passed and cert.extras["vnorm_sq"] == pytest.approx(1.0)
    # adjacent pair: right side collapses to 0
    near = CoordinateState.from_occupation(basis, (1, 1, 0, 0))
    cert2 = verify_vnorm_lower_bound(near, vmat)
    assert cert2.passed and cert2.extras["rhs"] == pytest.approx(0.0, abs=1e-12)


def test_vnorm_random_states():
    basis = enumerate_sector_basis(SpinLattice.chain(5), SpinMagnitude(2), 3)
    vmat, _ = coordinate_collapse_matrix(basis)
    rng = rng_for(23, 9)
    for _ in range(100):
        assert verify_vnorm_lower_bound(haar_random_state(basis, rng), vmat).passed


def test_density_bounds_ground_state():
    # the zero mode has <H> = 0: bounds reduce to 4 n(n-1)/l
    basis = enumerate_sector_basis(SpinLattice.chain(6), SpinMagnitude(1), 3)
    h = assemble_heisenberg(basis).to_dense()
    w, u = sla.eigh(h)
    ground = CoordinateState(basis, u[:, 0])
    c_off, c_diag = verify_density_bounds(ground, h)
    assert c_off.passed and c_diag.passed
    assert c_off.extras["lhs"] <= 4.0 / 6 * 3 * 2 + 1e-10


def test_density_bounds_halfspin_diag_vanishes():
    basis = enumerate_sector_basis(SpinLattice.chain(5), SpinMagnitude(1), 2)
    rng = rng_for(29, 1)
    state = haar_random_state(basis, rng)
    _, c_diag = verify_density_bounds(state, assemble_heisenberg(basis).to_dense())
    assert c_diag.extras["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert c_diag.passed


def test_density_bounds_random_states():
    basis = enumerate_sector_basis(SpinLattice.chain(6), SpinMagnitude(2), 3)
    h = assemble_heisenberg(basis).to_dense()
    eigh_pair = sla.eigh(h)
    haar_rng = rng_for(31, 0)
    gibbs_rng = rng_for(31, 1)
    for _ in range(100):
        for state in (
            haar_random_state(basis, haar_rng),
            gibbs_random_state(basis, eigh_pair, 2.0, gibbs_rng),
        ):
            c_off, c_diag = verify_density_bounds(state, h)
            assert c_off.passed and c_diag.passed


def test_truncation_certificates():
    assert verify_low_energy_truncation(4, SpinMagnitude(1), [8.0])[0].passed
    assert verify_low_energy_truncation(3, SpinMagnitude(2), [4.0])[0].passed
    (cert,) = verify_low_energy_truncation(3, SpinMagnitude(1), [64.0])
    # very low temperature: the right side approaches 1 + (zero modes)
    assert cert.passed


@pytest.mark.parametrize("ell,two_s", [(3, 1), (4, 1), (3, 2)])
def test_truncation_beta_list_equals_one_beta_calls(ell, two_s):
    betas = [4.0, 8.0, 64.0]
    together = verify_low_energy_truncation(ell, SpinMagnitude(two_s), betas)
    assert [cert.to_json() for cert in together] == [
        verify_low_energy_truncation(ell, SpinMagnitude(two_s), [beta])[0].to_json()
        for beta in betas
    ]


def test_budget_preliminary_path():
    budget = compute_budget(34, 20000.0, SpinMagnitude(1))
    assert budget.e0 > 0
    assert budget.n0 == pytest.approx(budget.e0 * 34**2 / 1.0, rel=1e-12)
    assert budget.delta == pytest.approx(
        (2 + 9 / math.sqrt(8)) * budget.e0**2 * 34**3 / 0.25, rel=1e-12
    )
    # l0 at the budget's own beta: sqrt(4 * 1e4 / ln 1e4) ~ 65.9
    assert budget.ell0 == pytest.approx(65.9, abs=0.1)
    assert budget.informative
    assert budget.implied_c is not None and budget.implied_c > 0


def test_budget_precondition():
    with pytest.raises(ValueError, match="l0/2"):
        compute_budget(3, 20000.0, SpinMagnitude(1))
    with pytest.raises(ValueError, match="beta\\*S > 1"):
        compute_budget(10, 1.0, SpinMagnitude(1))
    with pytest.raises(ValueError, match="e0_source"):
        compute_budget(10, 100.0, SpinMagnitude(1), e0_source="bogus")


def test_budget_exact_ed_needs_a_spin_magnitude():
    # a bare s would be diagonalized at some nearby 2S while n0 and delta use s
    with pytest.raises(ValueError, match="SpinMagnitude"):
        compute_budget(6, 8.0, 0.7, e0_source="exact-ed")


def test_budget_exact_ed_path():
    budget = compute_budget(6, 8.0, SpinMagnitude(1), e0_source="exact-ed")
    assert budget.e0 >= 0
    # E0 = -l f_l(beta/2) is capped by the infinite-temperature entropy
    assert budget.e0 <= 6 * math.log(2.0) / 4.0 + 1e-12
    # desk-scale boxes are far below the working regime: flagged vacuous
    assert not budget.informative


def test_budget_e0_monotone_in_beta():
    spin = SpinMagnitude(1)
    e0s = [
        compute_budget(5, beta, spin, e0_source="exact-ed").e0
        for beta in (4.0, 8.0, 16.0, 32.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(e0s, e0s[1:]))
    assert all(e >= 0 for e in e0s)


def test_rng_streams_are_order_independent():
    a = rng_for(7, 1, 2, 3).standard_normal(4)
    rng_for(7, 9, 9, 9).standard_normal(10)
    b = rng_for(7, 1, 2, 3).standard_normal(4)
    assert np.allclose(a, b)
