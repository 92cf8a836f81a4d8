"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Exact small-system oracles, certified operator inequalities, and
convergence-trend checks on the closed-form magnon quantities.  Every
tolerance is pinned here; run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from magnonlab.basis import SpinLattice, SpinMagnitude, enumerate_sector_basis
from magnonlab.boundlab import (
    coordinate_collapse_matrix,
    gibbs_cdf,
    gibbs_random_state,
    haar_random_state,
    rng_for,
    verify_casimir_lower_bound,
    verify_density_bounds,
    verify_halfspin_quadratic_form_equality,
    verify_laplacian_lower_bound,
    verify_low_energy_truncation,
    verify_php_leq_t,
    verify_vnorm_lower_bound,
)
from magnonlab.checks import run_check
from magnonlab.magnongas import (
    free_boson_integral,
    leading_term,
    lower_envelope,
    upper_envelope,
)
from magnonlab.operators import assemble_heisenberg
from magnonlab.spectra import free_energy, full_spectrum, spectral_gap
from oracles import continuum_constants, tensor_product_heisenberg

SEED = 20260811
UPPER_SCALE = 0.5  # box-size prefactors pinned for the desk-scale grid
LOWER_SCALE = 0.3


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_oracle_equivalence():
    worst = 0.0
    for ell in range(2, 7):
        lat, spin = SpinLattice.chain(ell), SpinMagnitude(1)
        oracle = np.sort(sla.eigvalsh(tensor_product_heisenberg(lat, spin)))
        sector = np.sort(
            np.concatenate(
                [
                    sla.eigvalsh(
                        assemble_heisenberg(
                            enumerate_sector_basis(lat, spin, n)
                        ).to_dense()
                    )
                    for n in range(ell + 1)
                ]
            )
        )
        worst = max(worst, float(np.abs(oracle - sector).max()))
    report(1, worst <= 1e-10,
           f"sector vs tensor-product spectra, S=1/2, l=2..6: max dev {worst:.2e}")


def test_criterion_02_closed_form_free_energy():
    spectrum = full_spectrum(SpinLattice.chain(2), SpinMagnitude(1))
    f = free_energy(spectrum, 1.0)
    target = -0.5 * math.log(3.0 + math.exp(-1.0))
    report(2, abs(f - target) <= 1e-12,
           f"f_2(beta=1, S=1/2) = {f:.15f} vs -ln(3+1/e)/2 (dev {abs(f-target):.1e})")


def test_criterion_03_spectral_gap():
    worst = 0.0
    for two_s, ells in ((1, range(2, 25)), (2, range(2, 17))):
        for ell in ells:
            rep = spectral_gap(SpinLattice.chain(ell), SpinMagnitude(two_s))
            worst = max(worst, rep.deviation)
    report(3, worst <= 1e-9,
           f"gap vs 2S(1-cos(pi/l)) on l=2..24 at 2S=1, l=2..16 at 2S=2: "
           f"max dev {worst:.2e}")


def test_criterion_04_projected_hopping_dominance():
    certs = []
    for ell in range(2, 6):
        for two_s in (1, 2, 3):
            for n in range(0, 9):
                certs.append(verify_php_leq_t(ell, SpinMagnitude(two_s), n))
    bad = [c for c in certs if not c.passed]
    report(4, not bad,
           f"{len(certs)} projected-hopping certificates, min slack "
           f"{min(c.slack for c in certs):.2e}")


def test_criterion_05_casimir_energy_floor():
    certs = [verify_casimir_lower_bound(ell, SpinMagnitude(1)) for ell in range(2, 11)]
    certs += [verify_casimir_lower_bound(ell, SpinMagnitude(2)) for ell in range(2, 7)]
    bad = [c for c in certs if not c.passed]
    report(5, not bad,
           f"{len(certs)} Casimir-floor certificates, min slack "
           f"{min(c.slack for c in certs):.2e}")


def test_criterion_06_coordinate_laplacian_floor():
    certs = []
    equalities = []
    for ell in range(2, 7):
        for two_s in (1, 2):
            for n in range(0, ell + 1):
                certs.append(verify_laplacian_lower_bound(ell, SpinMagnitude(two_s), n))
        for n in range(1, ell + 1):
            equalities.append(
                verify_halfspin_quadratic_form_equality(ell, n, samples=100, seed=SEED)
            )
    bad = [c for c in certs + equalities if not c.passed]
    report(6, not bad,
           f"{len(certs)} collapse-bound + {len(equalities)} half-spin form "
           f"certificates all pass")


def test_criterion_07_pair_density_property_suite():
    violations = 0
    total = 0
    for ell in (4, 5, 6):
        for n in (2, 3):
            for two_s in (1, 2):
                basis = enumerate_sector_basis(
                    SpinLattice.chain(ell), SpinMagnitude(two_s), n
                )
                h = assemble_heisenberg(basis).to_dense()
                energies, vectors = sla.eigh(h)
                cdf = gibbs_cdf(energies, 2.0)
                collapse, _ = coordinate_collapse_matrix(basis)
                haar_rng = rng_for(SEED, 7, ell, n, two_s, 0)
                gibbs_rng = rng_for(SEED, 7, ell, n, two_s, 1)
                states = [haar_random_state(basis, haar_rng) for _ in range(100)]
                states += [
                    gibbs_random_state(basis, vectors, cdf, gibbs_rng) for _ in range(100)
                ]
                for state in states:
                    total += 1
                    c_off, c_diag = verify_density_bounds(state, h)
                    c_norm = verify_vnorm_lower_bound(state, collapse)
                    if not (c_off.passed and c_diag.passed and c_norm.passed):
                        violations += 1
    report(7, violations == 0,
           f"{total} random states (Haar+Gibbs) x 3 bounds: {violations} violations")


def test_criterion_08_continuum_constants():
    c = continuum_constants()
    ok = abs(c.c1 - c.c1_quadrature) <= 1e-10 and c.c2 == -math.pi / 24
    details = [f"c1 quad-vs-series dev {abs(c.c1 - c.c1_quadrature):.1e}"]
    for x, tol in ((1e4, 0.02), (1e6, 0.002)):
        beta, s = x / 0.5, 0.5
        r1 = beta**1.5 * math.sqrt(s) * free_boson_integral(beta, s, 1) / c.c1
        r2 = beta**2 * s * free_boson_integral(beta, s, 2) / c.c2
        ok = ok and abs(r1 - 1) < tol and abs(r2 - 1) < tol
        details.append(f"x={x:g}: 1d {r1:.6f}, 2d {r2:.6f} (tol {tol})")
    report(8, ok, "; ".join(details))


def test_criterion_09_envelope_sandwich():
    s = 0.5
    grid = (1e4, 1e6, 1e8)
    ups = [upper_envelope(x / s, s, 1, scale=UPPER_SCALE) for x in grid]
    lows = [lower_envelope(x / s, s, scale=LOWER_SCALE) for x in grid]
    ok = all(lo.informative for lo in lows)
    # sandwich and bracket around the leading term
    for up, lo in zip(ups, lows):
        ok = ok and lo.envelope <= up.leading <= up.envelope
        ok = ok and up.envelope >= lo.envelope
    widths = [up.envelope - lo.envelope for up, lo in zip(ups, lows)]
    ok = ok and widths[0] > widths[1] > widths[2] > 0
    # upper-gap rate: fit the informative points (two decades) against
    # x^(-1/8) with the cubic-log prefactor divided out
    pts = [
        (math.log(x), math.log((up.envelope - up.leading) / abs(up.leading)
                               / math.log(x) ** 0.75))
        for x, up in zip(grid, ups)
        if up.informative
    ]
    ok = ok and len(pts) >= 2 and (pts[-1][0] - pts[0][0]) >= math.log(100.0) - 1e-9
    slope = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0]
    ok = ok and abs(slope - (-0.125)) <= 0.05
    report(9, ok,
           f"widths {[f'{w:.2e}' for w in widths]}, informative upper points "
           f"{len(pts)}, fitted gap exponent {slope:.4f} (target -0.125 +/- 0.05); "
           f"scales upper={UPPER_SCALE} lower={LOWER_SCALE}")


def test_criterion_10_finite_size_trend():
    spectrum = full_spectrum(SpinLattice.chain(14), SpinMagnitude(1))
    c1 = continuum_constants().c1
    betas = [4.0, 4.0 * 2**0.5, 8.0, 8.0 * 2**0.5, 16.0]
    ratios = []
    ok = True
    for beta in betas:
        f = free_energy(spectrum, beta)
        ratio = f / leading_term(beta, 0.5, 1)
        ratios.append(ratio)
        ok = ok and 0.5 < ratio < 1.5
        ok = ok and math.sqrt(beta * 0.5) < 7.0  # thermal length below L/2
    ok = ok and abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
    report(10, ok,
           "L=14 ratio f*beta^{3/2}S^{1/2}/C1 over beta in [4,16]: "
           + ", ".join(f"{b:.3g}:{r:.4f}" for b, r in zip(betas, ratios)))


def test_criterion_11_consistency_certificates():
    certs = run_check("subadditivity", seed=SEED)
    certs += run_check("localization", seed=SEED)
    certs += run_check("truncation", seed=SEED)
    bad = [c for c in certs if not c.passed]
    report(11, not bad,
           f"{len(certs)} subadditivity/localization/truncation certificates, "
           f"min slack {min(c.slack for c in certs):.2e}")
