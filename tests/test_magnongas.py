import math

import numpy as np
import pytest
from scipy import integrate

from magnonlab import magnongas
from magnonlab.magnongas import (
    choose_box_lower,
    choose_box_upper,
    delta_dilution,
    dirichlet_modes,
    dispersion,
    entropy_error_term,
    free_boson_integral,
    free_boson_sum,
    leading_term,
    lower_envelope,
    missing_mode_term,
    preliminary_free_energy_bound,
    trace_ratio_lower_bound,
    upper_envelope,
    wick_occupation,
)
from oracles import AsymptoticConstants, continuum_constants, free_boson_integral_series

C1 = -2.6123753486854883 / (2.0 * math.sqrt(math.pi))


def test_dirichlet_modes_small_chain():
    modes = dirichlet_modes(3, 1)
    assert np.allclose(np.sort(modes.momenta[:, 0]), np.pi * np.array([1, 2, 3]) / 4)
    assert np.allclose(np.sort(modes.energies), [2 - math.sqrt(2), 2, 2 + math.sqrt(2)])


def test_band_maximum():
    assert dispersion(math.pi) == pytest.approx(4.0, abs=1e-14)
    modes = dirichlet_modes(40, 1)
    assert modes.energies.min() >= 0.0 and modes.energies.max() <= 4.0
    assert np.all(np.diff(np.sort(modes.energies)) >= 0)


def test_2d_mode_energies_are_separable():
    modes = dirichlet_modes(2, 2)
    assert modes.count == 4
    for p, e in zip(modes.momenta, modes.energies):
        assert e == pytest.approx(dispersion(p[0]) + dispersion(p[1]), abs=1e-12)
    big = dirichlet_modes(9, 2)
    for p, e in zip(big.momenta, big.energies):
        assert abs(e - dispersion(p[0]) - dispersion(p[1])) <= 1e-12


def test_eigenfunctions_are_normalized():
    for ell in (3, 7):
        modes = dirichlet_modes(ell, 1)
        total = sum(modes.eigenfunction_weights(x) for x in range(1, ell + 1))
        assert np.allclose(total, 1.0, atol=1e-12)
    modes2 = dirichlet_modes(4, 2)
    total2 = sum(
        modes2.eigenfunction_weights((x, y))
        for x in range(1, 5)
        for y in range(1, 5)
    )
    assert np.allclose(total2, 1.0, atol=1e-12)


def test_free_boson_sum_scalar_example():
    # (l=3, beta=1, S=1): explicit three-mode evaluation
    val = free_boson_sum(3, 1, 1.0, 1.0)
    expected = (
        math.log(1 - math.exp(-(2 - math.sqrt(2))))
        + math.log(1 - math.exp(-2.0))
        + math.log(1 - math.exp(-(2 + math.sqrt(2))))
    ) / 3.0
    assert val == pytest.approx(expected, rel=1e-14)
    assert val < 0


def test_free_boson_sum_dilution_monotonicity():
    base = free_boson_sum(8, 1, 4.0, 0.5, dilution=0.0)
    diluted = free_boson_sum(8, 1, 4.0, 0.5, dilution=0.5)
    assert diluted < base
    with pytest.raises(ValueError, match="dilution"):
        free_boson_sum(8, 1, 4.0, 0.5, dilution=1.0)


def test_free_boson_sum_gapped_limit():
    assert free_boson_sum(5, 1, 4000.0, 1.0) == pytest.approx(0.0, abs=1e-200)
    assert free_boson_sum(5, 1, 4000.0, 1.0) <= 0.0


def test_free_boson_sum_neumann_family():
    # nonzero free-boundary modes pi m / l, m = 1..l-1
    ell, beta, s = 6, 2.0, 0.5
    val = free_boson_sum(ell, 1, beta, s, mode_family="neumann")
    expected = sum(
        math.log(1 - math.exp(-beta * s * dispersion(math.pi * m / ell)))
        for m in range(1, ell)
    ) / (beta * ell)
    assert val == pytest.approx(expected, rel=1e-13)


def test_free_boson_sum_2d_brute_force():
    ell, beta, s = 5, 1.5, 1.0
    val = free_boson_sum(ell, 2, beta, s)
    acc = 0.0
    for m in range(1, ell + 1):
        for n in range(1, ell + 1):
            e = dispersion(math.pi * m / 6) + dispersion(math.pi * n / 6)
            acc += math.log(1 - math.exp(-beta * s * e))
    assert val == pytest.approx(acc / (beta * ell**2), rel=1e-13)


def test_huge_box_sum_is_cheap_and_finite():
    val = free_boson_sum(10**9, 1, 2e8, 0.5, mode_family="neumann")
    assert math.isfinite(val) and val < 0


def test_integral_quad_vs_series_dual_route():
    for x in (1.0, 37.0, 1e4, 1e7):
        beta, s = 2 * x, 0.5
        for dim in (1, 2):
            q = free_boson_integral(beta, s, dim)
            r = free_boson_integral_series(beta, s, dim)
            assert abs(q - r) <= 1e-10 * abs(r)


def test_integral_against_plain_scipy_quad():
    # independent evaluation at moderate x where naive quadrature converges
    x = 9.0

    def g(p):
        return math.log1p(-math.exp(-x * dispersion(p)))

    # full_output suppresses the naive oracle's endpoint-singularity warning;
    # its achieved accuracy is still far better than the comparison tolerance
    ref = integrate.quad(g, 0, math.pi, limit=400, epsabs=1e-13, epsrel=1e-13,
                         full_output=1)[0]
    val = free_boson_integral(18.0, 0.5, 1)
    assert val == pytest.approx(ref / (math.pi * 18.0), rel=1e-11)


def test_continuum_constants():
    c = continuum_constants()
    assert isinstance(c, AsymptoticConstants)
    assert c.c1 == pytest.approx(C1, abs=1e-12)
    assert abs(c.c1 - c.c1_quadrature) <= 1e-10
    assert c.c2 == -math.pi / 24.0


def test_scaled_integrals_approach_constants():
    c = continuum_constants()
    for x, tol in ((1e4, 0.02), (1e6, 0.002)):
        beta, s = x / 0.5, 0.5
        scaled_1d = beta**1.5 * math.sqrt(s) * free_boson_integral(beta, s, 1)
        assert abs(scaled_1d / c.c1 - 1.0) < tol
        scaled_2d = beta**2 * s * free_boson_integral(beta, s, 2)
        assert abs(scaled_2d / c.c2 - 1.0) < tol


def test_continuum_limit_rate():
    # beta^{3/2} S^{1/2} * integral approaches c1 at a 1/(beta S) rate:
    # the scaled deviation times beta*S stays constant across decades
    c1 = continuum_constants().c1
    scaled_devs = []
    for x in (1e2, 1e3, 1e4):
        beta, s = x / 0.5, 0.5
        scaled = beta**1.5 * math.sqrt(s) * free_boson_integral(beta, s, 1)
        scaled_devs.append(abs(scaled - c1) * x)
    assert max(scaled_devs) < 0.03
    assert max(scaled_devs) / min(scaled_devs) < 1.05


def test_sum_integral_sandwich():
    # the mode sum sits between the full integral and the upscaled
    # truncated integral, across the tested grid
    for ell in (10, 25, 50):
        for x in (1.0, 10.0, 100.0):
            beta, s = 2 * x, 0.5
            total = free_boson_sum(ell, 1, beta, s)
            low = free_boson_integral(beta, s, 1)

            def g(p):
                return math.log1p(-math.exp(-x * dispersion(p)))

            trunc, _ = integrate.quad(
                g, math.pi / (ell + 1), math.pi, limit=400, epsabs=1e-13
            )
            high = (1 + 1.0 / ell) * trunc / (math.pi * beta)
            assert low <= total <= high, (ell, x, low, total, high)


def test_missing_mode_term_properties():
    assert missing_mode_term(12, 8.0, 0.5) > 0.0
    # asymptotic scale check at l >> sqrt(beta S)
    ell, beta, s = 100, 200.0, 0.5
    val = missing_mode_term(ell, beta, s)
    scale = math.log(ell**2 / (beta * s)) / (beta * ell)
    assert scale / 3 <= val <= 3 * scale
    # vanishes as the box grows
    assert missing_mode_term(10**6, 8.0, 0.5) < missing_mode_term(100, 8.0, 0.5)
    assert missing_mode_term(10**6, 8.0, 0.5) < 1e-4


def test_missing_mode_consistency_with_truncated_integral():
    ell, beta, s = 37, 10.0, 1.0
    x = beta * s

    def g(p):
        return math.log1p(-math.exp(-x * dispersion(p)))

    ref, _ = integrate.quad(g, 0, math.pi / (ell + 1), epsabs=1e-15, limit=400)
    assert missing_mode_term(ell, beta, s) == pytest.approx(
        -ref / (math.pi * beta), rel=1e-10
    )


def test_wick_occupation_1d_bound_and_symmetry():
    ell, beta, s = 10, 40.0, 0.5
    for x in range(1, ell + 1):
        val, cap = wick_occupation(ell, 1, beta, s, x)
        assert 0.0 <= val <= cap
        mirrored, _ = wick_occupation(ell, 1, beta, s, ell + 1 - x)
        assert val == pytest.approx(mirrored, abs=1e-12)
    assert cap == pytest.approx((math.pi**2 / 12) * (ell + 1) / (beta * s), abs=1e-15)


def test_wick_occupation_2d_bound():
    ell, beta, s = 8, 100.0, 0.5
    for site in ((1, 1), (4, 5), (8, 3)):
        val, cap = wick_occupation(ell, 2, beta, s, site)
        assert 0.0 <= val <= cap
    assert cap == pytest.approx(
        (math.pi / 2) * math.log(17.0) / (beta * s), abs=1e-15
    )


def test_wick_brute_force_oracle():
    # direct mode-sum reconstruction with explicit sine weights
    ell, beta, s, site = 6, 5.0, 1.0, 2
    acc = 0.0
    for m in range(1, ell + 1):
        p = math.pi * m / (ell + 1)
        w = 2.0 / (ell + 1) * math.sin(site * p) ** 2
        acc += w / (math.exp(beta * s * dispersion(p)) - 1.0)
    val, _ = wick_occupation(ell, 1, beta, s, site)
    assert val == pytest.approx(acc, rel=1e-12)


def test_trace_ratio_formula_values():
    assert trace_ratio_lower_bound(2, 1, 200.0, 0.5) == pytest.approx(
        1 - (math.pi**2 / 12) ** 2 * 2 * 9 / 1e4, abs=1e-12
    )
    assert trace_ratio_lower_bound(2, 1, 200.0, 0.5) == pytest.approx(0.99878, abs=5e-6)
    assert trace_ratio_lower_bound(2, 2, 200.0, 0.5) == pytest.approx(
        1 - (math.pi * 2 * math.log(5.0) / 200.0) ** 2, abs=1e-12
    )
    assert trace_ratio_lower_bound(2, 2, 200.0, 0.5) == pytest.approx(0.99744, abs=5e-6)
    # -> 1 at low temperature
    assert trace_ratio_lower_bound(4, 1, 1e9, 0.5) == pytest.approx(1.0, abs=1e-8)


def test_entropy_error_formula():
    ell, beta, s = 4, 100.0, 0.5
    x = beta * s
    expected = (
        s
        * (math.pi**2 / 12) ** 2
        * ell
        * (ell + 1) ** 3
        / x**3.5
        * (math.sqrt(math.pi) * 2.6123753486854883 / 8 + math.sqrt(x) / ell)
    )
    assert entropy_error_term(ell, 1, beta, s) == pytest.approx(expected, rel=1e-13)
    ln = math.log(9.0)
    expected2 = (
        0.5 * s * (0.5 * math.pi * 4 * 5 * ln / x**2) ** 2 * (math.pi**3 / 48 + x / 16)
    )
    assert entropy_error_term(4, 2, beta, s) == pytest.approx(expected2, rel=1e-13)
    # explicit S prefactor: doubling S at fixed beta*S doubles the value
    for dim in (1, 2):
        assert entropy_error_term(4, dim, 50.0, 1.0) == pytest.approx(
            2 * entropy_error_term(4, dim, 100.0, 0.5), rel=1e-13
        )


def test_entropy_error_scaling_envelope():
    # value / (S l^4 x^{-7/2}) stays bounded on the working window
    # sqrt(x) <= l <= x^{2/3}, where the box exceeds the thermal length
    ratios = []
    for x in (1e2, 1e4, 1e6):
        for ell in (int(x**0.5), int(x ** 0.58), int(x ** (2.0 / 3.0))):
            beta, s = 2 * x, 0.5
            val = entropy_error_term(ell, 1, beta, s)
            ratios.append(val / (s * ell**4 * x**-3.5))
    assert max(ratios) < 10.0


def test_delta_dilution_arithmetic():
    val = delta_dilution(0.1, 10, 0.5)
    assert val == pytest.approx((2 + 9 / math.sqrt(8)) * 0.01 * 1000 / 0.25, rel=1e-13)
    assert val == pytest.approx(207.28, abs=0.01)
    assert val >= 1.0  # non-informative regime


def test_preliminary_bound_is_valid_lower_bound():
    # compare against exact diagonalization on small chains
    from magnonlab.basis import SpinMagnitude
    from magnonlab.spectra import chain_free_energy

    for ell, two_s, beta in ((4, 1, 8.0), (5, 1, 12.0), (3, 2, 6.0)):
        s = two_s / 2
        bound = preliminary_free_energy_bound(beta, s, ell)
        exact = chain_free_energy(ell, SpinMagnitude(two_s), beta)
        assert bound <= exact + 1e-12


def test_preliminary_bound_chopping_branch():
    # box far above l0: the bound must stay finite and below the direct form
    beta, s = 2e4, 0.5
    big = preliminary_free_energy_bound(beta, s, 10**7)
    assert math.isfinite(big) and big < 0
    with pytest.raises(ValueError, match="beta\\*S > 1"):
        preliminary_free_energy_bound(1.0, 0.5, 10)


def test_box_choice_rules():
    assert choose_box_upper(1e4, 1) == 551
    assert choose_box_upper(1e4, 1, scale=0.5) == 275
    assert choose_box_upper(1e6, 2) == 17368
    assert choose_box_lower(2e4, 0.5, scale=0.3) == 33
    with pytest.raises(ValueError):
        choose_box_upper(0.5, 1)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
def test_box_choice_rejects_a_scale_that_is_not_positive_and_finite(scale):
    with pytest.raises(ValueError, match="upper-envelope box scale"):
        choose_box_upper(1e4, 1, scale=scale)
    with pytest.raises(ValueError, match="upper-envelope box scale"):
        choose_box_upper(1e6, 2, scale=scale)
    with pytest.raises(ValueError, match="lower-envelope box scale"):
        choose_box_lower(2e4, 0.5, scale=scale)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
def test_free_boson_sum_and_integral_reject_a_beta_that_is_not_positive_and_finite(beta):
    with pytest.raises(ValueError, match="beta"):
        free_boson_sum(8, 1, beta, 0.5)
    for dimension in (1, 2):
        with pytest.raises(ValueError, match="beta"):
            free_boson_integral(beta, 0.5, dimension)


def test_zeta_literals_equal_scipy_bit_for_bit():
    from scipy import special

    zeta = special.zeta(1.5, 1)
    assert type(magnongas._ZETA_3_2) is type(zeta) and magnongas._ZETA_3_2 == zeta
    c1 = -zeta / (2 * math.sqrt(math.pi))
    assert type(magnongas._C1) is type(c1) and magnongas._C1 == c1


def test_upper_envelope_informative_regime():
    env = upper_envelope(2e6, 0.5, 1, scale=0.5)
    assert env.informative and env.envelope < 0
    assert env.leading < env.envelope < 0
    assert 0 < env.ratio < 1
    # reported ratio grows toward 1 across the grid
    env8 = upper_envelope(2e8, 0.5, 1, scale=0.5)
    assert env.ratio < env8.ratio < 1


def test_upper_envelope_vacuous_at_small_x():
    env = upper_envelope(20.0, 0.5, 1)
    assert not env.informative
    assert env.envelope == 0.0  # the trivially true f <= 0


def test_upper_envelope_2d():
    env = upper_envelope(2e6, 0.5, 2)
    assert env.informative
    assert 0 < env.ratio < 1
    assert env.leading == pytest.approx(-math.pi / 24 / (0.5 * (2e6) ** 2), rel=1e-12)


def test_lower_envelope_informative_and_below_leading():
    env = lower_envelope(2e6, 0.5, scale=0.3)
    assert env.informative
    assert env.envelope <= env.leading < 0
    assert env.ratio > 1.0
    assert env.extras["delta"] < 1.0


def test_lower_envelope_ratio_trend_toward_unity():
    ratios = [
        lower_envelope(2 * x, 0.5, scale=0.3).ratio for x in (1e8, 1e12, 1e16, 1e20)
    ]
    assert all(r > 1 for r in ratios)
    assert ratios == sorted(ratios, reverse=True)


def test_lower_envelope_vacuous_fallback():
    # a scale so large the dilution exceeds 1: falls back to the coarse
    # preliminary bound, flagged non-informative, still finite and valid
    env = lower_envelope(2e4, 0.5, scale=1.0)
    assert not env.informative
    assert math.isfinite(env.envelope) and env.envelope < 0
    assert env.extras["delta"] >= 1.0


def test_envelope_sandwich_where_informative():
    for x in (1e6, 1e8):
        up = upper_envelope(2 * x, 0.5, 1, scale=0.5)
        lo = lower_envelope(2 * x, 0.5, scale=0.3)
        assert lo.envelope <= lo.leading <= up.envelope
        assert up.informative and lo.informative


def test_leading_term_values():
    assert leading_term(8.0, 0.5, 1) == pytest.approx(
        C1 / (math.sqrt(0.5) * 8.0**1.5), rel=1e-13
    )
    assert leading_term(8.0, 0.5, 2) == pytest.approx(
        (-math.pi / 24) / (0.5 * 64.0), rel=1e-13
    )
