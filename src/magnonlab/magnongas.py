"""Closed-form ideal-magnon quantities: mode sets, free-energy sums and
integrals, the leading continuum terms, one-body occupations, the
lower-bound budget, and the fully assembled finite-temperature upper and
lower envelopes for the free energy of the chain (plus the 2d upper
envelope).

Everything here is scalar/numpy arithmetic on explicit formulas; the
only tunable is the proportionality constant in the box-size choice
l ~ (beta S)^a (polylog), exposed as `scale` with default 1 and always
reported next to results.  `scipy.integrate` is looked up where it is
called (scipy loads it on first access), and the exact-ED budget
imports `spectra` in its own branch, so the envelopes and the
preliminary budget load no scipy submodule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy

from .basis import SpinMagnitude

TWO_PLUS_NINE_OVER_SQRT8 = 2.0 + 9.0 / math.sqrt(8.0)
UNDERFLOW_EXPONENT = 746.0  # exp(-y) == 0.0 in float64 beyond this


def dispersion(p):
    """Magnon dispersion 2(1 - cos p), evaluated as 4 sin^2(p/2) so no
    precision is lost at small momentum."""
    if np.ndim(p):
        return 4.0 * np.sin(0.5 * np.asarray(p, dtype=float)) ** 2
    return 4.0 * math.sin(0.5 * p) ** 2


def log_one_minus_exp(y):
    """ln(1 - e^{-y}) for y > 0, stable down to y ~ 1e-300 (expm1 branch)
    and exactly 0.0 once e^{-y} underflows."""
    if y < 0.5:
        return math.log(-math.expm1(-y))
    return math.log1p(-math.exp(-y))


def _log_one_minus_exp_vec(y):
    small = y < 0.5
    out = np.empty_like(y)
    out[small] = np.log(-np.expm1(-y[small]))
    out[~small] = np.log1p(-np.exp(-y[~small]))
    return out


@dataclass
class DirichletModeSet:
    """Sine modes of the pinned box [1, l]^d, sorted by energy."""

    dimension: int
    ell: int
    momenta: np.ndarray  # shape (count, dimension)
    energies: np.ndarray  # sorted ascending

    @property
    def count(self) -> int:
        return self.momenta.shape[0]

    def eigenfunction_weights(self, site) -> np.ndarray:
        """|phi_p(x)|^2 for every mode at a 1-based site (int in 1d,
        pair in 2d); each eigenfunction is normalized over the box."""
        norm = 2.0 / (self.ell + 1)
        if self.dimension == 1:
            x = int(site)
            return norm * np.sin(x * self.momenta[:, 0]) ** 2
        x1, x2 = site
        return (
            norm**2
            * np.sin(x1 * self.momenta[:, 0]) ** 2
            * np.sin(x2 * self.momenta[:, 1]) ** 2
        )


def dirichlet_modes(ell: int, dimension: int) -> DirichletModeSet:
    """Complete pinned-box mode set: p = pi*m/(l+1), m = 1..l per axis."""
    if ell < 2:
        raise ValueError(f"box size must be >= 2, got {ell}")
    if dimension not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")
    ps = np.pi * np.arange(1, ell + 1) / (ell + 1)
    if dimension == 1:
        momenta = ps[:, None]
        energies = dispersion(ps)
    else:
        p1, p2 = np.meshgrid(ps, ps, indexing="ij")
        momenta = np.column_stack([p1.ravel(), p2.ravel()])
        energies = dispersion(momenta[:, 0]) + dispersion(momenta[:, 1])
    order = np.argsort(energies, kind="stable")
    return DirichletModeSet(dimension, ell, momenta[order], energies[order])


def _mode_momenta_1d(ell, family, m_max=None):
    """First m_max momenta of the chosen family; only that many are ever
    materialized, so huge boxes stay cheap."""
    if family == "dirichlet":
        count, denom = ell, ell + 1
    elif family == "neumann":
        # nonzero modes of the free-boundary Laplacian on [1, l]
        count, denom = ell - 1, ell
    else:
        raise ValueError(f"unknown mode family {family!r}")
    if m_max is not None:
        count = min(count, m_max)
    return np.pi * np.arange(1, count + 1) / denom


def _active_mode_count(ell, x_eff, family):
    """Modes past this index underflow to an exactly zero contribution."""
    c = UNDERFLOW_EXPONENT / (2.0 * x_eff)
    if c >= 2.0:
        return ell
    p_star = math.acos(1.0 - c)
    denom = ell + 1 if family == "dirichlet" else ell
    return min(ell, int(math.ceil(p_star * denom / math.pi)) + 1)


def _require_beta(beta, s):
    if not (0 < beta < math.inf and s > 0):
        raise ValueError(
            f"beta must be positive and finite and S positive, got beta={beta}, S={s}"
        )


def free_boson_sum(
    ell: int,
    dimension: int,
    beta: float,
    s: float,
    dilution: float = 0.0,
    mode_family: str = "dirichlet",
) -> float:
    """Ideal-gas pressure-type sum (1/(beta l^d)) sum_p ln(1 - e^{-beta S (1-delta) eps(p)}).

    `mode_family` selects the pinned-box sine modes (default) or the
    nonzero free-boundary modes pi*m/l used by the lower envelope; the
    dilution delta in [0, 1) softens the dispersion.  Always <= 0.
    Modes whose Boltzmann weight underflows contribute exactly zero and
    are skipped, so very large boxes stay cheap.
    """
    _require_beta(beta, s)
    if not 0.0 <= dilution < 1.0:
        raise ValueError(f"dilution must lie in [0, 1), got {dilution}")
    if ell < 2:
        raise ValueError(f"box size must be >= 2, got {ell}")
    x_eff = beta * s * (1.0 - dilution)
    if dimension == 1:
        m_max = _active_mode_count(ell, x_eff, mode_family)
        ps = _mode_momenta_1d(ell, mode_family, m_max)
        total = float(np.sum(_log_one_minus_exp_vec(x_eff * dispersion(ps))))
        return total / (beta * ell)
    if dimension == 2:
        if mode_family != "dirichlet":
            raise ValueError("2d sums are implemented for the pinned-box modes")
        m_max = _active_mode_count(ell, x_eff, mode_family)
        e1 = dispersion(_mode_momenta_1d(ell, mode_family, m_max))
        total = 0.0
        chunk = max(1, int(5e6) // max(1, m_max))
        for lo in range(0, m_max, chunk):
            grid = e1[lo : lo + chunk, None] + e1[None, :]
            total += float(np.sum(_log_one_minus_exp_vec(x_eff * grid)))
        return total / (beta * ell**2)
    raise ValueError(f"dimension must be 1 or 2, got {dimension}")


# ---------------------------------------------------------------------------
# integrals: adaptive quadrature with a thermal-wavelength substitution
# ---------------------------------------------------------------------------

class QuadratureError(ArithmeticError):
    """Raised when adaptive quadrature cannot reach the requested tolerance."""


def _quad(f, a, b, **kw):
    kw.setdefault("limit", 400)
    kw.setdefault("epsabs", 1e-13)
    kw.setdefault("epsrel", 1e-12)
    val, err = scipy.integrate.quad(f, a, b, **kw)
    return val, err


def _log_shifted_antiderivative(a, v0):
    """integral_0^{v0} ln(a + v^2) dv in closed form (a >= 0)."""
    if a == 0.0:
        return 2.0 * v0 * (math.log(v0) - 1.0)
    ra = math.sqrt(a)
    return v0 * math.log(a + v0 * v0) - 2.0 * v0 + 2.0 * ra * math.atan(v0 / ra)


def _log_occupation_integral(x, u_lo, u_hi, shift=0.0):
    """integral over u in [u_lo, u_hi] of ln(1 - e^{-(shift + x eps(u/sqrt x))}) du.

    The thermal substitution p = u/sqrt(x) makes the integrand scale free;
    for u_lo = 0 the logarithmic endpoint singularity ln(shift + u^2) is
    integrated in closed form so the adaptive quadrature only ever sees a
    smooth remainder and its error estimate is trustworthy.
    Returns (value, error_estimate).
    """
    rx = math.sqrt(x)
    if shift > 46.0:
        # every integrand value is below e^-46; the contribution is lost in
        # double precision relative to the full integral
        return 0.0, 0.0

    def plain(u):
        return log_one_minus_exp(shift + x * dispersion(u / rx))

    if u_lo > 0.0:
        return _quad(plain, u_lo, u_hi)
    u0 = min(1.0, 0.5 * u_hi)

    def smooth(u):
        y = shift + x * dispersion(u / rx)
        # single log of the ratio avoids cancellation between two large logs
        num = -math.expm1(-y) if y < 0.5 else 1.0 - math.exp(-y)
        return math.log(num / (shift + u * u))

    v1, e1 = _quad(smooth, 0.0, u0)
    v2, e2 = _quad(plain, u0, u_hi) if u0 < u_hi else (0.0, 0.0)
    return v1 + _log_shifted_antiderivative(shift, u0) + v2, e1 + e2


def _integral_1d_quad(x):
    """integral over [0, pi] of ln(1 - e^{-x eps(p)}) dp by adaptive
    quadrature with the singular endpoint handled analytically."""
    rx = math.sqrt(x)
    u_hi = min(math.pi * rx, 45.0)
    val, err = _log_occupation_integral(x, 0.0, u_hi)
    val /= rx
    err /= rx
    if abs(val) > 0 and err / abs(val) > 1e-10:
        raise QuadratureError(
            f"1d quadrature reached relative error {err / abs(val):.2e} > 1e-10"
        )
    return val


def _integral_2d_quad(x):
    """Nested adaptive quadrature of ln(1 - e^{-x(eps(p)+eps(q))}) on
    [0, pi]^2; the inner integral reuses the shifted singular split."""
    rx = math.sqrt(x)
    u_hi = min(math.pi * rx, 45.0)

    def inner(u):
        shift = x * dispersion(u / rx)
        v, _ = _log_occupation_integral(x, 0.0, u_hi, shift=shift)
        return v / rx

    val, err = _quad(inner, 0.0, u_hi, epsrel=1e-11)
    val /= rx
    err /= rx
    if abs(val) > 0 and err / abs(val) > 1e-9:
        raise QuadratureError(
            f"2d quadrature reached relative error {err / abs(val):.2e}"
        )
    return val


def free_boson_integral(beta: float, s: float, dimension: int) -> float:
    """Continuum counterpart of the mode sum.

    1d: (1/(pi beta)) integral_0^pi ln(1 - e^{-beta S eps(p)}) dp;
    2d: (1/(pi^2 beta)) over [0, pi]^2, by adaptive quadrature to
    relative 1e-10.
    """
    _require_beta(beta, s)
    x = beta * s
    if dimension == 1:
        return _integral_1d_quad(x) / (math.pi * beta)
    if dimension == 2:
        return _integral_2d_quad(x) / (math.pi**2 * beta)
    raise ValueError(f"dimension must be 1 or 2, got {dimension}")


def missing_mode_term(ell: int, beta: float, s: float) -> float:
    """-(1/(pi beta)) integral_0^{pi/(l+1)} ln(1 - e^{-beta S eps}) dp:
    the positive low-momentum mass a pinned box of size l cannot carry;
    decays like ln(l^2/(beta S))/(beta l) for l >> sqrt(beta S)."""
    _require_beta(beta, s)
    if ell < 2:
        raise ValueError(f"box size must be >= 2, got {ell}")
    x = beta * s
    rx = math.sqrt(x)
    u_hi = min(math.pi / (ell + 1) * rx, 45.0)
    val, _ = _log_occupation_integral(x, 0.0, u_hi)
    return -val / (rx * math.pi * beta)


# zeta(3/2) as a literal, bit-identical to scipy.special.zeta(1.5, 1), so
# the envelopes never load scipy.special
_ZETA_3_2 = np.float64(2.612375348685488)
_C1 = -_ZETA_3_2 / (2.0 * math.sqrt(math.pi))
_C2 = -math.pi / 24.0


def leading_term(beta: float, s: float, dimension: int) -> float:
    """c1 S^{-1/2} beta^{-3/2} (1d) or c2 S^{-1} beta^{-2} (2d)."""
    _require_beta(beta, s)
    if dimension == 1:
        return _C1 / (math.sqrt(s) * beta**1.5)
    if dimension == 2:
        return _C2 / (s * beta**2)
    raise ValueError(f"dimension must be 1 or 2, got {dimension}")


def wick_occupation(ell: int, dimension: int, beta: float, s: float, site):
    """Thermal one-body occupation <n_x> of the pinned free-boson gas,
    together with the closed-form cap it must respect.

    Returns (value, cap): value = sum_p |phi_p(x)|^2 / (e^{beta S eps(p)} - 1);
    cap = (pi^2/12)(l+1)/(beta S) in 1d, (pi/2) ln(1+2l)/(beta S) in 2d.
    """
    _require_beta(beta, s)
    modes = dirichlet_modes(ell, dimension)
    x = beta * s
    with np.errstate(over="ignore"):
        occ = modes.eigenfunction_weights(site) / np.expm1(x * modes.energies)
    value = float(np.sum(occ))
    if dimension == 1:
        cap = (math.pi**2 / 12.0) * (ell + 1) / x
    else:
        cap = (math.pi / 2.0) * math.log(1.0 + 2.0 * ell) / x
    return value, cap


def trace_ratio_lower_bound(ell: int, dimension: int, beta: float, s: float) -> float:
    """Closed-form lower bound on the ratio of the projected to the plain
    free-boson trace; may be negative, in which case it is useless and
    the caller must flag the composed bound as vacuous."""
    _require_beta(beta, s)
    x = beta * s
    if dimension == 1:
        return 1.0 - (math.pi**2 / 12.0) ** 2 * ell * (ell + 1) ** 2 / x**2
    if dimension == 2:
        return 1.0 - (math.pi * ell * math.log(1.0 + 2.0 * ell) / (2.0 * x)) ** 2
    raise ValueError(f"dimension must be 1 or 2, got {dimension}")


def entropy_error_term(ell: int, dimension: int, beta: float, s: float) -> float:
    """Additive entropy-estimate error (the trace-ratio prefactor is
    composed by the caller)."""
    _require_beta(beta, s)
    x = beta * s
    if dimension == 1:
        return (
            s
            * (math.pi**2 / 12.0) ** 2
            * ell
            * (ell + 1) ** 3
            / x**3.5
            * (math.sqrt(math.pi) * _ZETA_3_2 / 8.0 + math.sqrt(x) / ell)
        )
    if dimension == 2:
        ln = math.log(1.0 + 2.0 * ell)
        return (
            0.5
            * s
            * (0.5 * math.pi * ell * (ell + 1) * ln / x**2) ** 2
            * (math.pi**3 / 48.0 + x / ell**2)
        )
    raise ValueError(f"dimension must be 1 or 2, got {dimension}")


def delta_dilution(e0: float, ell: int, s: float) -> float:
    """Dispersion-dilution budget (2 + 9/sqrt(8)) E0^2 l^3 / S^2."""
    return TWO_PLUS_NINE_OVER_SQRT8 * e0**2 * ell**3 / s**2


def preliminary_free_energy_bound(beta: float, s: float, ell: int) -> float:
    """Coarse rigorous lower bound on the chain free energy per site.

    For a box of size l: -(1/(beta l)) ln(1 + 2 S l) + (1/beta) ln(1 - e^{-2 beta S / l^2}).
    Boxes larger than l0 = sqrt(4 beta S / ln(beta S)) are split into
    pieces of size in [ceil(l0/2), 2 ceil(l0/2) - 1] and the worst piece
    bounds the whole by subadditivity.
    """
    _require_beta(beta, s)
    x = beta * s
    if x <= 1.0:
        raise ValueError(f"the preliminary bound needs beta*S > 1, got {x}")
    if ell < 2:
        raise ValueError(f"box size must be >= 2, got {ell}")

    def count_part(m):
        return -np.log1p(2.0 * s * m) / (beta * m)

    def gap_part(m):
        return np.log(-np.expm1(-2.0 * x / m**2)) / beta

    def single(m):
        return float(count_part(float(m)) + gap_part(float(m)))

    ell0 = math.sqrt(4.0 * x / math.log(x))
    if ell <= ell0:
        return single(ell)
    a = max(2, math.ceil(ell0 / 2.0))
    b = min(2 * a - 1, ell)
    if b - a <= 200_000:
        ms = np.arange(a, b + 1, dtype=float)
        return float(np.min(count_part(ms) + gap_part(ms)))
    # bracket too wide to scan: bound each monotone part at its own worst
    # end (the count part increases in m, the gap part decreases), still a
    # valid lower bound for every piece size in [a, b]
    return float(count_part(float(a)) + gap_part(float(b)))


@dataclass
class LowerBoundBudget:
    """Cutoff energy, particle cap, dilution, and box scale feeding the
    assembled lower envelope."""

    beta: float
    s: float
    ell: int
    e0: float
    n0: float
    delta: float
    ell0: float
    implied_c: float | None = None

    @property
    def informative(self) -> bool:
        return self.delta < 1.0


E0_SOURCES = ("preliminary", "exact-ed")


def compute_budget(
    ell: int,
    beta: float,
    spin,
    e0_source: str = "preliminary",
) -> LowerBoundBudget:
    """Assemble (E0, N0, delta, l0) for a box of size ell at inverse
    temperature beta.

    E0 = -l f_l(beta/2) with f_l either from exact diagonalization
    ("exact-ed", needs a SpinMagnitude and a feasible dimension) or from
    the coarse preliminary bound ("preliminary", any size; requires
    ell >= l0(beta/2)/2, the scale below which that bound is not
    designed to operate).  N0 = E0 l^2 / (2S); delta is the dilution
    budget; l0 reports sqrt(4 beta S / ln(beta S)) at the budget's own
    beta.
    """
    s = spin.s if isinstance(spin, SpinMagnitude) else float(spin)
    x = beta * s
    if x <= 1.0:
        raise ValueError(f"budget requires beta*S > 1, got {x}")
    ell0 = math.sqrt(4.0 * x / math.log(x))
    beta_half = beta / 2.0
    if e0_source == "preliminary":
        x_half = beta_half * s
        if x_half <= 1.0:
            raise ValueError(f"preliminary bound requires (beta/2)*S > 1, got {x_half}")
        ell0_half = math.sqrt(4.0 * x_half / math.log(x_half))
        if ell < ell0_half / 2.0:
            raise ValueError(
                f"preliminary-bound budget needs ell >= l0/2 = {ell0_half / 2.0:.2f} "
                f"at beta/2, got ell={ell}"
            )
        bound = preliminary_free_energy_bound(beta_half, s, ell)
    elif e0_source == "exact-ed":
        if not isinstance(spin, SpinMagnitude):
            raise ValueError(f"the exact-ed budget needs a SpinMagnitude, got {spin!r}")
        from .spectra import chain_free_energy

        bound = chain_free_energy(ell, spin, beta_half)
    else:
        raise ValueError(f"e0_source must be one of {E0_SOURCES}, got {e0_source!r}")
    e0 = -ell * bound
    n0 = e0 * ell**2 / (2.0 * s)
    delta = delta_dilution(e0, ell, s)
    log_arg = beta_half * s**3
    implied_c = None
    if log_arg > 1.0:
        denom = (
            math.sqrt(math.log(beta_half * s))
            * beta_half**-1.5
            * s**-0.5
            * math.log(log_arg)
        )
        if denom > 0:
            implied_c = (e0 / ell) / denom
    return LowerBoundBudget(
        beta=beta,
        s=s,
        ell=ell,
        e0=e0,
        n0=n0,
        delta=delta,
        ell0=ell0,
        implied_c=implied_c,
    )


@dataclass
class ErrorEnvelope:
    """One fully assembled finite-(beta, S) free-energy bound."""

    beta: float
    s: float
    dimension: int
    ell: int
    envelope: float
    leading: float
    ratio: float
    informative: bool
    scale: float
    extras: dict = field(default_factory=dict)


def _require_box_scale(side, scale):
    if not 0.0 < scale < math.inf:
        raise ValueError(
            f"the {side}-envelope box scale must be positive and finite, got {scale}"
        )


def choose_box_upper(beta_s: float, dimension: int, scale: float = 1.0) -> int:
    """Box-size rule for the upper envelope: l ~ x^{5/8} (ln x)^{1/4} in
    1d, l ~ x^{5/6} (ln x)^{-2/3} in 2d, times `scale`."""
    _require_box_scale("upper", scale)
    if beta_s <= 1.0:
        raise ValueError(f"envelopes need beta*S > 1, got {beta_s}")
    lx = math.log(beta_s)
    if dimension == 1:
        raw = beta_s**0.625 * lx**0.25
    else:
        raw = beta_s ** (5.0 / 6.0) * lx ** (-2.0 / 3.0)
    return max(2, int(round(scale * raw)))


def choose_box_lower(beta: float, s: float, scale: float = 1.0) -> int:
    """Box-size rule for the lower envelope: l ~ x^{7/12} (ln beta S^3)^{-1/3}."""
    _require_box_scale("lower", scale)
    x = beta * s
    if x <= 1.0:
        raise ValueError(f"envelopes need beta*S > 1, got {x}")
    lead_log = max(math.log(beta * s**3), 1.0)
    return max(2, int(round(scale * x ** (7.0 / 12.0) * lead_log ** (-1.0 / 3.0))))


def upper_envelope(
    beta: float, s: float, dimension: int = 1, scale: float = 1.0
) -> ErrorEnvelope:
    """Rigorous upper bound on f(beta, S) at finite parameters.

    Assembles localization x [mode sum + |ln trace-ratio|/(beta l^d)
    + entropy error/(l^d ratio)] with every constant explicit.  When the
    trace-ratio bound is nonpositive the composed bound is vacuous and
    the trivially true f <= 0 is reported with informative=False; the
    same flag is cleared if the assembled value fails to be negative.
    """
    _require_beta(beta, s)
    x = beta * s
    ell = choose_box_upper(x, dimension, scale)
    r = trace_ratio_lower_bound(ell, dimension, beta, s)
    lead = leading_term(beta, s, dimension)
    extras = {"trace_ratio_bound": r}
    if r <= 0.0:
        env = 0.0
        informative = False
    else:
        sum_term = free_boson_sum(ell, dimension, beta, s)
        ent = entropy_error_term(ell, dimension, beta, s)
        cell = ell**dimension
        localization = (1.0 + 1.0 / ell) ** (-dimension)
        env = localization * (
            sum_term - math.log(r) / (beta * cell) + ent / (cell * r)
        )
        informative = env < 0.0
        extras.update(
            {
                "sum_term": sum_term,
                "entropy_error": ent,
                "localization": localization,
            }
        )
        if not informative:
            env = 0.0
    return ErrorEnvelope(
        beta=beta,
        s=s,
        dimension=dimension,
        ell=ell,
        envelope=float(env),
        leading=float(lead),
        ratio=float(env / lead),
        informative=bool(informative),
        scale=scale,
        extras=extras,
    )


def lower_envelope(
    beta: float,
    s: float,
    scale: float = 1.0,
) -> ErrorEnvelope:
    """Rigorous lower bound on f(beta, S) for the chain.

    Uses the energy-truncation budget (E0, N0, delta): for delta < 1 the
    bound is the diluted free-boundary mode sum minus
    ln(1 + (2Sl+1)(N0+1))/(beta l).  When delta >= 1 that form is
    vacuous and the coarse preliminary bound is reported instead, with
    informative=False.
    """
    _require_beta(beta, s)
    x = beta * s
    ell = choose_box_lower(beta, s, scale)
    budget = compute_budget(ell, beta, s)
    lead = leading_term(beta, s, 1)
    extras = {
        "e0": budget.e0,
        "n0": budget.n0,
        "delta": budget.delta,
    }
    if budget.delta < 1.0:
        count_term = math.log1p((2.0 * s * ell + 1.0) * (budget.n0 + 1.0)) / (
            beta * ell
        )
        sum_term = free_boson_sum(
            ell, 1, beta, s, dilution=budget.delta, mode_family="neumann"
        )
        env = sum_term - count_term
        informative = True
        extras.update({"sum_term": sum_term, "count_term": count_term})
    else:
        env = preliminary_free_energy_bound(beta, s, ell)
        informative = False
    return ErrorEnvelope(
        beta=beta,
        s=s,
        dimension=1,
        ell=ell,
        envelope=float(env),
        leading=float(lead),
        ratio=float(env / lead),
        informative=bool(informative),
        scale=scale,
        extras=extras,
    )
