"""Sector diagonalization, exact finite-size free energies, and the
variational upper bound with the projected free-boson trial state.

Per-sector spectra are computed with a dense symmetric eigensolver
(partition functions need every eigenvalue).  Sector sizes are counted
with `sector_dimension` before any basis is enumerated: `full_spectrum`
refuses a lattice up front when a sector exceeds the dense budget, and
`spectral_gap` chooses its solver from the middle sector's size, dense
spectra while that sector fits `DENSE_SECTOR_CAP` and a sparse deflated
solve on the middle sector alone once it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.special import logsumexp

from .basis import (
    MagnonSectorBasis,
    SpinLattice,
    SpinMagnitude,
    enumerate_sector_basis,
    sector_dimension,
)
from .certificates import InequalityCertificate, worst
from .operators import (
    assemble_dirichlet_heisenberg,
    assemble_free_boson_t,
    assemble_heisenberg,
    assemble_projector_p,
    assemble_total_spin_squared,
    ground_multiplet_vector,
)

DEFAULT_DIM_CAP = 1 << 20
DENSE_SECTOR_CAP = 6000


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds the configured dense-diagonalization budget."""


@dataclass
class SectorSpectrum:
    """Eigenvalues of every magnon sector of a chain or grid Hamiltonian."""

    lattice: SpinLattice
    spin: SpinMagnitude
    variant: str  # "free" | "dirichlet"
    sector_eigenvalues: list = field(repr=False)

    @property
    def all_eigenvalues(self) -> np.ndarray:
        return np.concatenate(self.sector_eigenvalues)

    @property
    def scale(self) -> float:
        ev = self.all_eigenvalues
        return float(np.abs(ev).max()) if ev.size else 0.0

    def zero_mode_count(self, tol_factor: float = 1e-10) -> int:
        tol = tol_factor * max(self.scale, 1.0)
        return int(np.sum(self.all_eigenvalues < tol))


def _assemble_variant(basis, variant):
    if variant == "free":
        return assemble_heisenberg(basis)
    if variant == "dirichlet":
        return assemble_dirichlet_heisenberg(basis)
    raise ValueError(f"unknown variant {variant!r}")


def full_spectrum(
    lattice: SpinLattice,
    spin: SpinMagnitude,
    variant: str = "free",
    dim_cap: int = DEFAULT_DIM_CAP,
) -> SectorSpectrum:
    """Dense eigenvalues of every magnon sector.

    Raises ResourceLimitError when the total Hilbert dimension exceeds
    `dim_cap` or any single sector exceeds `DENSE_SECTOR_CAP`; callers
    that only need the gap should use `spectral_gap`, which handles
    large middle sectors sparsely.
    """
    total_dim = spin.site_dim**lattice.nsites
    if total_dim > dim_cap:
        raise ResourceLimitError(
            f"total dimension {total_dim} exceeds cap {dim_cap}; "
            "restrict to individual sectors instead"
        )
    sectors = range(spin.two_s * lattice.nsites + 1)
    for n in sectors:
        dim = sector_dimension(lattice.nsites, n, spin.two_s)
        if dim > DENSE_SECTOR_CAP:
            raise ResourceLimitError(
                f"sector n={n} has dimension {dim} > {DENSE_SECTOR_CAP}"
            )
    sector_eigs = []
    for n in sectors:
        op = _assemble_variant(enumerate_sector_basis(lattice, spin, n), variant)
        sector_eigs.append(np.sort(sla.eigvalsh(op.to_dense())))
    return SectorSpectrum(lattice, spin, variant, sector_eigs)


def free_energy_from_eigenvalues(eigenvalues, beta: float, nsites: int) -> float:
    """f = -(1/(beta*M)) ln sum exp(-beta E), max-shifted for overflow safety."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return float(-logsumexp(-beta * np.asarray(eigenvalues)) / (beta * nsites))


def free_energy(spectrum: SectorSpectrum, beta: float) -> float:
    return free_energy_from_eigenvalues(
        spectrum.all_eigenvalues, beta, spectrum.lattice.nsites
    )


def chain_free_energy(
    ell: int, spin: SpinMagnitude, beta: float, variant: str = "free"
) -> float:
    """Free energy per site of an open chain of length ell (ell = 1 allowed:
    a single free spin has 2S+1 zero-energy states)."""
    if ell == 1:
        if variant != "free":
            raise ValueError("single-site chain is only defined for the free variant")
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        return -math.log(spin.site_dim) / beta
    spectrum = full_spectrum(SpinLattice.chain(ell), spin, variant)
    return free_energy(spectrum, beta)


def dirichlet_free_energy(ell: int, spin: SpinMagnitude, beta: float) -> float:
    return chain_free_energy(ell, spin, beta, variant="dirichlet")


@dataclass
class GapReport:
    ell: int
    two_s: int
    gap: float
    reference: float
    deviation: float


def _middle_sector_gap(lattice, spin):
    """Smallest nonzero eigenvalue of the middle sector via a sparse solve.

    Every total-spin multiplet, hence every distinct eigenvalue of the
    full Hamiltonian, appears in the sector n = floor(S*M), so the
    global gap equals this sector's smallest nonzero eigenvalue.  The
    unique zero mode (the maximal-spin state) is deflated by an exact
    rank-one shift before the Lanczos solve.
    """
    n_mid = (spin.two_s * lattice.nsites) // 2
    basis = enumerate_sector_basis(lattice, spin, n_mid)
    h = assemble_heisenberg(basis).to_csr()
    v0 = ground_multiplet_vector(basis)
    resid = np.linalg.norm(h @ v0)
    if resid > 1e-8 * max(1.0, abs(h).max()):
        raise RuntimeError(f"zero-mode residual {resid} unexpectedly large")
    shift = 10.0 * spin.s * lattice.nsites

    def matvec(x):
        return h @ x + shift * v0 * (v0 @ x)

    op = spla.LinearOperator((basis.dim, basis.dim), matvec=matvec, dtype=float)
    vals = spla.eigsh(
        op, k=1, which="SA", tol=1e-13, maxiter=20000, return_eigenvectors=False
    )
    return float(vals[0])


def spectral_gap(
    lattice: SpinLattice,
    spin: SpinMagnitude,
    spectrum: SectorSpectrum | None = None,
    tol_factor: float = 1e-10,
) -> GapReport:
    """Smallest nonzero eigenvalue across all sectors of the free chain,
    reported against 2S(1 - cos(pi/ell)).

    Without a precomputed `spectrum`, the solver is chosen before any
    work from the size of the middle sector n = floor(S*ell): the sparse
    middle-sector solve once that sector exceeds `DENSE_SECTOR_CAP` (or
    the whole space exceeds `DEFAULT_DIM_CAP`), otherwise the dense
    spectrum of every sector.
    """
    if lattice.dimension != 1:
        raise ValueError("the gap report is defined for chains")
    ell = lattice.nsites
    n_mid = (spin.two_s * ell) // 2
    if spectrum is None and (
        sector_dimension(ell, n_mid, spin.two_s) > DENSE_SECTOR_CAP
        or spin.site_dim**ell > DEFAULT_DIM_CAP
    ):
        gap = _middle_sector_gap(lattice, spin)
    else:
        if spectrum is None:
            spectrum = full_spectrum(lattice, spin)
        ev = spectrum.all_eigenvalues
        tol = tol_factor * max(spectrum.scale, 1.0)
        gap = float(ev[ev > tol].min())
    reference = 2.0 * spin.s * (1.0 - math.cos(math.pi / ell))
    return GapReport(ell, spin.two_s, gap, reference, abs(gap - reference))


def check_subadditivity(
    total_length: int, spin: SpinMagnitude, beta: float
) -> InequalityCertificate:
    """Certify L f_L >= l f_l + (L-l) f_{L-l} for every split of the chain."""
    f = {ell: chain_free_energy(ell, spin, beta) for ell in range(1, total_length + 1)}
    slacks = []
    for ell in range(1, total_length):
        rest = total_length - ell
        slacks.append(
            total_length * f[total_length] - ell * f[ell] - rest * f[rest]
        )
    slack = float(worst(slacks))
    return InequalityCertificate(
        name="subadditivity",
        params={"L": total_length, "two_s": spin.two_s, "beta": beta},
        slack=slack,
        tolerance=1e-12 * max(1.0, abs(total_length * f[total_length])),
    )


def check_localization_bound(
    total_length: int, ell: int, spin: SpinMagnitude, beta: float
) -> InequalityCertificate:
    """Certify f_L <= (1 + 1/l)^(-1) f_l^D for L = k(l+1)+1, plus the
    companion check (1 + 1/l)^(-1) f_l^D >= f_l at the same l."""
    if ell < 2:
        raise ValueError(f"pinned-box size must be >= 2, got {ell}")
    k, r = divmod(total_length - 1, ell + 1)
    if r != 0 or k < 1:
        raise ValueError(
            f"L={total_length} is not of the form k*(ell+1)+1 for ell={ell}"
        )
    factor = 1.0 / (1.0 + 1.0 / ell)
    f_big = chain_free_energy(total_length, spin, beta)
    f_pin = dirichlet_free_energy(ell, spin, beta)
    f_small = chain_free_energy(ell, spin, beta)
    slack_main = factor * f_pin - f_big
    slack_cross = factor * f_pin - f_small
    return InequalityCertificate(
        name="localization-upper-bound",
        params={"L": total_length, "ell": ell, "two_s": spin.two_s, "beta": beta},
        slack=float(worst([slack_main, slack_cross])),
        tolerance=1e-12 * max(1.0, abs(f_big)),
        extras={"slack_main": float(slack_main), "slack_cross": float(slack_cross)},
    )


def localization_cross_check(
    ell: int, spin: SpinMagnitude, beta: float
) -> InequalityCertificate:
    """(1 + 1/l)^(-1) f_l^D >= f_l alone, for grids where no matching L
    is diagonalizable."""
    factor = 1.0 / (1.0 + 1.0 / ell)
    slack = factor * dirichlet_free_energy(ell, spin, beta) - chain_free_energy(
        ell, spin, beta
    )
    return InequalityCertificate(
        name="localization-cross-check",
        params={"ell": ell, "two_s": spin.two_s, "beta": beta},
        slack=float(slack),
        tolerance=1e-12,
    )


# ---------------------------------------------------------------------------
# joint (energy, total-spin) decomposition of a sector
# ---------------------------------------------------------------------------

def sector_energy_spin_pairs(lattice, spin, n, variant="free"):
    """Simultaneous eigendata (E, t) of a sector.

    The Casimir commutes with the Hamiltonian, so its eigenspaces are
    invariant blocks; each block is diagonalized separately, giving the
    exact quantum number t alongside every energy.
    """
    basis = enumerate_sector_basis(lattice, spin, n)
    h = _assemble_variant(basis, variant).to_dense()
    s2 = assemble_total_spin_squared(basis).to_dense()
    w, vecs = sla.eigh(s2)
    s_max = spin.s * lattice.nsites
    t_min = abs(n - s_max)
    t_ladder = np.arange(t_min, s_max + 0.5, 1.0)
    targets = t_ladder * (t_ladder + 1.0)
    pairs = []
    for t, target in zip(t_ladder, targets):
        sel = np.abs(w - target) < 0.25
        if not np.any(sel):
            continue
        block = vecs[:, sel]
        hb = block.T @ h @ block
        for e in np.sort(sla.eigvalsh(hb)):
            pairs.append((float(e), float(t)))
    if len(pairs) != basis.dim:
        raise RuntimeError("Casimir eigenvalues did not cluster onto t(t+1) ladder")
    return pairs


# ---------------------------------------------------------------------------
# variational upper bound from the projected free-boson state
# ---------------------------------------------------------------------------

def fock_tail_cutoff(ell: int, spin: SpinMagnitude, beta: float, rel_tol: float = 1e-10):
    """Smallest particle-number cutoff N such that the discarded tail of
    the free-boson trace is below rel_tol of the total.

    Uses an exponential-moment bound: for 0 < theta < beta*S*eps_min,
    Z_{>N}/Z <= exp(-theta (N+1)) * prod_p (1 - e^{-x_p}) / (1 - e^{-(x_p - theta)})
    with x_p = beta*S*eps(p); theta is scanned on a grid.
    """
    from .magnongas import dirichlet_modes

    x = beta * spin.s * dirichlet_modes(ell, 1).energies
    best = None
    for frac in (0.25, 0.5, 0.75, 0.9):
        theta = frac * x.min()
        log_pref = float(
            np.sum(np.log1p(-np.exp(-x)) - np.log1p(-np.exp(-(x - theta))))
        )
        n_cap = max(0, math.ceil(-(math.log(rel_tol) + log_pref) / theta - 1.0))
        if best is None or n_cap < best:
            best = n_cap
    return best


def gibbs_variational_upper(
    ell: int,
    spin: SpinMagnitude,
    beta: float,
    n_cap: int | None = None,
    rel_tol: float = 1e-10,
    max_states: int = 300_000,
):
    """Gibbs variational bound with the projected free-boson trial state.

    The trial state is P e^{-beta T} P normalized, with P the occupancy
    projector and T the pinned free-boson hopping operator; the bound is
    evaluated by exact summation over particle-number sectors up to a
    certified tail cutoff.

    Returns (value, certificate, details): `value` is the per-site bound
    (1/l)[tr H^D Gamma + (1/beta) tr Gamma ln Gamma]; the certificate
    checks value >= f_l^D; `details` reports the trial-state trace, the
    cutoff, and the gap to the plain free-boson pressure.
    """
    lattice = SpinLattice.chain(ell)
    if n_cap is None:
        n_cap = fock_tail_cutoff(ell, spin, beta, rel_tol)
    total_states = sum(
        sector_dimension(ell, n, n) for n in range(n_cap + 1)
    )
    if total_states > max_states:
        raise ResourceLimitError(
            f"tail cutoff n_cap={n_cap} needs {total_states} Fock states "
            f"(budget {max_states}); raise the budget or lower beta"
        )

    z_p = 0.0
    mu_total = 0.0
    energy_num = 0.0
    xlogx_sum = 0.0
    z_free = 0.0
    floor = 1e-30
    for n in range(n_cap + 1):
        basis = enumerate_sector_basis(lattice, spin, n, capped=False)
        t_op = assemble_free_boson_t(basis).to_dense()
        w, u = sla.eigh(t_op)
        exp_t = (u * np.exp(-beta * w)) @ u.T
        z_free += float(np.exp(-beta * w).sum())
        p = assemble_projector_p(basis).weights
        m = (p[:, None] * exp_t) * p[None, :]
        z_p += float(np.trace(m))
        hd = assemble_dirichlet_heisenberg(basis).to_dense()
        energy_num += float(np.sum(hd * m.T))
        mu = sla.eigvalsh(m)
        mu_total += float(mu.sum())
        mu = mu[mu > floor]
        xlogx_sum += float(np.sum(mu * np.log(mu)))

    energy = energy_num / z_p
    entropy_term = xlogx_sum / z_p - math.log(z_p)
    value = (energy + entropy_term / beta) / ell
    f_pin = dirichlet_free_energy(ell, spin, beta)

    from .magnongas import free_boson_sum

    free_boson_value = free_boson_sum(ell, 1, beta, spin.s)
    # eigenvalue sum over trace: a genuine consistency check on the
    # eigendecompositions feeding the entropy term
    gamma_trace = mu_total / z_p
    cert = InequalityCertificate(
        name="variational-dominance",
        params={"ell": ell, "two_s": spin.two_s, "beta": beta, "n_cap": n_cap},
        slack=float(value - f_pin),
        tolerance=1e-10 * max(1.0, abs(f_pin)),
    )
    details = {
        "value": value,
        "f_dirichlet": f_pin,
        "free_boson_value": free_boson_value,
        "gap_to_free_boson": value - free_boson_value,
        "n_cap": n_cap,
        "gamma_trace": gamma_trace,
        "trial_trace_ratio": z_p / z_free,
    }
    return value, cert, details
