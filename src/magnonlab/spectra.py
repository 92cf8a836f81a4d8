"""Sector diagonalization, exact finite-size free energies, and the
variational upper bound with the projected free-boson trial state.

Every dense sector is built by `dense_sectors`, which sizes all the
requested sectors against `DENSE_SECTOR_CAP` before it enumerates any
basis and then yields (basis, dense H) one sector at a time.  The one
exception is `boundlab.verify_php_leq_t`, whose uncapped free-boson
sectors `dense_sectors` does not build: it sizes each against the same
`DENSE_SECTOR_CAP` and enumerates it itself.  Per-sector
spectra come from a dense symmetric eigensolver (partition functions
need every eigenvalue).  `spectral_gap` never needs the full spectrum:
it takes the sectors n = 2, 3, ... from `dense_sectors` in turn, solves
each for its two lowest eigenpairs by one dense `eigh`, and stops at
the middle sector, which holds every multiplet, or as soon as the
Casimir floor of the largest total spin not yet held lies above the
gap.  `full_spectrum` stays unreduced: it holds one dense sector at a
time and diagonalizes it in its own storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.special import comb, factorial, logsumexp

from .basis import (
    MagnonSectorBasis,
    ResourceLimitError,
    SpinLattice,
    SpinMagnitude,
    enumerate_sector_basis,
    require_sector_dimensions,
)
from .certificates import InequalityCertificate, worst
from .operators import (
    assemble_dirichlet_heisenberg,
    assemble_heisenberg,
    assemble_projector_p,
)

DEFAULT_DIM_CAP = 1 << 20
DENSE_SECTOR_CAP = 6000
# An eigenvalue below this multiple of max(||H||, 1) counts as a zero mode.
_ZERO_TOL_FACTOR = 1e-10


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

    def zero_mode_count(self) -> int:
        tol = _ZERO_TOL_FACTOR * max(self.scale, 1.0)
        return int(np.sum(self.all_eigenvalues < tol))


def _assemble_variant(basis, variant):
    if variant == "free":
        return assemble_heisenberg(basis)
    if variant == "dirichlet":
        return assemble_dirichlet_heisenberg(basis)
    raise ValueError(f"unknown variant {variant!r}")


def dense_sectors(lattice: SpinLattice, spin: SpinMagnitude, sectors=None, variant="free"):
    """Iterator over (basis, dense H) of each magnon number in the
    sequence `sectors` (default: all of them), H being the `variant`
    Hamiltonian.

    Raises ResourceLimitError at the call, before any basis is
    enumerated, if a requested sector has more than `DENSE_SECTOR_CAP`
    states.  Sectors are built as the iterator advances, so one dense
    block is held at a time.
    """
    if sectors is None:
        sectors = range(spin.two_s * lattice.nsites + 1)
    require_sector_dimensions(lattice.nsites, spin.two_s, sectors, DENSE_SECTOR_CAP)
    bases = (enumerate_sector_basis(lattice, spin, n) for n in sectors)
    return ((basis, _assemble_variant(basis, variant).to_dense()) for basis in bases)


def full_spectrum(
    lattice: SpinLattice,
    spin: SpinMagnitude,
    variant: str = "free",
) -> SectorSpectrum:
    """Dense eigenvalues of every magnon sector, ascending per sector.

    One sector is held at a time and solved in place: the block is freed
    before the next one is built, and LAPACK overwrites it instead of
    copying it, so a sector at `DENSE_SECTOR_CAP` = 6000 states costs
    its 288 MB once, not twice.  `check_finite` stays on, so a NaN or
    inf in a block raises ValueError.

    Raises ResourceLimitError when the total Hilbert dimension exceeds
    `DEFAULT_DIM_CAP` or any single sector exceeds `DENSE_SECTOR_CAP`;
    callers that only need the gap should use `spectral_gap`, which
    solves only the lowest sectors.
    """
    total_dim = spin.site_dim**lattice.nsites
    if total_dim > DEFAULT_DIM_CAP:
        raise ResourceLimitError(
            f"total dimension {total_dim} exceeds cap {DEFAULT_DIM_CAP}; "
            "restrict to individual sectors instead"
        )
    sector_eigs = []
    for _, h in dense_sectors(lattice, spin, variant=variant):
        # h is bitwise symmetric, so h.T is the same matrix in Fortran
        # order and LAPACK overwrites it without a copy; dsyevr returns
        # the eigenvalues ascending
        sector_eigs.append(sla.eigvalsh(h.T, overwrite_a=True))
        del h  # free the block before the next one is built
    return SectorSpectrum(lattice, spin, variant, sector_eigs)


def free_energy_from_eigenvalues(eigenvalues, beta: float, nsites: int) -> float:
    """f = -(1/(beta*M)) ln sum exp(-beta E), max-shifted for overflow safety."""
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
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
        if not 0 < beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {beta}")
        return -math.log(spin.site_dim) / beta
    spectrum = full_spectrum(SpinLattice.chain(ell), spin, variant)
    return free_energy(spectrum, beta)


@dataclass
class GapReport:
    ell: int
    two_s: int
    gap: float
    reference: float
    deviation: float
    residual: float  # largest residual ||H x - gap x|| of the gap vector over the sectors solved
    sector_dims: tuple  # dimension of each sector solved, in order
    sector: int  # the last magnon number n solved


# Largest residual accepted.  For a symmetric H some eigenvalue lies
# within ||Hx - gap x|| of gap, so this bounds the error of the gap well
# inside its 1e-9 acceptance tolerance.
_RESIDUAL_BOUND = 1e-10


def spectral_gap(lattice: SpinLattice, spin: SpinMagnitude) -> GapReport:
    """Smallest nonzero eigenvalue of the free chain, reported against
    2S(1 - cos(pi/ell)).

    Sector n (magnon number n <= S*ell) holds one copy of every
    total-spin multiplet with J >= S*ell - n and exactly one zero mode,
    the maximal-spin state.  The sectors n = 2, 3, ... are solved in
    turn, each built by `dense_sectors` (so sized against
    `DENSE_SECTOR_CAP` before it is enumerated) and solved for its two
    lowest eigenpairs by one dense `eigh`; the gap is the second
    eigenvalue of the last one.  The loop stops at the middle sector
    n = floor(S*ell), which holds every multiplet, or earlier, as soon
    as the Casimir floor H >= (2/l^3)(k0 - J(J+1)), k0 = S*ell(S*ell + 1),
    at the largest multiplet not yet held, J = S*ell - n - 1, exceeds
    gap + residual + tol: the floor decreases in J, so every multiplet
    left out lies above the gap, whatever the magnon number of the gap
    mode.  The floor is used only when the lattice holds every chain
    bond (x, x+1); on any other lattice the loop runs to the middle
    sector.

    Sector 1 is solved only when it is the middle sector.  Starting at
    sector 2 is exact, because sector 2 holds every multiplet of sector
    1, and sector 1 could never stop the loop: its floor, at
    J = S*ell - 2, is 8S/l^2 - 4/l^3, while the gap is at least
    8.99 S/l^2 for l >= 3.

    `sector_dims` lists the dimension of every sector solved and
    `sector` is the last n.  With tol = `_ZERO_TOL_FACTOR` * max(c, 1),
    c the largest absolute row sum of H (a bound on ||H||), raises
    RuntimeError when a sector's lowest eigenvalue is not within tol of
    zero, so the maximal-spin state is not its lowest; when the gap is
    not above tol, so that state is not the only zero mode; or when the
    residual exceeds `_RESIDUAL_BOUND`.  Raises ResourceLimitError,
    before enumerating it, when a sector the loop reaches has more than
    `DENSE_SECTOR_CAP` states: at sector 2, that refuses chains of more
    than 110 sites at 2S = 1 and of more than 109 sites at 2S = 2.
    """
    if lattice.dimension != 1:
        raise ValueError("the gap report is defined for chains")
    ell = lattice.nsites
    s_max = spin.s * ell
    middle = (spin.two_s * ell) // 2
    # every bond term is >= 0, so H >= H_chain, whose Casimir floor is the
    # one `boundlab.verify_casimir_lower_bound` certifies
    floor_applies = set(lattice.bonds()) >= {(x, x + 1) for x in range(ell - 1)}
    residual, dims = 0.0, []
    for n in range(min(2, middle), middle + 1):
        ((_, h),) = dense_sectors(lattice, spin, [n])
        tol = _ZERO_TOL_FACTOR * max(float(np.abs(h).sum(axis=1).max()), 1.0)
        w, x = sla.eigh(h, subset_by_index=[0, 1])
        if not abs(w[0]) <= tol:
            raise RuntimeError(
                f"lowest eigenvalue {w[0]!r} of sector {n} is not a zero mode "
                f"(tolerance {tol:.1e})"
            )
        # sector n holds every multiplet of sector n - 1
        gap = float(w[1])
        residual = max(residual, float(np.linalg.norm(h @ x[:, 1] - gap * x[:, 1])))
        dims.append(len(h))
        j_left = s_max - n - 1  # the largest total spin sector n does not hold
        floor = (2.0 / ell**3) * (s_max * (s_max + 1.0) - j_left * (j_left + 1.0))
        if floor_applies and floor > gap + residual + tol:
            break
    if not tol < gap:
        raise RuntimeError(
            f"lowest eigenvalue {gap!r} beside the maximal-spin state is a second "
            f"zero mode (tolerance {tol:.1e})"
        )
    if not residual <= _RESIDUAL_BOUND:
        raise RuntimeError(
            f"Ritz residual {residual:.1e} exceeds {_RESIDUAL_BOUND:.0e}"
        )
    reference = 2.0 * spin.s * (1.0 - math.cos(math.pi / ell))
    return GapReport(
        ell, spin.two_s, gap, reference, abs(gap - reference), residual, tuple(dims), n,
    )


def check_subadditivity(total_length: int, spin: SpinMagnitude, betas) -> list:
    """Certify L f_L >= l f_l + (L-l) f_{L-l} for every split of the chain,
    one certificate per beta in `betas`; each chain's spectrum is built
    once for all of them."""
    if total_length < 2:
        raise ValueError(f"subadditivity splits a chain of L >= 2 sites, got L={total_length}")
    # longest chain first: it has the largest sectors, so it refuses before any work
    chains = {
        ell: full_spectrum(SpinLattice.chain(ell), spin) for ell in range(total_length, 1, -1)
    }
    certs = []
    for beta in betas:
        f = {ell: free_energy(spectrum, beta) for ell, spectrum in chains.items()}
        f[1] = chain_free_energy(1, spin, beta)
        slacks = []
        for ell in range(1, total_length):
            rest = total_length - ell
            slacks.append(
                total_length * f[total_length] - ell * f[ell] - rest * f[rest]
            )
        certs.append(InequalityCertificate(
            name="subadditivity",
            params={"L": total_length, "two_s": spin.two_s, "beta": beta},
            slack=float(worst(slacks)),
            tolerance=1e-12 * max(1.0, abs(total_length * f[total_length])),
        ))
    return certs


def check_localization_bound(total_length: int, ell: int, spin: SpinMagnitude, betas) -> list:
    """Certify f_L <= (1 + 1/l)^(-1) f_l^D for L = k(l+1)+1, plus the
    companion check (1 + 1/l)^(-1) f_l^D >= f_l at the same l, one
    certificate per beta in `betas`; the three spectra are built once."""
    if ell < 2:
        raise ValueError(f"pinned-box size must be >= 2, got {ell}")
    k, r = divmod(total_length - 1, ell + 1)
    if r != 0 or k < 1:
        raise ValueError(
            f"L={total_length} is not of the form k*(ell+1)+1 for ell={ell}"
        )
    factor = 1.0 / (1.0 + 1.0 / ell)
    spectra = [
        full_spectrum(SpinLattice.chain(total_length), spin),
        full_spectrum(SpinLattice.chain(ell), spin, "dirichlet"),
        full_spectrum(SpinLattice.chain(ell), spin),
    ]
    certs = []
    for beta in betas:
        f_big, f_pin, f_small = (free_energy(spectrum, beta) for spectrum in spectra)
        slack_main = factor * f_pin - f_big
        slack_cross = factor * f_pin - f_small
        certs.append(InequalityCertificate(
            name="localization-upper-bound",
            params={"L": total_length, "ell": ell, "two_s": spin.two_s, "beta": beta},
            slack=float(worst([slack_main, slack_cross])),
            tolerance=1e-12 * max(1.0, abs(f_big)),
            extras={"slack_main": float(slack_main), "slack_cross": float(slack_cross)},
        ))
    return certs


# ---------------------------------------------------------------------------
# joint (energy, total-spin) decomposition of a sector
# ---------------------------------------------------------------------------

def sector_energy_spin_pairs(basis: MagnonSectorBasis, h: np.ndarray, s2: np.ndarray):
    """Simultaneous eigendata (energies, spins) of a sector, given its
    basis, its dense Hamiltonian `h` (as yielded by `dense_sectors`) and
    its dense Casimir `s2` (`assemble_total_spin_squared`): two arrays,
    energy E and total spin t of each eigenstate, t ascending and E
    ascending within each t.

    The Casimir commutes with the Hamiltonian, so its eigenspaces are
    invariant blocks; each block is diagonalized separately, giving the
    exact quantum number t alongside every energy.
    """
    w, vecs = sla.eigh(s2)
    s_max = basis.spin.s * basis.lattice.nsites
    t_min = abs(basis.n - s_max)
    t_ladder = np.arange(t_min, s_max + 0.5, 1.0)
    targets = t_ladder * (t_ladder + 1.0)
    energies, spins = [], []
    for t, target in zip(t_ladder, targets):
        sel = np.abs(w - target) < 0.25
        if not np.any(sel):
            continue
        block = vecs[:, sel]
        energies.append(sla.eigvalsh(block.T @ h @ block))
        spins.append(np.full(len(energies[-1]), t))
    energies, spins = np.concatenate(energies), np.concatenate(spins)
    if len(energies) != basis.dim:
        raise RuntimeError("Casimir eigenvalues did not cluster onto t(t+1) ladder")
    return energies, spins


# ---------------------------------------------------------------------------
# variational upper bound from the projected free-boson state
# ---------------------------------------------------------------------------

# Subset vectors k per Ryser block: each (dim, block) work array stays
# under 25 MB at the largest sector `dense_sectors` admits.
_RYSER_BLOCK = 512


def free_boson_propagator(basis: MagnonSectorBasis, beta: float) -> np.ndarray:
    """<m|e^{-beta T}|c> for every pair of states of a capped sector.

    Free-boson amplitudes are permanents of the one-body propagator
    G = e^{-beta t}, t = S*(2d*1 - adjacency) the Dirichlet hopping matrix:
    <m|e^{-beta T}|c> = perm(G[r(m), r(c)]) / sqrt(prod m_x! prod c_x!),
    where r(m) repeats site x m_x times.  The permanents come from Ryser's
    formula with the repeated columns of r(c) grouped by site,
    perm = (-1)^n sum_{0 <= k <= c} (-1)^{|k|} prod_x C(c_x, k_x) prod_y (G k)_y^{m_y},
    evaluated for all pairs at once as products F @ W^T over blocks of the
    vectors k.
    """
    lattice, states, n = basis.lattice, basis.states, basis.n
    x, y = np.array(lattice.bonds()).T
    t = np.diag(np.full(lattice.nsites, 2.0 * lattice.dimension))
    t[x, y] = t[y, x] = -1.0
    eps, modes = sla.eigh(basis.spin.s * t)
    g = (modes * np.exp(-beta * eps)) @ modes.T
    ks = np.indices((basis.spin.two_s + 1,) * lattice.nsites)
    ks = ks.reshape(lattice.nsites, -1).T
    ks = ks[ks.sum(axis=1) <= n]  # larger k exceed every c
    e = np.arange(basis.spin.two_s + 1)
    powers = (ks @ g)[None] ** e[:, None, None]  # [e, k, y] = (G k)_y^e; G is symmetric
    choose = comb(e[:, None, None], ks[None])  # [e, k, x] = C(e, k_x)
    sign = (-1.0) ** (n - ks.sum(axis=1))
    perm = np.zeros((basis.dim, basis.dim))
    for lo in range(0, len(ks), _RYSER_BLOCK):
        block = slice(lo, lo + _RYSER_BLOCK)
        w = np.outer(np.ones(basis.dim), sign[block])  # w[c, k]: sign times binomials
        f = np.ones_like(w)  # f[m, k] = prod_y (G k)_y^{m_y}
        for site in range(lattice.nsites):
            f *= powers[states[:, site], block, site]
            w *= choose[states[:, site], block, site]
        perm += f @ w.T
    norm = np.sqrt(factorial(states).prod(axis=1))
    return perm / np.outer(norm, norm)


def gibbs_variational_upper(ell: int, spin: SpinMagnitude, beta: float):
    """Gibbs variational bound with the projected free-boson trial state.

    The trial state is Gamma = P e^{-beta T} P / tr(P e^{-beta T} P), with
    P the occupancy projector and T the pinned free-boson hopping
    operator.  P vanishes off the hard core, so only the capped sectors
    n = 0..2S*l enter, and each is evaluated exactly: its matrix of
    e^{-beta T} is filled from <m|e^{-beta T}|c> =
    perm(G[r(m), r(c)]) / sqrt(prod m_x! prod c_x!) with
    G = e^{-beta t} the l x l Dirichlet propagator
    (`free_boson_propagator`).  The free-boson trace is the closed form
    prod_p (1 - e^{-beta S eps(p)})^{-1} over the pinned modes.

    Returns (value, certificate, details): `value` is the per-site bound
    (1/l)[tr H^D Gamma + (1/beta) tr Gamma ln Gamma]; the certificate
    checks value >= f_l^D; `details` reports the trial-state trace
    ratio z_p/z_free, the eigenvalue sum of Gamma, and the gap to the
    plain free-boson pressure.
    """
    from .magnongas import dirichlet_modes, free_boson_sum

    z_p = 0.0
    mu_total = 0.0
    energy_num = 0.0
    xlogx_sum = 0.0
    floor = 1e-30
    pinned_eigs = []
    for basis, hd in dense_sectors(SpinLattice.chain(ell), spin, variant="dirichlet"):
        pinned_eigs.append(sla.eigvalsh(hd))
        exp_t = free_boson_propagator(basis, beta)
        p = assemble_projector_p(basis)
        m = (p[:, None] * exp_t) * p[None, :]
        z_p += float(np.trace(m))
        energy_num += float(np.sum(hd * m.T))
        mu = sla.eigvalsh(m)
        mu_total += float(mu.sum())
        mu = mu[mu > floor]
        xlogx_sum += float(np.sum(mu * np.log(mu)))

    energy = energy_num / z_p
    entropy_term = xlogx_sum / z_p - math.log(z_p)
    value = (energy + entropy_term / beta) / ell
    f_pin = free_energy_from_eigenvalues(np.concatenate(pinned_eigs), beta, ell)
    x = beta * spin.s * dirichlet_modes(ell, 1).energies
    z_free = math.exp(-float(np.sum(np.log1p(-np.exp(-x)))))
    free_boson_value = free_boson_sum(ell, 1, beta, spin.s)
    # eigenvalue sum over trace: a genuine consistency check on the
    # eigendecompositions feeding the entropy term
    gamma_trace = mu_total / z_p
    cert = InequalityCertificate(
        name="variational-dominance",
        params={"ell": ell, "two_s": spin.two_s, "beta": beta},
        slack=float(value - f_pin),
        tolerance=1e-10 * max(1.0, abs(f_pin)),
    )
    details = {
        "value": value,
        "f_dirichlet": f_pin,
        "free_boson_value": free_boson_value,
        "gap_to_free_boson": value - free_boson_value,
        "gamma_trace": gamma_trace,
        "trial_trace_ratio": z_p / z_free,
    }
    return value, cert, details
