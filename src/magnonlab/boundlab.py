"""Direct matrix certification of the operator inequalities behind the
free-energy bounds.

Every verifier assembles the two sides of one inequality on a small
sector, forms the difference, and reports the minimum eigenvalue as the
certificate slack.  Random-state property checks draw from per-job
seeded streams so grid cells are order-independent.  Sector rows come
from `MagnonSectorBasis.state_index` (one state or a batch) and
`hop_targets`, and operators from the shared hop kernel; this module
keeps no basis lookup of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .basis import (
    MagnonSectorBasis,
    SpinLattice,
    SpinMagnitude,
    enumerate_sector_basis,
    require_sector_dimensions,
)
from .certificates import InequalityCertificate, worst
from .operators import (
    assemble_dirichlet_heisenberg,
    assemble_free_boson_t,
    assemble_neumann_laplacian,
    assemble_projector_p,
    assemble_total_spin_squared,
)
from .spectra import (
    DENSE_SECTOR_CAP,
    dense_sectors,
    free_energy_from_eigenvalues,
    sector_energy_spin_pairs,
)

PSD_TOL_FACTOR = 1e-10


def rng_for(root_seed: int, *key_ints) -> np.random.Generator:
    """Deterministic per-job stream derived from a root seed and the job's
    parameter tuple; results do not depend on execution order."""
    ss = np.random.SeedSequence(root_seed, spawn_key=tuple(int(k) for k in key_ints))
    return np.random.default_rng(ss)


def _psd_certificate(name, params, difference, norm_scale):
    return InequalityCertificate(
        name=name,
        params=params,
        slack=float(sla.eigvalsh(difference)[0]),
        tolerance=PSD_TOL_FACTOR * max(norm_scale, 1e-300),
    )


# ---------------------------------------------------------------------------
# projected pinned Hamiltonian below the free hopping operator
# ---------------------------------------------------------------------------

def verify_php_leq_t(ell: int, spin: SpinMagnitude, n: int) -> InequalityCertificate:
    """Certify T - P H^D P >= 0 on the uncapped n-boson sector of a
    pinned chain of length ell."""
    require_sector_dimensions(ell, n, [n], DENSE_SECTOR_CAP)  # uncapped: the cap is n
    basis = enumerate_sector_basis(SpinLattice.chain(ell), spin, n, capped=False)
    t = assemble_free_boson_t(basis).to_dense()
    scale = float(np.abs(sla.eigvalsh(t)).max())
    hd = assemble_dirichlet_heisenberg(basis).to_dense()
    p = assemble_projector_p(basis)
    # T - P H^D P is formed in T's storage and H^D is freed before
    # eigvalsh copies the difference: two dense copies at most are alive
    hd *= p[:, None]
    hd *= p[None, :]
    t -= hd
    del hd
    return _psd_certificate(
        "projected-hopping-dominance", {"ell": ell, "two_s": spin.two_s, "n": n}, t, scale
    )


# ---------------------------------------------------------------------------
# Casimir energy floor
# ---------------------------------------------------------------------------

def verify_casimir_lower_bound(ell: int, spin: SpinMagnitude) -> InequalityCertificate:
    """Certify H >= (2/l^3)(Sl(Sl+1) - S_tot^2) on every sector, and the
    chained scalar floor E >= (2S/l^2)(Sl - t) on every joint (E, t)."""
    s = spin.s
    s_max = s * ell
    k0 = s_max * (s_max + 1.0)
    matrix_slacks = []
    chain_slacks = []
    scale = 1.0
    for basis, h in dense_sectors(SpinLattice.chain(ell), spin):
        s2 = assemble_total_spin_squared(basis).to_dense()
        diff = h - (2.0 / ell**3) * (k0 * np.eye(basis.dim) - s2)
        eigs = sla.eigvalsh(diff)
        matrix_slacks.append(float(eigs[0]))
        scale = max(scale, float(np.abs(sla.eigvalsh(h)).max()))
        energies, spins = sector_energy_spin_pairs(basis, h, s2)
        chain_slacks.append(energies - (2.0 * s / ell**2) * (s_max - spins))
    matrix_slack = worst(matrix_slacks)
    chain_slack = float(worst(np.concatenate(chain_slacks)))
    return InequalityCertificate(
        name="casimir-energy-floor",
        params={"ell": ell, "two_s": spin.two_s},
        slack=worst([matrix_slack, chain_slack]),
        tolerance=PSD_TOL_FACTOR * scale,
        extras={"matrix_slack": matrix_slack, "scalar_chain_slack": chain_slack},
    )


# ---------------------------------------------------------------------------
# coordinate-collapse map and the free-Laplacian floor
# ---------------------------------------------------------------------------

def neumann_boson_laplacian(nsites: int, n: int) -> np.ndarray:
    """Second-quantized free-boundary graph Laplacian on the n-boson
    sector of a path of `nsites` sites: diagonal sum_a deg(a) m_a,
    hopping -sqrt((m_b+1) m_a)."""
    if nsites == 1:  # SpinLattice needs two sites; one site has nothing to hop
        return np.zeros((1, 1))
    basis = enumerate_sector_basis(SpinLattice.chain(nsites), SpinMagnitude(1), n, capped=False)
    return assemble_neumann_laplacian(basis).to_dense()


def coordinate_collapse_matrix(basis: MagnonSectorBasis):
    """Orthonormal-basis matrix of the collapse map.

    Maps the n-boson sector on [1, l] to the n-boson sector on
    [1, l-n+1]: states with any doubly occupied site are annihilated;
    a distinct-coordinate state goes to its collapsed occupation with
    amplitude 1/sqrt(prod_a m_a!), the multinomial factor relating
    symmetric wave-function values to occupation amplitudes.
    """
    ell = basis.lattice.nsites
    n = basis.n
    if n > ell:
        raise ValueError(f"need n <= ell, got n={n} ell={ell}")
    target_sites = ell - n + 1
    cols = np.flatnonzero((basis.states <= 1).all(axis=1))
    _, sites = np.nonzero(basis.states[cols])
    collapsed = sites.reshape(len(cols), n) - np.arange(n)
    images = np.zeros((len(cols), target_sites), dtype=np.int64)
    np.add.at(images, (np.arange(len(cols))[:, None], collapsed), 1)
    # site by site, in site order, to keep the rounding of the committed
    # ledgers; dividing by sqrt(0!) = sqrt(1!) = 1 is exact
    root_factorial = np.sqrt([float(math.factorial(m)) for m in range(n + 1)])
    vals = np.ones(len(cols))
    for m in images.T:
        vals /= root_factorial[m]
    if target_sites == 1:  # SpinLattice needs two sites; one site holds one state
        t_states, rows = np.array([[n]]), np.zeros(len(cols), dtype=np.int64)
    else:
        target = enumerate_sector_basis(
            SpinLattice.chain(target_sites), basis.spin, n, capped=False
        )
        t_states, rows = target.states, target.state_index(images)
    mat = sp.coo_matrix(
        (vals, (rows, cols)), shape=(t_states.shape[0], basis.dim)
    ).tocsr()
    return mat, t_states


def verify_laplacian_lower_bound(
    ell: int, spin: SpinMagnitude, n: int
) -> InequalityCertificate:
    """Certify H|_n - S V^T (-Laplacian) V >= 0 on the physical sector:
    the collapsed coordinates see at least the free-boundary Laplacian
    of the shrunken box."""
    ((basis, h),) = dense_sectors(SpinLattice.chain(ell), spin, [n])
    scale = float(np.abs(sla.eigvalsh(h)).max())
    vmat, _ = coordinate_collapse_matrix(basis)
    lap = neumann_boson_laplacian(ell - n + 1, n)
    rhs = vmat.T @ (lap @ vmat.toarray())
    # the difference is formed in H's storage and the collapsed Laplacian
    # is freed before eigvalsh copies it
    rhs *= spin.s
    h -= rhs
    del rhs
    return _psd_certificate(
        "coordinate-laplacian-bound", {"ell": ell, "two_s": spin.two_s, "n": n}, h, scale
    )


def verify_halfspin_quadratic_form_equality(
    ell: int, n: int, samples: int = 100, seed: int = 7
) -> InequalityCertificate:
    """For S = 1/2 the energy form equals the graph Dirichlet form on
    distinct-coordinate configurations: <psi|H psi> = S sum |psi(X) - psi(Y)|^2
    over unordered single-step neighbor pairs.  Checked on random states."""
    spin = SpinMagnitude(1)
    ((basis, h),) = dense_sectors(SpinLattice.chain(ell), spin, [n])
    st = basis.states
    i, x = np.nonzero((st[:, :-1] == 1) & (st[:, 1:] == 0))
    pairs = list(zip(i.tolist(), basis.hop_targets(i, x, x + 1).tolist()))
    rng = rng_for(seed, 5, ell, n)
    slacks = []
    for _ in range(max(samples, 1)):
        psi = rng.standard_normal(basis.dim)
        psi /= np.linalg.norm(psi)
        lhs = float(psi @ h @ psi)
        rhs = spin.s * float(sum((psi[i] - psi[j]) ** 2 for i, j in pairs))
        slacks.append(-abs(lhs - rhs))
    return InequalityCertificate(
        name="halfspin-quadratic-form",
        params={"ell": ell, "n": n, "samples": samples},
        slack=worst(slacks),
        tolerance=1e-10,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# two-particle density bounds
# ---------------------------------------------------------------------------

@dataclass
class CoordinateState:
    """Normalized n-boson state stored on its occupation basis."""

    basis: MagnonSectorBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        nrm = np.linalg.norm(self.amplitudes)
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        self.amplitudes = np.asarray(self.amplitudes, dtype=float) / nrm

    @classmethod
    def from_occupation(cls, basis, occ):
        v = np.zeros(basis.dim)
        v[basis.state_index(occ)] = 1.0
        return cls(basis, v)


def haar_random_state(basis: MagnonSectorBasis, rng) -> CoordinateState:
    return CoordinateState(basis, rng.standard_normal(basis.dim))


def gibbs_random_state(basis, eigh_pair, beta, rng) -> CoordinateState:
    """Draw an eigenstate of the sector block with probability proportional
    to its Boltzmann weight; `eigh_pair` is the (w, u) of `sla.eigh` on
    the block, computed once by the caller for all its draws."""
    w, u = eigh_pair
    logp = -beta * (w - w.min())
    p = np.exp(logp)
    p /= p.sum()
    idx = rng.choice(len(w), p=p)
    return CoordinateState(basis, u[:, idx])


def two_particle_density(state: CoordinateState) -> np.ndarray:
    """rho(x, y) = <n_x n_y> - delta_xy <n_x>: the pair density of the
    state; symmetric, entrywise nonnegative, sums to n(n-1)."""
    occ = state.basis.states.astype(float)
    w = state.amplitudes**2
    rho = occ.T @ (w[:, None] * occ)
    rho[np.diag_indices_from(rho)] -= occ.T @ w
    return rho


def verify_vnorm_lower_bound(state: CoordinateState, vmat) -> InequalityCertificate:
    """Certify |V psi|^2 >= 1 - (1/2) sum rho(x,x) - sum rho(x,x+1):
    collapsing distinct coordinates loses at most the doubly occupied
    and neighboring-pair weight.  `vmat` is the collapse matrix V of the
    state's sector (`coordinate_collapse_matrix(basis)[0]`)."""
    basis = state.basis
    vpsi = vmat @ state.amplitudes
    rho = two_particle_density(state)
    rhs = 1.0 - 0.5 * float(np.trace(rho)) - float(
        np.sum(np.diag(rho, 1))
    )
    slack = float(vpsi @ vpsi) - rhs
    return InequalityCertificate(
        name="vnorm-lower-bound",
        params={"ell": basis.lattice.nsites, "two_s": basis.spin.two_s, "n": basis.n},
        slack=slack,
        tolerance=1e-10,
        extras={"vnorm_sq": float(vpsi @ vpsi), "rhs": rhs},
    )


def verify_density_bounds(state: CoordinateState, hamiltonian_dense) -> tuple:
    """Certify the pair-density bounds against the energy of the state:

    sum_x rho(x+1, x) <= (4/l) n(n-1) + 4 (n-1) sqrt(n/S) <H>^(1/2)
    sum_x rho(x, x)   <= (4/l) n(n-1) + (4+sqrt 3)(n-1) sqrt(n/S) <H>^(1/2)

    with <H> taken in the free chain, whose dense sector matrix is
    `hamiltonian_dense`.  Returns (offdiag, diag) certificates.
    """
    basis = state.basis
    ell = basis.lattice.nsites
    n = basis.n
    s = basis.spin.s
    energy = max(0.0, float(state.amplitudes @ hamiltonian_dense @ state.amplitudes))
    rho = two_particle_density(state)
    off = float(np.sum(np.diag(rho, 1)))
    diag = float(np.trace(rho))
    base = 4.0 / ell * n * (n - 1)
    root = (n - 1) * math.sqrt(n / s) * math.sqrt(energy)
    params = {"ell": ell, "two_s": basis.spin.two_s, "n": n}
    cert_off = InequalityCertificate(
        name="pair-density-offdiag-bound",
        params=params,
        slack=base + 4.0 * root - off,
        tolerance=1e-10,
        extras={"lhs": off, "energy": energy},
    )
    cert_diag = InequalityCertificate(
        name="pair-density-diag-bound",
        params=params,
        slack=base + (4.0 + math.sqrt(3.0)) * root - diag,
        tolerance=1e-10,
        extras={"lhs": diag, "energy": energy},
    )
    return cert_off, cert_diag


# ---------------------------------------------------------------------------
# energy truncation
# ---------------------------------------------------------------------------

def verify_low_energy_truncation(ell: int, spin: SpinMagnitude, betas) -> list:
    """Certify Tr e^{-beta H} <= 1 + Tr e^{-beta H} 1_{H < E0} with
    E0 = -l f_l(beta/2), and that every counted state with minimal
    3-component for its multiplet sits in a sector n < N0 = E0 l^2/(2S),
    one certificate per beta in `betas`; the (E, t) pairs of every
    sector are computed once for all of them."""
    s = spin.s
    s_max = s * ell
    per_sector = [
        sector_energy_spin_pairs(basis, h, assemble_total_spin_squared(basis).to_dense())
        for basis, h in dense_sectors(SpinLattice.chain(ell), spin)
    ]
    energies = np.concatenate([e for e, _ in per_sector])
    spins = np.concatenate([t for _, t in per_sector])
    sectors = np.concatenate([np.full(len(e), n) for n, (e, _) in enumerate(per_sector)])
    # the states whose 3-component is minimal for their multiplet
    lowest = np.abs(spins - (s_max - sectors)) < 0.25
    certs = []
    for beta in betas:
        e0 = -ell * free_energy_from_eigenvalues(energies, beta / 2.0, ell)
        n0 = e0 * ell**2 / (2.0 * s)
        lhs = float(np.exp(-beta * energies).sum())
        rhs = 1.0 + float(np.exp(-beta * energies[energies < e0]).sum())
        trunc_slack = rhs - lhs
        sector_slacks = n0 - sectors[lowest & (energies < e0)]
        sector_slack = float(worst(sector_slacks)) if sector_slacks.size else n0
        certs.append(InequalityCertificate(
            name="low-energy-truncation",
            params={"ell": ell, "two_s": spin.two_s, "beta": beta},
            slack=worst([trunc_slack, sector_slack]),
            tolerance=1e-12 * max(1.0, lhs),
            extras={
                "truncation_slack": trunc_slack,
                "sector_restriction_slack": sector_slack,
                "e0": e0,
                "n0": n0,
            },
        ))
    return certs
