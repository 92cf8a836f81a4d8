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
it solves the sectors n = 1, 2, ... in turn (each refused above
`DEFAULT_DIM_CAP` states before it is enumerated) and stops at the
middle sector, which holds every multiplet, or as soon as the Casimir
floor of the largest total spin not yet held lies above the gap.  Each
sector is split over the characters of its symmetry group, the
reflection and, on the self-conjugate sector, the spin flip
(`symmetry_blocks`), each block folded directly from the columns of the
orbit representatives.  The blocks are built and solved one at a time,
and one lowest eigenvalue per block gives the sector's: the trivial
block is deflated by its known zero mode, and every block is solved by
`lanczos`, an unrestarted three-term recurrence that keeps the Krylov
vectors it makes and builds the Ritz vector from them in one pass,
checked by its residual.  `full_spectrum` stays unreduced: it holds one
dense sector at a time and diagonalizes it in its own storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
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
    ground_multiplet_vector,
    heisenberg_columns,
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
    solves only the lowest sectors sparsely.
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
    residual: float  # largest Ritz residual ||Ax - theta x|| over the operators A solved
    # dimensions of the blocks solved, sector by sector from n = 1, each
    # sector's in the character order of `symmetry_blocks`: two
    # reflection-parity blocks (even, odd), or up to four reflection x
    # spin-flip blocks on the self-conjugate sector 2n = 2S*ell, with a
    # character that has no state left out
    block_dims: tuple
    matvecs: int  # Lanczos operator applications (one per step) over all blocks
    sector: int  # the last magnon number n solved


# Fixed seed of the Lanczos start vector, so a gap is bit-reproducible.
_LANCZOS_SEED = 20260811
# Relative Lanczos residual estimate at which the lowest Ritz value stops.
_LANCZOS_TOL = 1e-13
# Largest Ritz residual accepted.  For a symmetric H some eigenvalue lies
# within ||Hv - theta v|| of theta, so this bounds the error of the gap
# well inside its 1e-9 acceptance tolerance.
_RITZ_RESIDUAL_BOUND = 1e-10
# A Lanczos beta at or below this multiple of the operator scale seen so
# far is roundoff: the Krylov space is invariant and the run stops.
_BREAKDOWN_FACTOR = 1e-12


def symmetry_blocks(basis: MagnonSectorBasis):
    """(u, c, blocks): the sector's Heisenberg Hamiltonian split over the
    characters of its symmetry group, with u the image of
    `ground_multiplet_vector` in the trivial block, c the largest
    absolute row sum of H (a bound on ||H||), and `blocks` an iterator
    that builds one (character, CSR block) pair at a time.

    The group is {1, P}, P the mirror map that sends each state to its
    site-reversed image, and {1, P, F, PF} when 2n = 2S*M, where the
    spin flip F sends n_x to 2S - n_x.  On such a self-conjugate sector
    the base-(2S+1) keys of a state and its flip add up to the same
    constant, so F maps row i to row dim - 1 - i.  A character is the
    tuple of its signs chi(g) over the group elements in that order:
    (1, p) for {1, P}, and (1, p, f, pf) for p, f in (+1, -1) for the
    larger group, the trivial character first.

    Each orbit is represented by its lowest row a.  The character-chi
    basis vector of a is |orbit_a|^(-1/2) times the sum of chi(g) e_t
    over the distinct images t = g a; it vanishes, and a is left out of
    the block, when chi is not trivial on the stabilizer of a.  H commutes
    with the group, so only the representatives' columns of H are built
    (`heisenberg_columns`), and each entry H[t, b] with t = g a is
    folded onto row a with the weight chi(g) sqrt(|orbit_b| / |orbit_a|).
    Blocks are indexed by their representatives in ascending order, and
    a character with no representative gives no block.  The iterator
    holds the folded columns but not `basis`, so a caller that drops the
    basis keeps only what the blocks are built from.
    """
    idx = np.arange(basis.dim)
    mirror = basis.state_index(basis.states[:, ::-1])
    images = [idx, mirror]
    signs = [(1, p) for p in (1, -1)]
    if 2 * basis.n == basis.spin.two_s * basis.lattice.nsites:
        images += [idx[::-1], mirror[::-1]]
        signs = [(1, p, f, p * f) for p in (1, -1) for f in (1, -1)]
    images, signs = np.stack(images), np.array(signs)
    rep = images.min(axis=0)
    # every element is an involution, so the first g that takes t to its
    # representative a also takes a to t
    element = np.argmax(images == rep, axis=0)
    stabilizer = images == idx
    orbit = len(images) / stabilizer.sum(axis=0)
    reps = idx[rep == idx]
    position = np.cumsum(rep == idx) - 1  # block row of each representative
    rows, cols, vals = heisenberg_columns(basis, reps)
    c = float(np.bincount(cols, weights=np.abs(vals), minlength=basis.dim).max())
    target = rep[rows]
    vals = vals * np.sqrt(orbit[cols] / orbit[target])
    entry_element, rows, cols = element[rows], position[target], position[cols]
    u = ground_multiplet_vector(basis)[reps] * np.sqrt(orbit[reps])
    stabilizer = stabilizer[:, reps]

    def blocks():
        for chi in signs:
            member = ~stabilizer[chi < 0].any(axis=0)
            size = int(member.sum())
            if size == 0:
                continue
            at = np.cumsum(member) - 1
            keep = member[rows] & member[cols]
            yield tuple(chi.tolist()), sp.csr_matrix(
                ((vals * chi[entry_element])[keep], (at[rows[keep]], at[cols[keep]])),
                shape=(size, size),
            )

    return u, c, blocks()


def lanczos(apply, dim, seed, maxiter=1000):
    """Lowest eigenpair (theta, x) of the symmetric operator `apply` on
    R^dim by unrestarted three-term Lanczos from a seeded Gaussian start
    vector, with no reorthogonalization.

    Each step keeps the tridiagonal coefficients alpha_j, beta_j and the
    normalized Krylov vector v_j it makes.  Every 10 steps, and at step
    m = dim, it takes the lowest eigenpair (theta, y) of T_m and stops
    once the residual estimate |beta_{m+1} y_m| is at most
    `_LANCZOS_TOL` * max(1, |theta|) (m = dim alone is no stop: without
    reorthogonalization the first dim vectors need not span the space);
    lost orthogonality only adds ghost copies above the extreme Ritz
    value, which converges regardless.  It returns
    x = sum_j y_j v_j / ||.|| from the stored vectors, so m steps cost m
    operator applications.  The stored basis costs m * dim * 8 bytes,
    so at most `maxiter` * dim * 8 bytes (8 kB per state) before the
    RuntimeError.  The gap's blocks are small: every chain of up to 24
    sites at S = 1/2 or 16 sites at S = 1 stops at a sector of at most
    276 states, and no block of theirs takes more than 90 steps.  A
    beta at roundoff of the operator scale means the Krylov space is
    invariant: the run stops there, with theta exact on that space.
    Inner products are taken as (w * v).sum(): on long vectors a BLAS
    dot product can cost as much as the sparse product itself.  Raises
    RuntimeError when maxiter steps do not converge.
    """
    start = np.random.default_rng(seed).standard_normal(dim)
    start /= np.linalg.norm(start)
    alphas, betas = [], []
    krylov = [start]
    v_prev, v, beta = np.zeros(dim), start, 0.0
    scale = 0.0
    for m in range(1, maxiter + 1):
        w = apply(v)
        alpha = float((w * v).sum())
        w -= alpha * v
        w -= beta * v_prev
        beta = math.sqrt((w * w).sum())
        alphas.append(alpha)
        betas.append(beta)
        scale = max(scale, abs(alpha) + beta)
        invariant = beta <= _BREAKDOWN_FACTOR * scale
        if invariant or m % 10 == 0 or m == dim:
            (theta,), y = sla.eigh_tridiagonal(
                alphas, betas[:-1], select="i", select_range=(0, 0)
            )
            if invariant or abs(beta * y[-1, 0]) <= _LANCZOS_TOL * max(1.0, abs(theta)):
                break
        v_prev, v = v, w / beta
        krylov.append(v)
    else:
        raise RuntimeError(f"Lanczos did not converge in {maxiter} steps")
    x = y[0, 0] * start
    for coeff, v in zip(y[1:, 0], krylov[1:]):
        x += coeff * v
    return float(theta), x / np.linalg.norm(x)


def _lowest_eigenvalue(block, deflate=None):
    """(theta, residual, matvecs): the lowest eigenvalue of the operator
    A = block, or A = block + c u u^T when `deflate` is (c, u), found by
    `lanczos`, the Ritz residual ||Ax - theta x|| of its vector, and the
    number of Lanczos steps (one operator application each; the residual
    product is not counted).  The rank-one term is applied as
    u * (u * x).sum() for the reason given at `lanczos`."""
    matvecs = 0

    def apply(x):
        nonlocal matvecs
        matvecs += 1
        y = block @ x
        if deflate is not None:
            c, u = deflate
            y += c * u * (u * x).sum()
        return y

    theta, x = lanczos(apply, block.shape[0], _LANCZOS_SEED)
    steps = matvecs
    return theta, float(np.linalg.norm(apply(x) - theta * x)), steps


def spectral_gap(lattice: SpinLattice, spin: SpinMagnitude) -> GapReport:
    """Smallest nonzero eigenvalue of the free chain, reported against
    2S(1 - cos(pi/ell)).

    Sector n (magnon number n <= S*ell) holds one copy of every
    total-spin multiplet with J >= S*ell - n and exactly one zero mode,
    the maximal-spin state v.  The sectors n = 1, 2, ... are solved in
    turn, each sized against `DEFAULT_DIM_CAP` before it is enumerated,
    and the gap is the lowest nonzero eigenvalue of the last one.  The
    loop stops at the middle sector n = floor(S*ell), which holds every
    multiplet, or earlier, as soon as the Casimir floor
    H >= (2/l^3)(k0 - J(J+1)), k0 = S*ell(S*ell + 1), at the largest
    multiplet not yet held, J = S*ell - n - 1, exceeds gap + residual +
    tol: the floor decreases in J, so every multiplet left out lies
    above the gap, whatever the symmetry or magnon number of the gap
    mode.  The floor is used only when the lattice holds every chain bond
    (x, x+1); on any other lattice the loop runs to the middle sector.

    H commutes with the chain's reflection, and with the spin flip on
    the self-conjugate sector 2n = 2S*ell, so each sector splits into
    two or four blocks, one per character of that group
    (`symmetry_blocks`).  The blocks are built and solved one at a time,
    each freed before the next is built, and the basis is dropped once
    u and c are taken.  v is invariant, with image u in the trivial
    block, so a sector's lowest nonzero eigenvalue is the smallest of
    the lowest eigenvalue of the deflated trivial block H_1 + c u u^T
    (c >= ||H|| moves the zero mode to the top of the spectrum) and the
    lowest eigenvalues of the other blocks.  Every block, of one state
    or of many, is solved by `lanczos` (seeded random start vector, so
    gaps are bit-reproducible); `matvecs` counts its operator
    applications over every sector solved, `block_dims` lists every
    block solved in order and `sector` is the last n.  A Ritz residual is
    taken on the operator Lanczos solved, so on H_1 + c u u^T for the
    trivial block: that operator has the spectrum of H_1 on the
    complement of u, plus c >= ||H|| >= gap.

    Raises ResourceLimitError, before enumerating it, when a sector the
    loop reaches has more than `DEFAULT_DIM_CAP` states.  With the
    tolerance tol = `_ZERO_TOL_FACTOR` * max(c, 1), raises RuntimeError
    when ||H_1 u|| (= ||H v||) exceeds tol in a sector, so v is not a
    zero mode; when the gap is not above tol, so v is not the only zero
    mode; or when a Ritz residual exceeds `_RITZ_RESIDUAL_BOUND`.
    """
    if lattice.dimension != 1:
        raise ValueError("the gap report is defined for chains")
    ell = lattice.nsites
    s_max = spin.s * ell
    middle = (spin.two_s * ell) // 2
    # every bond term is >= 0, so H >= H_chain, whose Casimir floor is the
    # one `boundlab.verify_casimir_lower_bound` certifies
    floor_applies = set(lattice.bonds()) >= {(x, x + 1) for x in range(ell - 1)}
    residual, dims, matvecs = 0.0, [], 0
    for n in range(1, middle + 1):
        require_sector_dimensions(ell, spin.two_s, [n], DEFAULT_DIM_CAP)
        u, c, blocks = symmetry_blocks(enumerate_sector_basis(lattice, spin, n))
        tol = _ZERO_TOL_FACTOR * max(c, 1.0)
        thetas = []
        for chi, block in blocks:
            deflate = None
            if min(chi) > 0:  # the trivial block, which holds u
                zero_resid = float(np.linalg.norm(block @ u))
                if not zero_resid <= tol:
                    raise RuntimeError(
                        f"residual ||H v|| = {zero_resid:.1e} of the maximal-spin vector "
                        f"exceeds {tol:.1e}"
                    )
                deflate = (c, u)
            theta, resid, steps = _lowest_eigenvalue(block, deflate)
            thetas.append(theta)
            residual = max(residual, resid)
            dims.append(block.shape[0])
            matvecs += steps
            del block  # free the block before the next one is built
        # sector n holds every multiplet of sector n - 1
        gap = min(thetas)
        j_left = s_max - n - 1  # the largest total spin sector n does not hold
        floor = (2.0 / ell**3) * (s_max * (s_max + 1.0) - j_left * (j_left + 1.0))
        if floor_applies and floor > gap + residual + tol:
            break
    if not tol < gap:
        raise RuntimeError(
            f"lowest eigenvalue {gap!r} beside the maximal-spin state is a second "
            f"zero mode (tolerance {tol:.1e})"
        )
    if not residual <= _RITZ_RESIDUAL_BOUND:
        raise RuntimeError(
            f"Ritz residual {residual:.1e} exceeds {_RITZ_RESIDUAL_BOUND:.0e}"
        )
    reference = 2.0 * spin.s * (1.0 - math.cos(math.pi / ell))
    return GapReport(
        ell, spin.two_s, gap, reference, abs(gap - reference), residual, tuple(dims),
        matvecs, n,
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
