"""Sector diagonalization, exact finite-size free energies, and the
variational upper bound with the projected free-boson trial state.

Every dense matrix is filled from triplets by `operators.dense_block`.
Every sector is sized against `DENSE_SECTOR_CAP` before any basis is
enumerated: `dense_sectors` does so for the sectors it is asked for and
then yields (basis, dense H) one sector at a time, and `full_spectrum`
does so for all of them and then builds each sector's triplets itself.
The one exception is `boundlab.verify_php_leq_t`, whose uncapped
free-boson sectors neither builds: it sizes each against the same
`DENSE_SECTOR_CAP` and enumerates it itself.  Per-sector spectra come
from the dense symmetric eigensolver of `magnonlab.lapack` (partition
functions need every eigenvalue), and the free energy's log-sum-exp is
a numpy copy of scipy's (`_logsumexp`), so no command loads the
`scipy.linalg` or `scipy.special` package; only the test-only
`free_boson_propagator` imports scipy.special's `comb` and `factorial`.
`spectral_gap` never needs the full spectrum:
it takes the sectors n = 2, 3, ... from `dense_sectors` in turn, solves
each for its two lowest eigenpairs by one dense `eigh`, and stops at
the middle sector, which holds every multiplet, or as soon as the
Casimir floor of the largest total spin not yet held lies above the
gap.  `full_spectrum` solves every block it forms at one site, each a
triplet set filled as it is solved and overwritten by LAPACK, so one
dense block is held at a time.  A lattice whose middle sector, the
largest, has more than `WHOLE_SECTOR_MAX` states has every sector split:
a free chain solves each multiplet once, in the highest-weight block of
its total spin, on the sequential-coupling paths written as occupation
vectors of one magnon sector, each bond a closed-form tridiagonal
matrix in the J_k it changes; any other lattice solves the two blocks
of the reflection that reverses the site order (the mirror of the
pinned chain, the point reflection of a row-major grid), except that a
pinned chain at S=1/2 takes its sectors whose free highest-weight
block is at most half their size from that block and a larger pinned
sector, each use checked against the sector's trace and Frobenius norm.

`sector_energy_spin_pairs` takes the eigenpairs of a sector's Casimir
from its caller, which solves the Casimir in its own storage and frees
it before the blocks are formed.  It holds numpy's OpenBLAS pool to one
thread while it alternates numpy products with solves on scipy's LAPACK:
numpy and scipy each bundle an OpenBLAS, and two pools as wide as the
machine spin against each other.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lapack as sla
from .basis import (
    MagnonSectorBasis,
    ResourceLimitError,
    SpinLattice,
    SpinMagnitude,
    enumerate_sector_basis,
    require_sector_dimensions,
    sector_dimension,
)
from .certificates import InequalityCertificate, worst
from .magnongas import free_boson_sum
from .operators import (
    assemble_dirichlet_heisenberg,
    assemble_heisenberg,
    assemble_projector_p,
    dense_block,
)

DEFAULT_DIM_CAP = 1 << 20
DENSE_SECTOR_CAP = 6000
# `full_spectrum` solves every sector whole, bitwise `eigvalsh(h)`, on a
# lattice whose middle sector, the largest, has at most this many
# states; a larger lattice splits every sector, and its eigenvalues agree
# to rounding.  The one committed output that pins the whole solve is
# README `curves.csv`: chain 12 at S=1/2, middle sector 924 states.  The
# gate goes once the ledgers stop pinning rounding noise (ROADMAP item 20).
WHOLE_SECTOR_MAX = 924
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

    Every block is a triplet set, solved at one site: it is filled by
    `operators.dense_block` only as it is solved, and LAPACK overwrites
    it instead of copying it, so one dense block is held at a time.  A
    sector's eigenvalues are the sorted union of its blocks' eigenvalues.
    Whether to split is one decision per call: when the middle sector,
    the largest, has at most `WHOLE_SECTOR_MAX` states, each sector is
    one block, the triplets of its Hamiltonian, and its eigenvalues are
    dsyevr's ascending output.

    Otherwise the free chain, which commutes with the total spin, takes
    sector n <= N/2, N = 2S*sites, as the sorted union of sector n - 1
    and block n, the highest-weight states of J = S*sites - n
    (`_highest_weight_block`) on the coupling paths to J
    (`_coupling_basis`), and sector n > N/2 as a copy of sector N - n.
    Each block is built and solved once per call, each bond a closed-form
    tridiagonal matrix in the one coupled spin J_k it changes, evaluated on
    all of the block's rows at once.

    Every sector of any other lattice or variant, the pinned chain
    (whose boundary field breaks the total spin) and the free grid
    alike, is solved as the two blocks of the reflection that reverses
    the site order (`_parity_blocks`), so a sector at
    `DENSE_SECTOR_CAP` = 6000 states costs one block of about 3000 states
    (72 MB), not its 288 MB.  Every block goes through `lapack.eigh`,
    which reads it with `np.asarray_chkfinite`, so a NaN or inf in a
    block raises ValueError.

    A split pinned chain of L sites at S=1/2 takes some sectors otherwise.
    Its sector m, 2m < L+2, is as a multiset the union of free chain
    L+1's highest-weight block m, sector_dimension(L+1, m) -
    sector_dimension(L+1, m-1) states, and pinned sector L+2-m.  This is
    observed, to 1.2e-14 of the largest eigenvalue for every such m on
    L = 2..14, and not proven; it fails at S=1.  It is used for the sectors m >= 2 whose
    block has at most half the sector's states, rounded up, so never
    more than the even parity block it replaces: the middle sector m=7
    alone on chains 13 and 14.  Those sectors are solved after every
    other, so their partner L+2-m is at hand, and each is guarded: the
    sum and sum of squares of its eigenvalues must equal the trace and
    squared Frobenius norm read off its triplets
    (`_require_sector_moments`), or RuntimeError names the sector.

    Raises ResourceLimitError, before any basis is enumerated, when the
    total Hilbert dimension exceeds `DEFAULT_DIM_CAP` or any single
    sector exceeds `DENSE_SECTOR_CAP`; callers that only need the gap
    should use `spectral_gap`, which solves only the lowest sectors.
    """
    total_dim = spin.site_dim**lattice.nsites
    if total_dim > DEFAULT_DIM_CAP:
        raise ResourceLimitError(
            f"total dimension {total_dim} exceeds cap {DEFAULT_DIM_CAP}; "
            "restrict to individual sectors instead"
        )
    nsites, top = lattice.nsites, spin.two_s * lattice.nsites
    require_sector_dimensions(nsites, spin.two_s, range(top + 1), DENSE_SECTOR_CAP)
    # the middle sector is the largest, so this splits every sector or none
    split = sector_dimension(nsites, top // 2, spin.two_s) > WHOLE_SECTOR_MAX
    free_chain = split and variant == "free" and lattice.dimension == 1
    # pinned sector m -> pinned sector nsites + 2 - m, whose spectrum and
    # free chain nsites + 1's highest-weight block m make up sector m's
    partners = {}
    if split and variant == "dirichlet" and lattice.dimension == 1 and spin.two_s == 1:
        partners = {
            m: nsites + 2 - m for m in range(2, (nsites + 3) // 2)
            if 2 * (sector_dimension(nsites + 1, m, 1) - sector_dimension(nsites + 1, m - 1, 1))
            <= sector_dimension(nsites, m, 1) + 1
        }
    sector_eigs = [None] * (top + 1)
    for n in sorted(range(top + 1), key=partners.__contains__):  # paired sectors last
        if free_chain and 2 * n > top:  # the spin flip's conjugate sector
            sector_eigs[n] = sector_eigs[top - n].copy()
            continue
        if free_chain:
            blocks = [_highest_weight_block(nsites, spin.two_s, n)]
        elif n in partners:
            blocks = [_highest_weight_block(nsites + 1, 1, n)]
        else:
            op = _assemble_variant(enumerate_sector_basis(lattice, spin, n), variant)
            blocks = _parity_blocks(op) if split else [(op.rows, op.cols, op.vals, op.dim)]
        # a block is filled only as it is solved, and LAPACK overwrites it
        # instead of copying it, so one dense block is held at a time
        eigs = [sla.eigvalsh(dense_block(*block), overwrite_a=True) for block in blocks]
        if free_chain and n:  # sector n holds every multiplet of sector n - 1
            eigs.append(sector_eigs[n - 1])
        if n in partners:
            eigs.append(sector_eigs[partners[n]])
        sector_eigs[n] = np.sort(np.concatenate(eigs))
        if n in partners:
            _require_sector_moments(lattice, spin, variant, n, sector_eigs[n])
    return SectorSpectrum(lattice, spin, variant, sector_eigs)


def _require_sector_moments(lattice, spin, variant, n, eigs):
    """Raise RuntimeError unless the sum and the sum of squares of `eigs`
    equal the trace and the squared Frobenius norm of sector n's
    Hamiltonian, read off its triplets, in which each (row, col) appears
    once.  A NaN on either side fails."""
    op = _assemble_variant(enumerate_sector_basis(lattice, spin, n), variant)
    expected = (op.vals[op.rows == op.cols].sum(), np.square(op.vals).sum())
    found = (eigs.sum(), np.square(eigs).sum())
    # on pinned chains 3..14 the two agree to 7e-16 relative; one
    # eigenvalue off by 1e-6 on chain 13 moves the sum by 1.5e-10 relative
    if not np.allclose(found, expected, rtol=1e-12, atol=0):
        raise RuntimeError(
            f"sector {n}: eigenvalue sum and sum of squares {found} do not match "
            f"the trace and squared Frobenius norm {expected}"
        )


def _parity_blocks(op):
    """The even and odd blocks of the sector operator `op` under the
    reflection that reverses the site order, found as a row map by
    lookup, yielded in turn as triplets (rows, cols, vals, dim).  The
    reflection commutes with every Hamiltonian `_assemble_variant`
    builds: on a chain it is the mirror, which also maps the pinned ends
    onto each other, and on a row-major square grid it is the point
    reflection.

    An orbit {i, mirror[i]} is represented by its lower row.  The even
    block takes every orbit, with weight 1/sqrt(|orbit|) on each of its
    rows; the odd block takes the two-row orbits, with weight +1/sqrt(2)
    on the lower row and -1/sqrt(2) on the other.  Each triplet
    (i, j, v) of `op` becomes the triplet v q_i q_j / sqrt(|orbit i|
    |orbit j|), q the weight's sign, at the orbits of i and j, in the
    order of `op`'s triplets.
    """
    basis = op.basis
    rows, mirror = np.arange(basis.dim), basis.state_index(basis.states[:, ::-1])
    lower = np.minimum(rows, mirror)
    orbit_size = 1 + (mirror != rows)
    size = orbit_size[op.rows] * orbit_size[op.cols]  # |orbit i| |orbit j| of each triplet
    # the weight's sign on each row: 1 in the even block; in the odd one
    # +1 on the lower row of a pair, -1 on the upper, 0 on a palindrome
    for sign in (np.ones_like(rows), np.sign(mirror - rows)):
        first = (lower == rows) & (sign != 0)  # the lower row of each orbit in the block
        orbit = (np.cumsum(first) - 1)[lower]
        q = sign[op.rows] * sign[op.cols]
        kept = q != 0
        yield (
            orbit[op.rows[kept]], orbit[op.cols[kept]], op.vals[kept] * q[kept] / np.sqrt(size[kept]),
            int(first.sum()),
        )


def _coupling_basis(nsites, two_s, n):
    """The sequential-coupling paths of `nsites` spins S = two_s/2 to
    total spin J = S*nsites - n, as (basis, paths).

    A path (2J_0, ..., 2J_nsites), in doubled spins, has J_0 = 0 and each
    J_k in |J_{k-1} - S| .. J_{k-1} + S.  Its steps d_k = J_k - J_{k-1} + S
    lie in 0..2S and add up to 2S*nsites - n, so they are the occupation
    vectors of that magnon sector whose partial sums keep
    J_{k-1} + J_k >= S, in the same lexicographic order as the paths.
    `basis` is the `MagnonSectorBasis` of those step vectors, and row i
    of `paths` is the path of its row i."""
    sector = enumerate_sector_basis(SpinLattice.chain(nsites), SpinMagnitude(two_s), two_s * nsites - n)
    paths = np.zeros((sector.dim, nsites + 1), dtype=np.int64)
    np.cumsum(2 * sector.states - two_s, axis=1, out=paths[:, 1:])
    kept = np.all(paths[:, :-1] + paths[:, 1:] >= two_s, axis=1)
    basis = MagnonSectorBasis(sector.lattice, sector.spin, sector.n, True, sector.states[kept])
    return basis, paths[kept]


def _highest_weight_block(nsites, two_s, n):
    """Free-chain Hamiltonian, as triplets (rows, cols, vals, dim), on the
    highest-weight states of total spin J = S*nsites - n: the paths of
    `_coupling_basis`, which number sector_dimension(n) -
    sector_dimension(n - 1).  Bond (k, k+1) changes J_k alone, and by at
    most one (Edmonds, Angular Momentum in Quantum Mechanics, 7.1.6 and
    7.1.8, with the 6j symbols that have an argument 1).  In doubled spins
    a = 2J_{k-1}, b = 2J_k, c = 2J_{k+1}, T = 2S and x' = x(x+2), the
    projection theorem gives the diagonal S_k.S_{k+1} =
    (b' + T' - a')(c' - b' - T')/(16 b'), 0 at b = 0, and raising J_k to
    u = b + 2 has amplitude sqrt(P(a) P(c)) / (32 u sqrt(u^2 - 1)), with
    P(x) = (u+x+T+2)(x+T+2-u)(u-x+T)(u+x-T).  P(a) is 0 when step k is
    already 2S and P(c) when step k+1 is 0, so the raises are exactly the
    hops of one step from site k+1 to site k that `hop_targets` makes,
    and a raise keeps every J_{k-1} + J_k >= S.  The bond S^2 - S_k.S_{k+1}
    takes each row's diagonal summed over the bonds, and minus each
    amplitude at (row, raised) and at (raised, row), so the block is
    bitwise symmetric."""
    basis, paths = _coupling_basis(nsites, two_s, n)
    steps, t = basis.states, float(two_s)
    # x' of 2J_{k-1}, 2J_k, 2J_{k+1} and 2S, one column per bond
    a, b, c = (x * (x + 2.0) for x in (paths[:, :-2], paths[:, 1:-1], paths[:, 2:]))
    tt = t * (t + 2)
    dots = np.divide((b + tt - a) * (c - b - tt), 16 * b, out=np.zeros_like(b), where=b > 0)
    diagonal = np.sum(t * t / 4 - dots, axis=1)
    # row, site: step `site` can rise and step `site + 1` fall, i.e. J_{site+1} rises
    row, site = np.nonzero((steps[:, :-1] < two_s) & (steps[:, 1:] > 0))
    raised = basis.hop_targets(row, site + 1, site)
    u = paths[row, site + 1] + 2.0

    def p(x):
        return (u + x + t + 2) * (x + t + 2 - u) * (u - x + t) * (u + x - t)

    off_diagonal = -np.sqrt(p(paths[row, site]) * p(paths[row, site + 2])) / (32 * u * np.sqrt(u * u - 1))
    index = np.arange(basis.dim)
    return (np.concatenate([index, row, raised]), np.concatenate([index, raised, row]),
            np.concatenate([diagonal, off_diagonal, off_diagonal]), basis.dim)


def _logsumexp(a):
    """`scipy.special.logsumexp(a)` of a non-empty real 1-D array, by the
    steps scipy 1.17 takes: every copy of the maximum is set aside as m,
    the rest are summed after a shift, and a result that is not finite
    is replaced by log(sum(exp(a)))."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        at_max = a == a_max
        m = float(np.count_nonzero(at_max))
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum()
        out = np.log1p(s if s == 0 else s / m) + np.log(m) + a_max
        return out if np.isfinite(out) else np.log(np.exp(a).sum())


def free_energy_from_eigenvalues(eigenvalues, beta: float, nsites: int) -> float:
    """f = -(1/(beta*M)) ln sum exp(-beta E), max-shifted for overflow safety.

    At a beta so small that f overflows, returns -inf without a warning;
    each caller refuses or fails the non-finite value."""
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    with np.errstate(over="ignore"):
        return float(-_logsumexp(-beta * np.asarray(eigenvalues)) / (beta * nsites))


def free_energy(spectrum: SectorSpectrum, beta: float) -> float:
    return free_energy_from_eigenvalues(
        spectrum.all_eigenvalues, beta, spectrum.lattice.nsites
    )


def chain_free_energies(ell: int, spin: SpinMagnitude, betas, variant: str = "free") -> list:
    """Free energy per site of an open chain of length ell at each beta in
    `betas`, all from one spectrum (ell = 1 allowed: a single free spin
    has 2S+1 zero-energy states)."""
    if ell == 1:
        if variant != "free":
            raise ValueError("single-site chain is only defined for the free variant")
        return [free_energy_from_eigenvalues(np.zeros(spin.site_dim), beta, 1) for beta in betas]
    spectrum = full_spectrum(SpinLattice.chain(ell), spin, variant)
    return [free_energy(spectrum, beta) for beta in betas]


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
    mode.

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
        if floor > gap + residual + tol:
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
    f = {ell: chain_free_energies(ell, spin, betas) for ell in range(total_length, 0, -1)}
    certs = []
    for i, beta in enumerate(betas):
        slacks = []
        for ell in range(1, total_length):
            rest = total_length - ell
            slacks.append(
                total_length * f[total_length][i] - ell * f[ell][i] - rest * f[rest][i]
            )
        certs.append(InequalityCertificate(
            name="subadditivity",
            params={"L": total_length, "two_s": spin.two_s, "beta": beta},
            slack=float(worst(slacks)),
            tolerance=1e-12 * max(1.0, abs(total_length * f[total_length][i])),
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
    columns = zip(
        chain_free_energies(total_length, spin, betas),
        chain_free_energies(ell, spin, betas, "dirichlet"),
        chain_free_energies(ell, spin, betas),
    )
    certs = []
    for beta, (f_big, f_pin, f_small) in zip(betas, columns):
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

# (result of `_find_numpy_openblas`,) once `_numpy_openblas` has run: a
# handle on a library of the process, the same for every caller
_numpy_openblas_found = None


def _numpy_openblas():
    """`_find_numpy_openblas()`, looked up on the first call, not at import."""
    global _numpy_openblas_found
    if _numpy_openblas_found is None:
        _numpy_openblas_found = (_find_numpy_openblas(),)
    return _numpy_openblas_found[0]


def _find_numpy_openblas():
    """(get, set) thread-count functions of the OpenBLAS bundled in the
    numpy wheel (`numpy.libs/libscipy_openblas64_*.so`), or None when
    there is no such library.  numpy has already loaded it, so this maps
    nothing new."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):  # unloadable, or another OpenBLAS build
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextmanager
def _numpy_blas_one_thread():
    """Hold numpy's OpenBLAS pool to one thread inside the block and
    restore its previous count on leaving, also on an exception.  Does
    nothing where `_numpy_openblas` finds no library.  scipy's pool is
    left as it is."""
    blas = _numpy_openblas()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def sector_energy_spin_pairs(basis: MagnonSectorBasis, h: np.ndarray, casimir):
    """Simultaneous eigendata (energies, spins) of a sector, given its
    basis, its dense Hamiltonian `h` (as yielded by `dense_sectors`) and
    `casimir`, the (eigenvalues, eigenvectors) of its dense Casimir
    (`sla.eigh` of `assemble_total_spin_squared`): two arrays, energy E
    and total spin t of each eigenstate, t ascending and E ascending
    within each t.

    The Casimir commutes with the Hamiltonian, so its eigenspaces are
    invariant blocks; each block is diagonalized separately, giving the
    exact quantum number t alongside every energy.  The caller solves
    the Casimir, so it can free the matrix before the blocks are formed.

    The projections `block.T @ h @ block` run on numpy's OpenBLAS and
    the solves on scipy's; numpy's pool is held to one thread while they
    alternate (`_numpy_blas_one_thread`), since two 2-thread pools on
    two CPUs spin against each other: over chains 2..10 at S=1/2 the
    loop took 0.30 s with both pools at two threads and 0.16 s with
    numpy's at one (medians of 15 passes).  numpy's dgemm rounds the
    same at one and two threads up to chain 10 sector 4 at S=1/2 and
    chain 6 at S=1; chain 10 sector 5 (252 states), chains 11 and 12 at
    S=1/2 and chains 7 and 8 at S=1 move by up to 8e-14, to the bits a
    one-CPU machine gives.
    """
    w, vecs = casimir
    s_max = basis.spin.s * basis.lattice.nsites
    t_min = abs(basis.n - s_max)
    t_ladder = np.arange(t_min, s_max + 0.5, 1.0)
    targets = t_ladder * (t_ladder + 1.0)
    energies, spins = [], []
    with _numpy_blas_one_thread():
        for t, target in zip(t_ladder, targets):
            block = vecs[:, np.abs(w - target) < 0.25]
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
    from scipy.special import comb, factorial  # only tests build the propagator

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
    free_boson_value = free_boson_sum(ell, 1, beta, spin.s)
    z_free = math.exp(-beta * ell * free_boson_value)
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
