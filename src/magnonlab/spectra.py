"""Sector diagonalization, exact finite-size free energies, and the
variational upper bound with the projected free-boson trial state.

Every dense matrix is filled from triplets by `operators.dense_block`.
Every sector is sized against `DENSE_SECTOR_CAP` before any basis is
enumerated: `dense_sectors` does so for the sectors it is asked for and
then yields (basis, dense H) one sector at a time, and `full_spectrum`
does so for all of them; both build a sector's triplets by
`_sector_operator`.
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
gap.

`full_spectrum` sends every block down one path: the block is built as
triplets that carry the reflection reversing the site order, a signed
row map; it is split into its two parity halves or not; and
`_block_eigenvalues` solves it, each part filled only as it is solved
and overwritten by LAPACK, so one dense block is held at a time.  A
lattice whose middle sector, the largest, has more than
`WHOLE_SECTOR_MAX` states splits every block.  A split free chain's
blocks are its highest-weight blocks, one per total spin, coupled from
both ends so that the reflection maps row to row up to a sign, each bond
inside a half a closed-form tridiagonal matrix in the J_k it changes and
the bonds at the middle closed-form 6j elements; each is solved once,
and every sector is the sorted prefix of their spectra that holds the
spins it reaches.  Any other lattice solves each sector as its own
block, whose reflection is the mirror of the pinned chain or the point
reflection of a row-major grid, except that a split pinned chain at
S=1/2 takes its sectors m >= 2, 2m < sites + 2, from a free
highest-weight block and a larger pinned sector, each use checked
against the sector's trace and Frobenius norm.

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


def _sector_operator(lattice, spin, n, variant):
    """The `variant` Hamiltonian of magnon sector n, as triplets on its basis."""
    basis = enumerate_sector_basis(lattice, spin, n)
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
    ops = (_sector_operator(lattice, spin, n, variant) for n in sectors)
    return ((op.basis, op.to_dense()) for op in ops)


def full_spectrum(
    lattice: SpinLattice,
    spin: SpinMagnitude,
    variant: str = "free",
) -> SectorSpectrum:
    """Dense eigenvalues of every magnon sector, ascending per sector.

    Every block is a triplet set that carries the reflection reversing
    the site order, (rows, cols, vals, dim, mirror, sign), and goes down
    one path: it is split by that reflection into its even and odd halves
    (`_parity_blocks`) or not, and `_block_eigenvalues` solves its parts,
    each filled by `operators.dense_block` only as it is solved and
    overwritten by LAPACK, so one dense block is held at a time.  A
    sector's eigenvalues are the sorted union of its blocks' eigenvalues.
    Whether to split is one decision per call: when the middle sector,
    the largest, has at most `WHOLE_SECTOR_MAX` states, no block is split
    and no reflection is looked up, each sector is one block, the
    triplets of its Hamiltonian, and its eigenvalues are dsyevr's
    ascending output.  A split block's half with no rows is not solved.

    A split free chain, which commutes with the total spin, solves its
    highest-weight blocks j = 0..N/2, N = 2S*sites, once each: block j
    holds the highest-weight states of J = S*sites - j
    (`_highest_weight_block`), its rows coupling each half of the chain
    in order from its end and then the halves, and on an odd chain the
    middle site last (`_mirror_coupling`), so the reflection maps row to
    row up to a sign.  Sector n holds one copy of every multiplet of
    J >= S*sites - min(n, N - n), so its eigenvalues are the sorted
    prefix of the blocks' concatenated spectra that holds blocks
    0..min(n, N - n).  A bond inside a half is a closed-form tridiagonal
    matrix in the one coupled spin J_k it changes, and the one or two
    bonds at the middle change each of J_a, J_b and K by at most one.
    Free chain 14 at S=1/2 solves no half above 518 states, where its
    largest block has 1001.

    Every sector of any other lattice or variant, the pinned chain
    (whose boundary field breaks the total spin) and the free grid
    alike, is its own block, whose reflection maps each state to its
    reversed occupation vector with sign 1, so a split sector at
    `DENSE_SECTOR_CAP` = 6000 states costs one block of about 3000 states
    (72 MB), not its 288 MB.  Every block goes through `lapack.eigh`,
    which reads it with `np.asarray_chkfinite`, so a NaN or inf in a
    block raises ValueError.

    A split pinned chain of L sites at S=1/2 takes its sectors m >= 2,
    2m < L+2, otherwise.  Such a sector is as a multiset the union of
    free chain L+1's highest-weight block m, sector_dimension(L+1, m) -
    sector_dimension(L+1, m-1) states, and pinned sector L+2-m.  This is
    observed, to 1.2e-14 of the largest eigenvalue for every such m on
    L = 2..14, and not proven; it fails at S=1.  Each such sector solves
    the two halves of that block, which on pinned chain 14 hold at most
    1008 states where its parity blocks hold up to 1716.  Those sectors
    are solved after every other, from the middle down, so their partner
    L+2-m is at hand, and each is guarded: the sum and sum of squares of
    its eigenvalues must equal the trace and squared Frobenius norm read
    off its triplets (`_require_sector_moments`), or RuntimeError names
    the sector.

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
    if split and variant == "free" and lattice.dimension == 1:
        # sector n holds one copy of each multiplet of blocks 0..min(n, top - n)
        blocks = [_block_eigenvalues(_highest_weight_block(nsites, spin.two_s, j), split)
                  for j in range(top // 2 + 1)]
        ends = np.cumsum([len(eigs) for eigs in blocks])
        every = np.concatenate(blocks)
        sector_eigs = [np.sort(every[: ends[min(n, top - n)]]) for n in range(top + 1)]
        return SectorSpectrum(lattice, spin, variant, sector_eigs)
    # pinned sector m -> pinned sector nsites + 2 - m, whose spectrum and
    # free chain nsites + 1's highest-weight block m make up sector m's
    partners = {}
    if split and variant == "dirichlet" and lattice.dimension == 1 and spin.two_s == 1:
        partners = {m: nsites + 2 - m for m in range(2, (nsites + 3) // 2)}
    sector_eigs = [None] * (top + 1)
    # paired sectors last, from the middle down, so each partner is at hand
    for n in sorted(range(top + 1), key=lambda n: partners.get(n, 0)):
        if n in partners:
            block = _block_eigenvalues(_highest_weight_block(nsites + 1, 1, n), split)
            sector_eigs[n] = np.sort(np.concatenate([block, sector_eigs[partners[n]]]))
            _require_sector_moments(lattice, spin, variant, n, sector_eigs[n])
            continue
        op = _sector_operator(lattice, spin, n, variant)
        # the row of each state's reversed occupation vector, every sign 1
        mirror = op.basis.state_index(op.basis.states[:, ::-1]) if split else None
        sector_eigs[n] = np.sort(_block_eigenvalues((op.rows, op.cols, op.vals, op.dim, mirror, 1), split))
    return SectorSpectrum(lattice, spin, variant, sector_eigs)


def _block_eigenvalues(block, split):
    """Eigenvalues of the block (rows, cols, vals, dim, mirror, sign): of
    its parity halves in turn, a half with no rows left out, if `split`,
    else of the whole block, whose reflection is not read.  Each part is
    filled only as it is solved, and LAPACK overwrites it instead of
    copying it, so one dense block is held at a time."""
    parts = _parity_blocks(*block) if split else [block[:4]]
    return np.concatenate([sla.eigvalsh(dense_block(*part), overwrite_a=True) for part in parts if part[3]])


def _require_sector_moments(lattice, spin, variant, n, eigs):
    """Raise RuntimeError unless the sum and the sum of squares of `eigs`
    equal the trace and the squared Frobenius norm of sector n's
    Hamiltonian, read off its triplets, in which each (row, col) appears
    once.  A NaN on either side fails."""
    op = _sector_operator(lattice, spin, n, variant)
    expected = (op.vals[op.rows == op.cols].sum(), np.square(op.vals).sum())
    found = (eigs.sum(), np.square(eigs).sum())
    # on pinned chains 3..14 the two agree to 7e-16 relative; one
    # eigenvalue off by 1e-6 on chain 13 moves the sum by 1.5e-10 relative
    if not np.allclose(found, expected, rtol=1e-12, atol=0):
        raise RuntimeError(
            f"sector {n}: eigenvalue sum and sum of squares {found} do not match "
            f"the trace and squared Frobenius norm {expected}"
        )


def _parity_blocks(rows, cols, vals, dim, mirror, sign):
    """The even and odd blocks of the dim x dim symmetric matrix with
    triplets (rows, cols, vals) under a reflection R that commutes with
    it, yielded in turn as triplets (rows, cols, vals, dim).  R is the
    signed involution R|i> = sign[i] |mirror[i]>, sign[i] = sign[mirror[i]]
    = +-1 (`sign` may be the scalar 1).  On a sector of `_sector_operator`
    it reverses the site order, mirror[i] the row of the reversed
    occupation vector and every sign 1: on a chain that is the mirror,
    which also maps the pinned ends onto each other, and on a row-major
    square grid the point reflection.  On a highest-weight block it is the
    signed row map of `_mirror_coupling`.

    An orbit {i, mirror[i]} is represented by its lower row.  Block
    p = +1, -1 takes the vector |lo> + p sign |hi> of each two-row orbit,
    with weight 1/sqrt(2) on each row, and each fixed row i whose sign[i]
    is p, with weight 1, so a fixed row of sign -1 is odd.  Each triplet
    (i, j, v) becomes the triplet v q_i q_j / sqrt(|orbit i| |orbit j|),
    q the weight's sign, at the orbits of i and j, in the order of the
    triplets.
    """
    index = np.arange(dim)
    lower = np.minimum(index, mirror)
    orbit_size = 1 + (mirror != index)
    size = orbit_size[rows] * orbit_size[cols]  # |orbit i| |orbit j| of each triplet
    for p in (1, -1):
        # the weight's sign on each row: 1 on the lower row of a pair,
        # p*sign on the upper, and 1 or 0 on a fixed row as its sign is p or not
        q = np.where(index < mirror, 1, np.where(index > mirror, p * sign, (1 + p * sign) // 2))
        first = (lower == index) & (q != 0)  # the lower row of each orbit in the block
        orbit = (np.cumsum(first) - 1)[lower]
        qq = q[rows] * q[cols]
        kept = qq != 0
        yield orbit[rows[kept]], orbit[cols[kept]], vals[kept] * qq[kept] / np.sqrt(size[kept]), int(first.sum())


def _half_paths(nsites, two_s):
    """Every sequential-coupling path of `nsites` spins S = two_s/2, to any
    total spin, as the rows (2J_0, ..., 2J_nsites), in doubled spins, of
    an int array in ascending lexicographic order.  J_0 = 0 and each J_k
    lies in |J_{k-1} - S| .. J_{k-1} + S: a prefix expansion, one spin at
    a time, tries J_{k-1} - S .. J_{k-1} + S and keeps J_{k-1} + J_k >= S.
    The paths that share all but their last spin are consecutive rows,
    their last spins ascending by one."""
    paths = np.zeros((1, 1), dtype=np.int64)
    for _ in range(nsites):
        grown = paths[:, -1:] + np.arange(-two_s, two_s + 1, 2)
        row, col = np.nonzero(paths[:, -1:] + grown >= two_s)
        paths = np.column_stack([paths[row], grown[row, col]])
    return paths


def _mirror_coupling(nsites, two_s, n):
    """The rows of free chain `nsites`'s highest-weight block n, of total
    spin J = S*nsites - n, S = two_s/2, in the mirror-symmetric coupling,
    as (paths, left, right, k, mirror, sign).

    With h = nsites // 2, the left half, sites 1..h, is coupled in order
    to J_a along a path of `_half_paths(h, two_s)`, and the right half,
    sites nsites..nsites-h+1, likewise to J_b; then K runs over
    J_a (x) J_b.  On an even chain J = K; on an odd one the middle site is
    coupled last, J in K (x) S.  Row i is the path pair (left[i],
    right[i]), rows of `paths`, and 2K = k[i]; the rows ascend in
    (left, right, k), so a row is found by binary search over its integer
    key.  They number sector_dimension(n) - sector_dimension(n - 1).

    Reversing the sites maps the coupled state (a, b, K) to
    (-1)^(J_a+J_b-K) (b, a, K), by the symmetry of the Clebsch-Gordan
    coefficients in their two spins, and leaves the middle site and its
    coupling alone: row mirror[i], with sign[i] = +-1."""
    paths = _half_paths(nsites // 2, two_s)
    ends = paths[:, -1]
    npaths, middle, two_j = len(ends), two_s * (nsites % 2), two_s * nsites - 2 * n
    # an even chain is an odd one whose middle spin is 0; J_b meets J_a in
    # a triangle with some K in J (x) middle only within a range of spins,
    # which is a range of the paths sorted by their last spin
    by_end = np.argsort(ends, kind="stable")
    first = np.searchsorted(ends[by_end], np.maximum(two_j - middle - ends, ends - two_j - middle))
    per_left = np.searchsorted(ends[by_end], ends + two_j + middle, side="right") - first
    left = np.repeat(np.arange(npaths), per_left)
    right = by_end[first[left] + np.arange(len(left)) - (np.cumsum(per_left) - per_left)[left]]
    ea, eb = ends[left], ends[right]
    # 2K from the larger to the smaller bound of both triangles
    lo = np.maximum(abs(ea - eb), abs(two_j - middle))
    per_pair = np.maximum((np.minimum(ea + eb, two_j + middle) - lo) // 2 + 1, 0)
    pair = np.repeat(np.arange(len(left)), per_pair)
    k = lo[pair] + 2 * (np.arange(len(pair)) - (np.cumsum(per_pair) - per_pair)[pair])
    keys = _row_keys(npaths, nsites * two_s, left[pair], right[pair], k)
    order = np.argsort(keys)
    left, right, k, keys = left[pair][order], right[pair][order], k[order], keys[order]
    mirror = np.searchsorted(keys, _row_keys(npaths, nsites * two_s, right, left, k))
    sign = 1 - 2 * ((ends[left] + ends[right] - k) // 2 % 2)
    return paths, left, right, k, mirror, sign


def _row_keys(npaths, top, left, right, k):
    """Integer key of each row (left, right, 2K) of `_mirror_coupling`, 2K <= top."""
    return (left * npaths + right) * (top + 1) + k


def _six_j_one(a, b, c, b1, c1):
    """The Wigner 6j symbols {a b c; 1 c1 b1}, doubled spins as int
    arrays, with b1 - b and c1 - c in -2, 0, 2 and every triad allowed but
    (1 c1 c) or (1 b b1) when c1 = c = 0 or b1 = b = 0, where the symbol
    is 0.  Edmonds' Table 5 gives, with s = A + B + C,
      {A B C; 1 C-1 B-1} = (-1)^s sqrt(s(s+1)(s-2A-1)(s-2A) / F(2B-1) F(2C-1)),
      {A B C; 1 C-1 B}   = (-1)^s sqrt(2(s+1)(s-2A)(s-2B)(s-2C+1) / F(2B) F(2C-1)),
      {A B C; 1 C-1 B+1} = (-1)^s sqrt((s-2B-1)(s-2B)(s-2C+1)(s-2C+2) / F(2B+1) F(2C-1)),
      {A B C; 1 C B}     = (-1)^(s+1) 2(B(B+1) + C(C+1) - A(A+1)) / sqrt(F(2B) F(2C)),
    F(x) = x(x+1)(x+2).  Swapping columns 2 and 3, or the rows in both,
    leaves the symbol as it is and carries every other case onto these:
    after the swap of (b, b1) with (c, c1) where c is unchanged and b is
    not, or where b falls and c rises, C is the larger of c, c1, and B is
    b where b1 - b = c - c1 and the larger of b, b1 otherwise."""
    swap = ((c1 == c) & (b1 != b)) | ((b1 < b) & (c1 > c))
    b, c, b1, c1 = np.where(swap, c, b), np.where(swap, b, c), np.where(swap, c1, b1), np.where(swap, b1, c1)
    db, dc = b1 - b, c1 - c
    big_b, big_c = np.where(db == -dc, b, np.maximum(b, b1)), np.maximum(c, c1)
    x, y, z = a / 2, big_b / 2, big_c / 2
    s = x + y + z
    spins = y * (y + 1) + z * (z + 1) - x * (x + 1)
    flat = (db == 0) & (dc == 0)
    cases = [flat, db == dc, db == 0]  # otherwise db = -dc = 2
    numerator = np.select(cases, [4 * spins**2, s * (s + 1) * (s - 2 * x - 1) * (s - 2 * x),
                                  2 * (s + 1) * (s - 2 * x) * (s - 2 * y) * (s - 2 * z + 1)],
                          (s - 2 * y - 1) * (s - 2 * y) * (s - 2 * z + 1) * (s - 2 * z + 2))
    f_b, f_c = (x * (x + 1.0) * (x + 2) for x in (big_b + np.select(cases, [0, -1, 0], 1), big_c - 1 + flat))
    root = np.sqrt(np.divide(numerator, f_b * f_c, out=np.zeros_like(s), where=f_b * f_c > 0))
    phase = 1 - 2 * ((a + big_b + big_c) // 2 % 2)
    return phase * np.where(flat, -np.sign(spins), 1) * root


def _highest_weight_block(nsites, two_s, n):
    """Free-chain Hamiltonian, as triplets (rows, cols, vals, dim, mirror,
    sign), on the highest-weight states of total spin J = S*nsites - n,
    the rows of `_mirror_coupling`, with its signed row map R.

    A bond inside a half, (k, k+1) of a path (2J_0, ..., 2J_h), changes
    J_k alone, and by at most one (Edmonds, Angular Momentum in Quantum
    Mechanics, 7.1.6 and 7.1.8, with the 6j symbols that have an argument
    1).  In doubled spins a = 2J_{k-1}, b = 2J_k, c = 2J_{k+1}, T = 2S and
    x' = x(x+2), the projection theorem gives the diagonal S_k.S_{k+1} =
    (b' + T' - a')(c' - b' - T')/(16 b'), 0 at b = 0, and raising J_k to
    u = b + 2 has amplitude sqrt(P(a) P(c)) / (32 u sqrt(u^2 - 1)), with
    P(x) = (u+x+T+2)(x+T+2-u)(u-x+T)(u+x-T), where the raised path exists.

    The bonds at the middle are the first to cross the coupling order,
    each element a product of three 6j symbols with an argument 1
    (`_six_j_one`).  The last spin of a half, coupled to J_a after the
    spin A, has the reduced element rho(A, J_a', J_a) =
    (-1)^(A + S + J_a' + 1) sqrt((2J_a+1)(2J_a'+1)) {A S J_a'; 1 J_a S}
    sigma, sigma = sqrt(S(S+1)(2S+1)) (7.1.8).  On an even chain the one
    bond (h, h+1) joins the last sites of the halves, and changes J_a and
    J_b by at most one each: by 7.1.6 its element is
    (-1)^(J_a + J_b' + K) {K J_b' J_a'; 1 J_a J_b} rho(A, J_a', J_a)
    rho(B, J_b', J_b).  On an odd chain the bond (h, h+1) from the left
    half to the middle site, coupled last into J, changes J_a and K:
    (-1)^(K + S + J) {J S K'; 1 K S} sigma (-1)^(J_a' + J_b + K + 1)
    sqrt((2K+1)(2K'+1)) {J_b J_a' K'; 1 K J_a} rho(A, J_a', J_a) (7.1.6,
    7.1.7), and the bond (h+1, h+2) is its mirror image.  Their diagonals
    come from the projection theorem, the last spin of a half being
    alpha = (J_a(J_a+1) + S(S+1) - A(A+1)) / (2 J_a(J_a+1)) times J_a and
    J_a being beta = (K(K+1) + J_a(J_a+1) - J_b(J_b+1)) / (2 K(K+1)) times
    K: alpha_a alpha_b (K(K+1) - J_a(J_a+1) - J_b(J_b+1))/2 across an even
    middle, alpha_a beta (J(J+1) - K(K+1) - S(S+1))/2 into an odd one.

    The left half's bonds (and the odd chain's bond into the middle site)
    are built on the rows; the right half's are their images under the
    signed row map R of `_mirror_coupling`, since the Hamiltonian commutes
    with R.  Each bond S^2 - S_k.S_{k'} takes S^2 minus its diagonal on
    each row, and minus each element at (row, raised) and (raised, row),
    so the block is bitwise symmetric."""
    paths, left, right, k, mirror, sign = _mirror_coupling(nsites, two_s, n)
    npaths, top, dim, t = len(paths), two_s * nsites, len(left), float(two_s)
    tt, two_j = t * (t + 2), two_s * nsites - 2 * n
    keys = _row_keys(npaths, top, left, right, k)
    # x' of 2J_{k-1}, 2J_k, 2J_{k+1} and 2S, one column per bond inside a half
    a, b, c = (x * (x + 2.0) for x in (paths[:, :-2], paths[:, 1:-1], paths[:, 2:]))
    dots = np.divide((b + tt - a) * (c - b - tt), 16 * b, out=np.zeros_like(b), where=b > 0)
    steps = (np.diff(paths, axis=1) + two_s) // 2
    # path, site: step `site` can rise and step `site + 1` fall, i.e. J_{site+1} rises
    path, site = np.nonzero((steps[:, :-1] < two_s) & (steps[:, 1:] > 0))
    weights = (two_s + 1) ** np.arange(steps.shape[1] - 1, -1, -1)
    path_keys = steps @ weights
    raised_path = np.searchsorted(path_keys, path_keys[path] + weights[site] - weights[site + 1])
    u = paths[path, site + 1] + 2.0

    def p(x):
        return (u + x + t + 2) * (x + t + 2 - u) * (u - x + t) * (u + x - t)

    amplitude = np.sqrt(p(paths[path, site]) * p(paths[path, site + 2])) / (32 * u * np.sqrt(u * u - 1))
    # the rows of one left path are consecutive, and a raise keeps J_a, so
    # they pair off in order with the rows of the raised path
    per_path = np.bincount(left, minlength=npaths)
    first_row = np.cumsum(per_path) - per_path
    per_raise = per_path[path]
    raise_of = np.repeat(np.arange(len(path)), per_raise)
    offset = np.arange(len(raise_of)) - (np.cumsum(per_raise) - per_raise)[raise_of]
    raises = [(first_row[path][raise_of] + offset, first_row[raised_path][raise_of] + offset,
               amplitude[raise_of])]

    # the middle: J_a, J_b, the spins A, B before them, and x' of each and of 2K
    ja, jb, pa, pb = paths[left, -1], paths[right, -1], paths[left, -2], paths[right, -2]
    ja2, jb2, pa2, pb2, k2 = (x * (x + 2.0) for x in (ja, jb, pa, pb, k))
    alpha_a = np.divide(ja2 + tt - pa2, 2 * ja2, out=np.zeros_like(ja2), where=ja > 0)
    # path p + 1 is path p with its last spin raised by one where they share the rest
    rises = np.append(np.all(paths[1:, :-1] == paths[:-1, :-1], axis=1), False)
    if nsites % 2:
        beta = np.divide(k2 + ja2 - jb2, 2 * k2, out=np.zeros_like(k2), where=k > 0)
        middle_diagonal = t * t / 4 - alpha_a * beta * (two_j * (two_j + 2.0) - k2 - tt) / 8
        # (J_a, K) to (J_a, K + 1), (J_a + 1, K - 1), (J_a + 1, K), (J_a + 1, K + 1):
        # one orientation of each pair of rows the bond joins
        moves = [(left, right, k + 2, np.ones(dim, dtype=bool))]
        moves += [(left + 1, right, k + dk, rises[left]) for dk in (-2, 0, 2)]
    else:
        alpha_b = np.divide(jb2 + tt - pb2, 2 * jb2, out=np.zeros_like(jb2), where=jb > 0)
        middle_diagonal = t * t / 4 - alpha_a * alpha_b * (k2 - ja2 - jb2) / 8
        # (J_a, J_b) to (J_a, J_b + 1), (J_a + 1, J_b - 1), (J_a + 1, J_b), (J_a + 1, J_b + 1)
        falls = np.insert(rises[:-1], 0, False)
        moves = [(left, right + 1, k, rises[right]), (left + 1, right - 1, k, rises[left] & falls[right]),
                 (left + 1, right, k, rises[left]), (left + 1, right + 1, k, rises[left] & rises[right])]
    pairs = []
    for to_left, to_right, to_k, allowed in moves:
        row = np.flatnonzero(allowed)
        wanted = _row_keys(npaths, top, to_left[row], to_right[row], to_k[row])
        target = np.minimum(np.searchsorted(keys, wanted), dim - 1)
        hit = keys[target] == wanted  # the target keeps both triangles
        pairs.append((row[hit], target[hit]))
    row, target = (np.concatenate(x) for x in zip(*pairs))
    ja, jb, pa, pb, k_to = ja[row], jb[row], pa[row], pb[row], k[target]
    a_to, b_to, k = paths[left[target], -1], paths[right[target], -1], k[row]
    # rho(A, J_a', J_a) and, across an even middle, rho(B, J_b', J_b) and
    # the 6j of 7.1.6, or, into an odd middle, the 6j of 7.1.6 and of 7.1.7
    # with K in the place of J_b
    spin = np.full(len(row), two_s)
    if nsites % 2:
        other, other_to = k, k_to
        symbols = [(pa, spin, a_to, spin, ja), (spin + two_j - two_s, spin, k_to, spin, k), (jb, a_to, k_to, ja, k)]
        phase = (pa + two_s + a_to + 2) + (k + two_s + two_j) + (a_to + jb + k + 2)
    else:
        other, other_to = jb, b_to
        symbols = [(pa, spin, a_to, spin, ja), (pb, spin, b_to, spin, jb), (k, b_to, a_to, jb, ja)]
        phase = (pa + two_s + a_to + 2) + (pb + two_s + b_to + 2) + (ja + b_to + k)
    six_j = np.prod(np.split(_six_j_one(*(np.concatenate(column) for column in zip(*symbols))), 3), axis=0)
    sigma2 = t / 2 * (t / 2 + 1) * (t + 1)
    scale = np.sqrt((ja + 1.0) * (a_to + 1) * (other + 1) * (other_to + 1)) * sigma2
    middle = [(row, target, (1 - 2 * (phase // 2 % 2)) * scale * six_j)]
    left_diagonal = (t * t / 4 - dots).sum(axis=1)[left]
    if nsites % 2:  # the bond into the middle site is the left half's
        left_diagonal = left_diagonal + middle_diagonal
        raises, middle, middle_diagonal = raises + middle, [], 0.0
    # the right half's bonds, and the odd chain's bond out of the middle
    # site, are the left ones under R
    diagonal = left_diagonal + left_diagonal[mirror] + middle_diagonal
    raises += [(mirror[i], mirror[j], v * (sign[i] * sign[j])) for i, j, v in raises]
    row, raised, value = (np.concatenate(x) for x in zip(*raises, *middle))
    index = np.arange(dim)
    return (np.concatenate([index, row, raised]), np.concatenate([index, raised, row]),
            np.concatenate([diagonal, -value, -value]), dim, mirror, sign)


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
