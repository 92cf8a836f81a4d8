"""Sector-block assembly of every operator used by the toolkit.

All assemblies are pure functions of a `MagnonSectorBasis`: the chain
Hamiltonian with its square-root-dressed hopping, the boundary-pinned
variant, the free-boson hopping operator, the free-boundary Laplacian,
the diagonal of the occupancy projector, and the total-spin Casimir.
Matrices are collected as coordinate triplets, each (row, col) at most
once.  `dense_block` is the one place where triplets become a dense
matrix: `to_dense` and every block `spectra.full_spectrum` solves go
through it, and only `to_csr` (never called by a solver) imports
`scipy.sparse`.  Every hopping operator comes from the one sector
kernel `_hop_operator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import MagnonSectorBasis, SpinMagnitude
from .certificates import InequalityCertificate


@dataclass
class HermitianOperator:
    """Real symmetric operator on a sector basis, stored as COO triplets."""

    basis: MagnonSectorBasis
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.dim

    def to_csr(self):
        import scipy.sparse as sp  # only tests and the bench tracer convert to CSR
        return sp.coo_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.dim, self.dim)
        ).tocsr()

    def to_dense(self) -> np.ndarray:
        # the transpose of the Fortran-order fill of (cols, rows) is the
        # matrix itself in C order, a layout the ledgers pin: numpy's
        # products on it (`sector_energy_spin_pairs`) round by it.  The hop
        # kernel emits each (row, col) at most once (the diagonal kept
        # apart, one target per hop), so no sum acts
        return dense_block(self.cols, self.rows, self.vals, self.dim).T


def dense_block(rows, cols, vals, dim) -> np.ndarray:
    """The dim x dim matrix, in Fortran order, whose entry (i, j) is the
    sum of the values of the triplets (rows, cols, vals) at (i, j), added
    to 0.0 in triplet order."""
    # entry t = j*dim + i of the sum is M[i, j], so its C-order reshape is
    # M^T; with no triplets np.bincount returns integers, hence the cast
    flat = np.bincount(cols * dim + rows, vals, minlength=dim * dim).astype(np.float64, copy=False)
    return flat.reshape(dim, dim).T


def _sqrt_dressing(occ_after, two_s):
    """sqrt of the positive part of 1 - n/(2S), with n the occupation the
    factor sees after the annihilation acted (scalar or array)."""
    return np.sqrt(np.maximum(1.0 - np.asarray(occ_after) / two_s, 0.0))


def _hop_amplitudes(cap, two_s, dressed):
    """(cap+1) x (cap+1) table of the hop amplitude indexed by the source
    and target occupations before the move: sqrt(n_src (n_dst + 1)),
    times sqrt(1 - n_dst/2S) sqrt(1 - (n_src-1)/2S) (clamped at 0) with
    `dressed`.  Moves off an empty site or onto a full one get 0."""
    occ = np.arange(cap + 1)
    n_src, n_dst = occ[:, None], occ[None, :]
    amp = np.sqrt(n_src * (n_dst + 1))
    if dressed:
        # dressing product first: the rounding the tests' loop reference pins
        amp = amp * (_sqrt_dressing(n_dst, two_s) * _sqrt_dressing(n_src - 1, two_s))
    amp[:, cap] = 0.0
    return amp


def _hop_operator(basis, pairs, hop_scale, diag, dressed):
    """`diag` (one value per state) plus hop_scale * sum over ordered
    site pairs (src, dst) of a^dag_dst a_src, as a HermitianOperator.

    Amplitudes come from `_hop_amplitudes`; all pairs of all states are
    handled in one batch, and zero entries are dropped.
    """
    src, dst = np.array(pairs).T
    states = basis.states
    amp = _hop_amplitudes(basis.cap, basis.spin.two_s, dressed)[states[:, src], states[:, dst]]
    hop, k = np.nonzero(amp)
    on_diag = np.flatnonzero(diag != 0.0)
    return HermitianOperator(
        basis,
        np.concatenate([on_diag, basis.hop_targets(hop, src[k], dst[k])]),
        np.concatenate([on_diag, hop]),
        np.concatenate([diag[on_diag], hop_scale * amp[hop, k]]),
    )


def _bond_pairs(lattice):
    """Both orientations of every nearest-neighbor bond."""
    bonds = lattice.bonds()
    return bonds + [(y, x) for x, y in bonds]


def _bond_diagonal(basis):
    """sum over bonds of S*(n_x + n_y) - n_x*n_y, one value per state."""
    x, y = np.array(basis.lattice.bonds()).T
    n_x, n_y = basis.states[:, x], basis.states[:, y]
    return (basis.spin.s * (n_x + n_y) - n_x * n_y).sum(axis=1)


def assemble_heisenberg(basis: MagnonSectorBasis) -> HermitianOperator:
    """Heisenberg Hamiltonian block on an n-magnon sector.

    Nearest-neighbor exchange with unit coupling and the ground-state
    energy normalized to zero: the diagonal carries
    S*(n_x + n_y) - n_x*n_y per bond, the hopping carries the
    square-root occupancy dressing that encodes the hard-core
    constraint.  Works for open chains and open 2d grids.
    """
    return _hop_operator(
        basis, _bond_pairs(basis.lattice), -basis.spin.s, _bond_diagonal(basis), dressed=True
    )


def assemble_dirichlet_heisenberg(basis: MagnonSectorBasis) -> HermitianOperator:
    """Chain Hamiltonian with both end spins pinned maximally down.

    Equals the free-chain block plus the diagonal S*(n_1 + n_M); the
    additive constants of the pinning cancel against the normalization.
    Only defined for 1d chains.
    """
    lattice = basis.lattice
    if lattice.dimension != 1:
        raise ValueError(
            "boundary pinning is assembled for 1d chains only; the 2d upper "
            "bound enters through the free-boson operator instead"
        )
    s = basis.spin.s
    pin = s * (basis.states[:, 0] + basis.states[:, -1])
    diag = _bond_diagonal(basis) + pin
    return _hop_operator(basis, _bond_pairs(lattice), -s, diag, dressed=True)


def assemble_free_boson_t(basis: MagnonSectorBasis) -> HermitianOperator:
    """Free-boson hopping operator S * sum (-Laplacian_D)(x,y) a^dag_x a_y.

    The one-particle operator is the Dirichlet discrete Laplacian on the
    open box, so the diagonal is 2*d*S*n_x at every site (missing
    neighbors act as hard walls).  Requires an uncapped sector basis:
    free bosons are not subject to the 2S hard core.
    """
    if basis.capped:
        raise ValueError(
            "the free-boson operator lives on the uncapped sector; "
            "enumerate the basis with capped=False"
        )
    lattice = basis.lattice
    s = basis.spin.s
    diag = np.full(basis.dim, 2.0 * lattice.dimension * s * basis.n)
    return _hop_operator(basis, _bond_pairs(lattice), -s, diag, dressed=False)


def assemble_neumann_laplacian(basis: MagnonSectorBasis) -> HermitianOperator:
    """Second-quantized free-boundary graph Laplacian on an uncapped
    sector: diagonal sum_a deg(a) m_a, hopping -sqrt((m_b+1) m_a).
    Undressed, so the spin never enters."""
    lattice = basis.lattice
    diag = basis.states @ lattice.degrees()
    return _hop_operator(basis, _bond_pairs(lattice), -1.0, diag, dressed=False)


def occupancy_weight(n: int, spin: SpinMagnitude) -> float:
    """Single-site weight f(n): 1 for n in {0,1}, the square root of the
    falling-factorial ratio (2S)(2S-1)...(2S-n+1)/(2S)^n for n <= 2S,
    and 0 beyond the hard core.  The ratio is one correctly rounded
    division of exact integers (`math.perm` is 0 beyond the hard core)."""
    return math.sqrt(math.perm(spin.two_s, n) / spin.two_s**n)


def assemble_projector_p(basis: MagnonSectorBasis) -> np.ndarray:
    """Diagonal of the product projector over sites, weight(state) =
    prod_x f(n_x); vanishes on states breaking the hard core, equals 1
    whenever every occupation is 0 or 1."""
    site_w = np.array(
        [occupancy_weight(k, basis.spin) for k in range(basis.cap + 1)]
    )
    return np.prod(site_w[basis.states], axis=1)


def assemble_total_spin_squared(basis: MagnonSectorBasis) -> HermitianOperator:
    """Total-spin Casimir on a physical sector.

    Assembled from pair couplings: diagonal M*S(S+1) + sum_{x!=y}
    (n_x - S)(n_y - S), plus the long-range dressed hop of the
    transverse part.  Eigenvalues are t(t+1) with t between |n - S*M|
    and S*M.
    """
    if not basis.capped:
        raise ValueError("the Casimir is assembled on the physical (capped) basis")
    s = basis.spin.s
    m = basis.lattice.nsites
    dev = basis.states - s
    diag = m * s * (s + 1.0) + dev.sum(axis=1) ** 2 - (dev**2).sum(axis=1)
    # the transverse part reduces to one dressed 2S-hop per ordered pair
    pairs = [(src, dst) for dst in range(m) for src in range(m) if src != dst]
    return _hop_operator(basis, pairs, 2.0 * s, diag, dressed=True)


# ---------------------------------------------------------------------------
# single-site spin matrices
# ---------------------------------------------------------------------------

def boson_spin_matrices(spin: SpinMagnitude):
    """(S+, S-, S3) on the occupation ladder |0>, ..., |2S>.

    Built from truncated boson ladder operators dressed with the
    positive part of sqrt(1 - n/2S); S3 = n - S.  This is the
    representation all sector assemblies are derived from.
    """
    d = spin.site_dim
    two_s = spin.two_s
    s = spin.s
    sp_ = np.zeros((d, d))
    for k in range(d - 1):
        # raise |k> -> |k+1>: sqrt(2S) * sqrt(k+1) * sqrt(1 - k/2S)
        sp_[k + 1, k] = math.sqrt(two_s) * math.sqrt(k + 1) * _sqrt_dressing(k, two_s)
    sm_ = sp_.T.copy()
    s3 = np.diag(np.arange(d, dtype=float) - s)
    return sp_, sm_, s3


def verify_su2_representation(spin: SpinMagnitude) -> InequalityCertificate:
    """Certify the commutators and Casimir of the single-site matrices.

    The slack is minus the worst absolute residual of [S3,S+-] -+ S+-,
    [S+,S-] - 2 S3 and vec(S)^2 - S(S+1) Id; all must vanish for the
    occupation ladder to carry spin S.  They round at about u S(S+1), so
    the tolerance is 1e-12 max(1, S(S+1)/4), 1e-12 up to 2S = 3.
    """
    sp_, sm_, s3 = boson_spin_matrices(spin)
    comm = lambda a, b: a @ b - b @ a
    res = [
        np.abs(comm(s3, sp_) - sp_).max(),
        np.abs(comm(s3, sm_) + sm_).max(),
        np.abs(comm(sp_, sm_) - 2.0 * s3).max(),
    ]
    casimir = 0.5 * (sp_ @ sm_ + sm_ @ sp_) + s3 @ s3
    s = spin.s
    res.append(np.abs(casimir - s * (s + 1) * np.eye(spin.site_dim)).max())
    return InequalityCertificate(
        name="su2-representation",
        params={"two_s": spin.two_s},
        slack=-float(max(res)),
        tolerance=1e-12 * max(1.0, s * (s + 1) / 4),
    )
