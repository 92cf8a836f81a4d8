"""Lattice geometry, spin magnitude, and magnon-sector occupation bases.

The ferromagnetic Heisenberg chain conserves the total magnon number
(the number of spin deviations above the fully polarized state), so every
operator in this package is assembled block by block on a fixed-number
sector.  A sector basis is the lexicographically ordered list of
occupation vectors (n_1, ..., n_M) with sum n and a per-site cap, which
is 2S for the physical spin system and n (i.e. no constraint) for free
bosons.  `MagnonSectorBasis.state_index` maps one occupation vector, or
a (k, M) batch of them, to basis rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np


@dataclass(frozen=True)
class SpinMagnitude:
    """Spin S stored as the integer 2S so half-integer spins stay exact."""

    two_s: int

    def __post_init__(self):
        if self.two_s < 1:
            raise ValueError(f"two_s must be >= 1, got {self.two_s}")

    @property
    def s(self) -> float:
        return self.two_s / 2.0

    @property
    def site_dim(self) -> int:
        return self.two_s + 1


@dataclass(frozen=True)
class SpinLattice:
    """Open-boundary chain or square grid on which the spins live.

    Parameters
    ----------
    dimension : 1 or 2
    extents : tuple of per-axis site counts (each >= 2)

    Boundary pinning is not a lattice property: it is the "dirichlet"
    variant of the Hamiltonian (`operators.assemble_dirichlet_heisenberg`).
    """

    dimension: int
    extents: tuple

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        object.__setattr__(self, "extents", tuple(int(e) for e in self.extents))
        if len(self.extents) != self.dimension:
            raise ValueError(
                f"need {self.dimension} extents, got {len(self.extents)}"
            )
        if any(e < 2 for e in self.extents):
            raise ValueError(f"every extent must be >= 2, got {self.extents}")

    @classmethod
    def chain(cls, length: int) -> "SpinLattice":
        return cls(1, (length,))

    @classmethod
    def square(cls, side: int) -> "SpinLattice":
        return cls(2, (side, side))

    @property
    def nsites(self) -> int:
        n = 1
        for e in self.extents:
            n *= e
        return n

    def bonds(self):
        """Nearest-neighbor site-index pairs, open boundaries."""
        out = []
        if self.dimension == 1:
            (ell,) = self.extents
            out = [(x, x + 1) for x in range(ell - 1)]
        else:
            lx, ly = self.extents
            for x in range(lx):
                for y in range(ly):
                    i = x * ly + y
                    if x + 1 < lx:
                        out.append((i, i + ly))
                    if y + 1 < ly:
                        out.append((i, i + 1))
        return out

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.nsites, dtype=int)
        for i, j in self.bonds():
            deg[i] += 1
            deg[j] += 1
        return deg


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds the configured dense-diagonalization budget."""


def sector_dimension(nsites: int, n: int, cap: int) -> int:
    """Number of occupation vectors with sum n and per-site cap, by
    inclusion-exclusion over sites forced above the cap."""
    if n < 0 or n > cap * nsites:
        return 0
    total = 0
    for j in range(0, n // (cap + 1) + 1):
        total += (-1) ** j * comb(nsites, j) * comb(
            n - j * (cap + 1) + nsites - 1, nsites - 1
        )
    return total


def require_sector_dimensions(nsites: int, cap: int, sectors, limit: int) -> None:
    """Raise ResourceLimitError on the first magnon number in `sectors`
    whose sector (per-site cap `cap`) has more than `limit` states.
    Sizes come from `sector_dimension`, so nothing is enumerated."""
    for n in sectors:
        dim = sector_dimension(nsites, n, cap)
        if dim > limit:
            raise ResourceLimitError(f"sector n={n} has dimension {dim} > {limit}")


def _key_weights(nsites, cap):
    """Place values of the base-(cap+1) key of an occupation vector, first
    site most significant, so ascending lexicographic order is ascending
    key order.  Keys of up to (cap+1)^M - 1 fit int64 only while
    (cap+1)^M <= 2^63; beyond that (long uncapped chains) the weights are
    Python ints, which never overflow."""
    weights = [(cap + 1) ** (nsites - 1 - x) for x in range(nsites)]
    fits = (cap + 1) ** nsites <= 2**63
    return np.array(weights, dtype=np.int64 if fits else object)


@dataclass
class MagnonSectorBasis:
    """Ordered occupation-number basis of a fixed-magnon-number block.

    `capped=True` enforces n_x <= 2S (the physical spin space); with
    `capped=False` the per-site occupation is unconstrained within the
    sector (free bosons), i.e. the effective cap is n itself.  Rows are
    looked up by binary search over the sorted base-(cap+1) state keys.
    """

    lattice: SpinLattice
    spin: SpinMagnitude
    n: int
    capped: bool
    states: np.ndarray

    def __post_init__(self):
        self._weights = _key_weights(self.lattice.nsites, self.cap)
        self._keys = self.states @ self._weights

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @property
    def cap(self) -> int:
        return self.spin.two_s if self.capped else self.n

    def state_index(self, occ):
        """Row of one occupation vector, or the rows of a (k, M) array of
        them; KeyError if any state is not in the sector."""
        occ = np.asarray(occ, dtype=np.int64)
        if (occ.ndim in (1, 2) and occ.shape[-1] == self.lattice.nsites
                and np.all((occ >= 0) & (occ <= self.cap))):
            keys = occ @ self._weights
            rows = np.minimum(np.searchsorted(self._keys, keys), self.dim - 1)
            if np.all(self._keys[rows] == keys):
                return int(rows) if occ.ndim == 1 else rows
        raise KeyError(f"state {occ.tolist()} is not in the n={self.n} sector")

    def hop_targets(self, rows, src, dst) -> np.ndarray:
        """Rows of the states reached from `rows` by moving one boson from
        site `src` to site `dst` (equal-shape arrays).  Every move must
        stay inside the sector: src occupied, dst below the cap."""
        moved = self._keys[rows] - self._weights[src] + self._weights[dst]
        return np.searchsorted(self._keys, moved)


def enumerate_sector_basis(
    lattice: SpinLattice,
    spin: SpinMagnitude,
    n: int,
    capped: bool = True,
) -> MagnonSectorBasis:
    """Enumerate the n-magnon occupation basis on a lattice.

    Parameters
    ----------
    lattice, spin : geometry and spin magnitude.
    n : total magnon number; equals S*M + (total 3-component of spin)
        on an M-site lattice.
    capped : enforce the hard-core cap n_x <= 2S when True; otherwise
        enumerate unconstrained bosons (cap n), as needed by the free
        hopping operator.

    Returns
    -------
    MagnonSectorBasis with states in ascending lexicographic order.
    """
    nsites = lattice.nsites
    cap = spin.two_s if capped else n
    if n < 0 or n > cap * nsites:
        raise ValueError(
            f"magnon number n={n} outside [0, {cap * nsites}] "
            f"(cap {cap} per site on {nsites} sites)"
        )
    # Prefix expansion, one site at a time: each prefix with `remaining`
    # magnons left is repeated once per admissible occupation lo..hi of
    # the next site, in ascending order, so the rows stay lexicographic.
    states = np.zeros((1, 0), dtype=np.int64)
    remaining = np.array([n], dtype=np.int64)
    for pos in range(nsites):
        lo = np.maximum(0, remaining - cap * (nsites - 1 - pos))
        counts = np.minimum(cap, remaining) - lo + 1
        parent = np.repeat(np.arange(len(states)), counts)
        starts = np.cumsum(counts) - counts
        occ = lo[parent] + np.arange(len(parent)) - starts[parent]
        states = np.column_stack([states[parent], occ])
        remaining = remaining[parent] - occ
    return MagnonSectorBasis(lattice, spin, n, capped, states)
