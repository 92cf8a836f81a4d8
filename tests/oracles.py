"""Independent reference computations the tests check the package against.

None of these is reached by the command line or the certificate suites:
the tensor-product Hamiltonian (built from the textbook m-projection
ladder, not the occupation ladder the sector assemblies use), the
coordinate-collapse table on sorted coordinates (the collapse matrix's
reference), the maximal-spin vector of a sector, the gap solved
sparsely on the middle sector, which holds every multiplet (the
reference of the gap's sector loop), an operator's hermiticity defect,
the basis state of one occupation vector and a sector's palindromes, Racah's 6j sum with every
term's factorials taken anew, the free chain's bond matrix recoupled
from it, the free chain's highest-weight blocks on the sequential
coupling 1..L (the reference of the mirror-coupled blocks and their
reflection-parity halves), Clebsch-Gordan coefficients by Racah's sum
and the mirror-coupled states they build on the tensor-product space, the
Bessel/Hurwitz series for the continuum integrals, and the continuum
constants evaluated both by quadrature and in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
import scipy.special

from magnonlab.basis import MagnonSectorBasis, SpinLattice, SpinMagnitude, enumerate_sector_basis
from magnonlab.boundlab import CoordinateState
from magnonlab.magnongas import _quad, log_one_minus_exp
from magnonlab.operators import HermitianOperator, assemble_heisenberg

# ---------------------------------------------------------------------------
# tensor-product Hamiltonian
# ---------------------------------------------------------------------------


def ladder_spin_matrices(spin: SpinMagnitude):
    """(S+, S-, S3) from the textbook m-projection ladder, ordered by
    increasing S3 to align with the occupation labeling."""
    s = spin.s
    proj = np.arange(-s, s + 1, 1.0)
    d = len(proj)
    sp_ = np.zeros((d, d))
    for k in range(d - 1):
        m = proj[k]
        sp_[k + 1, k] = math.sqrt(s * (s + 1) - m * (m + 1))
    return sp_, sp_.T.copy(), np.diag(proj)


def tensor_product_heisenberg(lattice: SpinLattice, spin: SpinMagnitude) -> np.ndarray:
    """Dense Heisenberg Hamiltonian on the full tensor-product space:
    sum over bonds of S^2 - S3 S3 - (S+ S- + S- S+)/2 built by Kronecker
    products of single-site ladder matrices."""
    d = spin.site_dim
    m = lattice.nsites
    dim = d**m
    if dim > 1 << 20:
        raise ValueError(f"tensor-product dimension {dim} exceeds the oracle cap")
    sp_, sm_, s3 = ladder_spin_matrices(spin)
    eye = np.eye(d)

    def site_op(op, site):
        out = np.array([[1.0]])
        for k in range(m):
            out = np.kron(out, op if k == site else eye)
        return out

    s = spin.s
    h = np.zeros((dim, dim))
    for x, y in lattice.bonds():
        spx, smx, szx = site_op(sp_, x), site_op(sm_, x), site_op(s3, x)
        spy, smy, szy = site_op(sp_, y), site_op(sm_, y), site_op(s3, y)
        h += s * s * np.eye(dim) - szx @ szy - 0.5 * (spx @ smy + smx @ spy)
    return h


# ---------------------------------------------------------------------------
# coordinate-collapse table
# ---------------------------------------------------------------------------


def build_coordinate_map_v(ell: int, n: int) -> dict:
    """Collapse table on sorted distinct coordinates:
    (x_1 < ... < x_n) -> (x_1, x_2-1, ..., x_n-n+1) in [1, l-n+1]^n.

    Surjectivity onto nondecreasing tuples is checked by enumeration.
    """
    if n > ell:
        raise ValueError(f"need n <= ell for distinct coordinates, got n={n} ell={ell}")
    from itertools import combinations, combinations_with_replacement

    table = {}
    for xs in combinations(range(1, ell + 1), max(n, 0)):
        table[xs] = tuple(x - i for i, x in enumerate(xs))
    images = set(table.values())
    expected = set(combinations_with_replacement(range(1, ell - n + 2), max(n, 0)))
    if images != expected:
        raise RuntimeError("collapse map failed to cover the target box")
    return table


# ---------------------------------------------------------------------------
# hermiticity defect and occupation basis states
# ---------------------------------------------------------------------------


def hermiticity_defect(op: HermitianOperator) -> float:
    """max |M - M^T| entry of an operator relative to max |M| (0 for an
    empty one)."""
    m = op.to_csr()
    scale = abs(m).max() if m.nnz else 0.0
    if scale == 0.0:
        return 0.0
    return abs(m - m.T).max() / scale


def from_occupation(basis: MagnonSectorBasis, occ) -> CoordinateState:
    """The basis state of one occupation vector `occ` of the sector."""
    v = np.zeros(basis.dim)
    v[basis.state_index(occ)] = 1.0
    return CoordinateState(basis, v)


def palindrome_count(lattice: SpinLattice, spin: SpinMagnitude, n: int) -> int:
    """The occupation vectors of sector n (none outside 0..2S*sites) that
    the site reversal fixes: the reversal's trace on the sector."""
    if not 0 <= n <= spin.two_s * lattice.nsites:
        return 0
    states = enumerate_sector_basis(lattice, spin, n).states
    return int(np.all(states == states[:, ::-1], axis=1).sum())


# ---------------------------------------------------------------------------
# maximal-spin vector and middle-sector gap
# ---------------------------------------------------------------------------


def ground_multiplet_vector(basis: MagnonSectorBasis) -> np.ndarray:
    """Unit vector of the maximal-total-spin state inside a sector.

    The fully symmetric n-magnon state has occupation amplitudes
    proportional to prod_x sqrt(C(2S, n_x)); it spans the zero-energy
    eigenspace of the sector block.
    """
    two_s = basis.spin.two_s
    site_amp = np.array(
        [math.sqrt(math.comb(two_s, k)) if k <= two_s else 0.0
         for k in range(basis.cap + 1)]
    )
    v = np.prod(site_amp[basis.states], axis=1)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("sector carries no maximal-spin state")
    return v / nrm


# Seed of the random start vector of the middle-sector ARPACK solve.
_EIGSH_SEED = 20260811


def middle_sector_gap(lattice: SpinLattice, spin: SpinMagnitude) -> float:
    """Lowest nonzero eigenvalue of the middle sector n = floor(S*l),
    which holds one copy of every total-spin multiplet: the second
    lowest eigenvalue of its sparse matrix, by ARPACK (k = 2) from a
    seeded random start vector.  A start vector with a symmetry, such
    as all ones (reflection-even), would never reach a gap mode of the
    other parity.  A sector of two states, too small for ARPACK, is
    solved densely."""
    n = (spin.two_s * lattice.nsites) // 2
    h = assemble_heisenberg(enumerate_sector_basis(lattice, spin, n)).to_csr()
    if h.shape[0] <= 2:
        return float(sla.eigvalsh(h.toarray())[1])
    v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(h.shape[0])
    return float(np.sort(spla.eigsh(h, k=2, which="SA", v0=v0, return_eigenvectors=False))[1])


# ---------------------------------------------------------------------------
# Racah's 6j sum, term by term, and the recoupled bond matrix
# ---------------------------------------------------------------------------


def six_j_by_factorials(a, b, c, d, e, f) -> float:
    """Wigner 6j symbol {a b c; d e f} of doubled spins (each argument is
    2j), by Racah's formula in exact integers; 0 when a triad (a b c),
    (a e f), (d b f), (d e c) breaks the triangle rule.  Each term of the
    sum, (t+1)! prod (t_max - alpha_i)!/(t - alpha_i)!
    prod (beta_j - t_min)!/(beta_j - t)!, is an integer built from its
    own factorials, so the sum is an exact integer N, and the symbol is
    sign(N) sqrt(N^2 Delta^2 / P^2), P = prod (t_max - alpha_i)!
    prod (beta_j - t_min)! and Delta^2 the product of the four triangle
    coefficients: one rounding for the division and one for the root."""
    triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
    num = den = 1
    for x, y, z in triads:
        if (x + y + z) % 2 or x > y + z or y > x + z or z > x + y:
            return 0.0
        num *= (math.factorial((x + y - z) // 2) * math.factorial((x - y + z) // 2)
                * math.factorial((y + z - x) // 2))
        den *= math.factorial((x + y + z) // 2 + 1)
    alphas = [sum(triad) // 2 for triad in triads]
    betas = [(a + b + d + e) // 2, (b + c + e + f) // 2, (c + a + f + d) // 2]
    lo, hi = max(alphas), min(betas)
    scale = math.prod(math.factorial(hi - x) for x in alphas)
    scale *= math.prod(math.factorial(y - lo) for y in betas)
    total = 0
    for t in range(lo, hi + 1):
        term = math.factorial(t + 1)
        for x in alphas:
            term *= math.factorial(hi - x) // math.factorial(t - x)
        for y in betas:
            term *= math.factorial(y - lo) // math.factorial(y - t)
        total += -term if t % 2 else term
    root = math.sqrt(total * total * num / (scale * scale * den))
    return -root if total < 0 else root


def recoupled_bond_matrix(a, c, two_s):
    """S^2 - S_k.S_{k+1} on the coupling paths through 2J_{k-1} = a and
    2J_{k+1} = c, by 6j recoupling, as (rows, m): index i = 0..2S stands
    for 2J_k = a - 2S + 2i, `rows` lists the i whose J_k both triads
    (a S b), (S c b) allow, and m is the dense matrix on them.  Recoupling
    J_{k-1} (x) (s_k (x) s_{k+1} -> K) gives
    S^2 - sum_K U U' (K(K+1) - 2S(S+1))/2 with
    U = sqrt((2b+1)(2K+1)) {a S b; S c K}, taken on the K of the triad
    (a c K); the recoupling phase (-1)^(a+2S+c) is the same for every b
    and K, so it cancels.  The average with its transpose makes the
    matrix bitwise symmetric."""
    # doubled spins: 2K of the triad (a c K) with K <= 2S, and 2J_k of both triads
    ks = np.arange(abs(a - c), min(a + c, 2 * two_s) + 1, 2)
    bs = np.arange(max(abs(a - two_s), abs(c - two_s)), min(a, c) + two_s + 1, 2)
    # S^2 - (K(K+1) - 2S(S+1))/2, in doubled spins
    mu = (4 * two_s * two_s + 4 * two_s - ks * (ks + 2)) / 8
    u = np.array([[math.sqrt((b + 1) * (k + 1)) * six_j_by_factorials(a, two_s, b, two_s, c, k)
                   for k in ks.tolist()] for b in bs.tolist()])
    m = (u * mu) @ u.T
    return (bs - a + two_s) // 2, (m + m.T) / 2


def coupling_basis(nsites, two_s, n):
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


def sequential_highest_weight_block(nsites, two_s, n):
    """Free-chain Hamiltonian, as triplets (rows, cols, vals, dim), on the
    highest-weight states of total spin J = S*nsites - n coupled in site
    order: the paths of `coupling_basis`.  Bond (k, k+1) changes J_k
    alone, and by at most one.  In doubled spins a = 2J_{k-1}, b = 2J_k,
    c = 2J_{k+1}, T = 2S and x' = x(x+2), the projection theorem gives the
    diagonal S_k.S_{k+1} = (b' + T' - a')(c' - b' - T')/(16 b'), 0 at
    b = 0, and raising J_k to u = b + 2 has amplitude
    sqrt(P(a) P(c)) / (32 u sqrt(u^2 - 1)), with
    P(x) = (u+x+T+2)(x+T+2-u)(u-x+T)(u+x-T): the hops of one step from
    site k+1 to site k that `hop_targets` makes.  The bond S^2 - S_k.S_{k+1}
    takes each row's diagonal summed over the bonds, and minus each
    amplitude at (row, raised) and at (raised, row)."""
    basis, paths = coupling_basis(nsites, two_s, n)
    steps, t = basis.states, float(two_s)
    a, b, c = (x * (x + 2.0) for x in (paths[:, :-2], paths[:, 1:-1], paths[:, 2:]))
    tt = t * (t + 2)
    dots = np.divide((b + tt - a) * (c - b - tt), 16 * b, out=np.zeros_like(b), where=b > 0)
    diagonal = np.sum(t * t / 4 - dots, axis=1)
    row, site = np.nonzero((steps[:, :-1] < two_s) & (steps[:, 1:] > 0))
    raised = basis.hop_targets(row, site + 1, site)
    u = paths[row, site + 1] + 2.0

    def p(x):
        return (u + x + t + 2) * (x + t + 2 - u) * (u - x + t) * (u + x - t)

    off_diagonal = -np.sqrt(p(paths[row, site]) * p(paths[row, site + 2])) / (32 * u * np.sqrt(u * u - 1))
    index = np.arange(basis.dim)
    return (np.concatenate([index, row, raised]), np.concatenate([index, raised, row]),
            np.concatenate([diagonal, off_diagonal, off_diagonal]), basis.dim)


def clebsch_gordan(j1, m1, j2, m2, j, m) -> float:
    """<j1 m1 j2 m2 | j m> of doubled spins and projections, by Racah's sum
    in exact fractions (Condon-Shortley phases); 0 off the selection rules."""
    if (m1 + m2 != m or (j1 + j2 + j) % 2 or not abs(j1 - j2) <= j <= j1 + j2
            or any(abs(x) > y or (x + y) % 2 for x, y in ((m1, j1), (m2, j2), (m, j)))):
        return 0.0

    def f(x):  # (x/2)! of an even doubled value
        return math.factorial(x // 2)

    square = Fraction((j + 1) * f(j1 + j2 - j) * f(j1 - j2 + j) * f(j2 - j1 + j), f(j1 + j2 + j + 2))
    square *= f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j + m) * f(j - m)
    total = Fraction(0)
    for k in range(0, j1 + j2 - j + 1, 2):
        args = (k, j1 + j2 - j - k, j1 - m1 - k, j2 + m2 - k, j - j2 + m1 + k, j - j1 - m2 + k)
        if min(args) >= 0:
            total += Fraction((-1) ** (k // 2), math.prod(f(x) for x in args))
    return math.copysign(math.sqrt(total * total * square), total)


def _couple(first, j1, second, j2, j):
    """The multiplet j of two multiplets, each an array whose row i is the
    state of projection -j + 2i (doubled) in its sites' product space:
    row M is sum_m1 <j1 m1 j2 M-m1 | j M> first[m1] (x) second[M-m1]."""
    out = np.zeros((j + 1, first.shape[1] * second.shape[1]))
    for i, big_m in enumerate(range(-j, j + 1, 2)):
        for i1, m1 in enumerate(range(-j1, j1 + 1, 2)):
            m2 = big_m - m1
            if abs(m2) <= j2:
                out[i] += clebsch_gordan(j1, m1, j2, m2, j, big_m) * np.kron(first[i1], second[(m2 + j2) // 2])
    return out


def mirror_coupled_states(nsites, two_s, two_j, paths, left, right, k) -> np.ndarray:
    """Column i: the state of projection M = J, 2J = two_j, of row i of a
    mirror-coupled highest-weight block on the tensor-product space of
    `tensor_product_heisenberg`: sites 1..h coupled in order along path
    paths[left[i]], sites nsites..nsites-h+1 along paths[right[i]],
    h = nsites // 2, the two to 2K = k[i], and on an odd chain the middle
    site last, every coupling by `clebsch_gordan`."""
    half, site = nsites // 2, np.eye(two_s + 1)  # site state m = -S + i
    columns = []
    for a, b, two_k in zip(paths[left].tolist(), paths[right].tolist(), k.tolist()):
        halves = []
        for path in (a, b):
            state = site
            for before, after in zip(path[1:-1], path[2:]):
                state = _couple(state, before, site, two_s, after)
            halves.append(state)
        state = _couple(halves[0], a[-1], halves[1], b[-1], two_k)
        order = list(range(half)) + list(range(nsites - 1, nsites - half - 1, -1))
        if nsites % 2:
            state = _couple(state, two_k, site, two_s, two_j)
            order.append(half)
        tensor = state[-1].reshape((two_s + 1,) * nsites)  # axes in coupling order
        columns.append(np.transpose(tensor, np.argsort(order)).reshape(-1))
    return np.array(columns).T


# ---------------------------------------------------------------------------
# continuum integrals through the Bessel series with a Hurwitz-zeta tail
# ---------------------------------------------------------------------------

# Bessel terms summed exactly before the zeta-corrected tail (at least 400/x).
_SERIES_KMAX = 1200


def _series_terms(x, kmax):
    k = np.arange(1, kmax + 1, dtype=float)
    return k, scipy.special.i0e(2.0 * x * k)


def _integral_1d_series(x):
    """integral over [0, pi] of ln(1 - e^{-x eps(p)}) dp through
    ln(1-y) = -sum y^k/k: each k-term integrates to a scaled Bessel
    function, and the k-tail is summed with Hurwitz zeta corrections
    from the Bessel asymptotics."""
    kmax = max(_SERIES_KMAX, int(math.ceil(400.0 / x)))
    k, b = _series_terms(x, kmax)
    head = -math.pi * float(np.sum(b / k))
    q = kmax + 1
    pref = math.pi / math.sqrt(4.0 * math.pi * x)
    tail = -pref * (
        scipy.special.zeta(1.5, q)
        + scipy.special.zeta(2.5, q) / (16.0 * x)
        + 9.0 * scipy.special.zeta(3.5, q) / (512.0 * x**2)
    )
    return head + tail


def _integral_2d_series(x):
    kmax = max(_SERIES_KMAX, int(math.ceil(400.0 / x)))
    k, b = _series_terms(x, kmax)
    head = -math.pi**2 * float(np.sum(b**2 / k))
    q = kmax + 1
    pref = math.pi / (4.0 * x)
    tail = -pref * (
        scipy.special.zeta(2.0, q)
        + scipy.special.zeta(3.0, q) / (8.0 * x)
        + 5.0 * scipy.special.zeta(4.0, q) / (128.0 * x**2)
    )
    return head + tail


def free_boson_integral_series(beta: float, s: float, dimension: int) -> float:
    """`magnongas.free_boson_integral` evaluated through the series."""
    x = beta * s
    if dimension == 1:
        return _integral_1d_series(x) / (math.pi * beta)
    if dimension == 2:
        return _integral_2d_series(x) / (math.pi**2 * beta)
    raise ValueError(f"dimension must be 1 or 2, got {dimension}")


# ---------------------------------------------------------------------------
# continuum constants
# ---------------------------------------------------------------------------


@dataclass
class AsymptoticConstants:
    c1: float
    c2: float
    c1_quadrature: float


def continuum_constants() -> AsymptoticConstants:
    """The two leading low-temperature constants.

    c1 = (1/2pi) integral_R ln(1-e^{-p^2}) dp, evaluated both by
    quadrature and as -zeta(3/2)/(2 sqrt pi); the two must agree to
    1e-10 or an internal-consistency error is raised.  c2 = -pi/24
    (equivalently -zeta(2)/(4 pi)).
    """
    c1_series = -scipy.special.zeta(1.5, 1) / (2.0 * math.sqrt(math.pi))

    def g(p):
        return log_one_minus_exp(p * p)

    v1, _ = _quad(g, 0.0, 1.0)
    v2, _ = _quad(g, 1.0, np.inf)
    c1_quad = (v1 + v2) / math.pi
    if abs(c1_quad - c1_series) > 1e-10:
        raise ArithmeticError(
            f"quadrature/series disagreement for c1: {c1_quad} vs {c1_series}"
        )
    c2 = -math.pi / 24.0
    assert abs(c2 + scipy.special.zeta(2.0, 1) / (4.0 * math.pi)) < 1e-14
    return AsymptoticConstants(c1=c1_series, c2=c2, c1_quadrature=c1_quad)
