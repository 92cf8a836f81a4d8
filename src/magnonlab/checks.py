"""Named certificate suites over parameter grids.

Each check maps a name to a runner producing a list of certificates
over one grid, sized to what the package is expected to certify.  A
grid is a list of blocks, each the product of one value list per cell
axis (`_cells`).
An override (`ells`, `spins`, `ns`, `betas`) replaces its axis in every
block, except that casimir, truncation and subadditivity run one
fallback block under any override.  A suite takes only the overrides
its runner names, and `run_check` rejects any other.  `_prepare` checks
every override value and sizes every sector of every cell before the
first cell runs (`sector_dimension`, nothing enumerated), so a bad value
or an oversized cell is refused before any work.  Cells run in grid
order; consecutive cells that differ only in beta share one call of
their check, which builds its spectra once for all their betas.
Random-state cells draw from streams seeded by the root seed and the
cell's parameters (`rng_for`), so a cell's certificates do not depend on
which other cells run.
"""

from __future__ import annotations

import inspect
from itertools import groupby, product

from . import lapack as sla
from .basis import (
    SpinLattice,
    SpinMagnitude,
    enumerate_sector_basis,
    require_sector_dimensions,
    require_total_dimension,
)
from .boundlab import (
    coordinate_collapse_matrix,
    gibbs_cdf,
    gibbs_random_state,
    haar_random_state,
    rng_for,
    verify_casimir_lower_bound,
    verify_density_bounds,
    verify_halfspin_quadratic_form_equality,
    verify_laplacian_lower_bound,
    verify_low_energy_truncation,
    verify_php_leq_t,
    verify_vnorm_lower_bound,
)
from .certificates import DEFAULT_SEED, worst
from .operators import verify_su2_representation
from .spectra import (
    DEFAULT_DIM_CAP,
    DENSE_SECTOR_CAP,
    check_localization_bound,
    check_subadditivity,
    dense_sectors,
)


# Beta of the Gibbs-sampled states of the density suite.
_GIBBS_BETA = 2.0
# Random states sampled per cell of the laplacian, vnorm and density suites.
_SAMPLES = 100
# The command-line flag of each grid-axis override.
_OVERRIDE_FLAGS = {"ells": "--ell", "spins": "--two-s", "ns": "--n", "betas": "--beta"}


def _cells(blocks, overrides, fits=None):
    """Cells of a grid: each block is a sequence of value lists, one per
    cell axis, and its cells are their product in order.  A non-None
    entry of `overrides` replaces its axis in every block, a block equal
    to an earlier one is then dropped, and `fits(*cell)` keeps the
    admissible cells."""
    blocks = dict.fromkeys(
        tuple(tuple(axis if override is None else override)
              for axis, override in zip(block, overrides))
        for block in blocks
    )
    return [cell for block in blocks for cell in product(*block) if not fits or fits(*cell)]


def _prepare(cells, sectors=None, ells=None, spins=None, ns=None, rule=None,
             limit=DENSE_SECTOR_CAP, total=None):
    """Return `cells` once no override is bad and no cell too large: build
    the chain of every `ells` value and the spin of every `spins` value,
    which no `fits` filter drops; refuse an `ns` value that no cell uses
    (cells need `rule`), then a negative one; then size the sectors
    `sectors(*cell)` = (sites, per-site cap, magnon numbers) of every
    cell against `limit`, each cell's whole chain first against `total`
    if it is given, as `full_spectrum` does."""
    for ell in ells or ():
        SpinLattice.chain(ell)
    for two_s in spins or ():
        SpinMagnitude(two_s)
    sized = [sectors(*cell) for cell in cells] if sectors else []
    used = {n for _, _, numbers in sized for n in numbers}
    for n in ns or ():
        if n not in used:
            raise ValueError(f"n={n} gives no cell: no requested ell and 2S satisfy {rule}")
    for n in ns or ():
        if n < 0:
            raise ValueError(f"n must be >= 0, got n={n}")
    for sites, cap, numbers in sized:
        if total:
            require_total_dimension(sites, cap, total)
        require_sector_dimensions(sites, cap, numbers, limit)
    return cells


def _whole_chain(ell, two_s, *_):
    """Every sector of the chain of `ell` sites at 2S = `two_s`."""
    return ell, two_s, range(two_s * ell + 1)


def _per_beta_run(check, cells):
    """Certificates of `cells`, tuples (..., two_s, beta), in cell order:
    each run of consecutive cells that differ only in beta is one call
    `check(..., SpinMagnitude(two_s), betas)`."""
    certs = []
    for (*rest, two_s), run in groupby(cells, key=lambda cell: cell[:-1]):
        certs += check(*rest, SpinMagnitude(two_s), [cell[-1] for cell in run])
    return certs


def run_su2(seed=DEFAULT_SEED, spins=None):
    cells = _prepare(_cells([((1, 2, 3),)], (spins,)), spins=spins)
    return [verify_su2_representation(SpinMagnitude(two_s)) for (two_s,) in cells]


def run_php_leq_t(seed=DEFAULT_SEED, ells=None, spins=None, ns=None):
    # the n-boson sectors are uncapped: the per-site cap is n
    cells = _prepare(_cells([(range(2, 6), (1, 2, 3), range(9))], (ells, spins, ns)),
                     lambda ell, _, n: (ell, n, [n]), ells, spins, ns)
    return [verify_php_leq_t(ell, SpinMagnitude(two_s), n) for ell, two_s, n in cells]


def run_casimir(seed=DEFAULT_SEED, ells=None, spins=None):
    blocks = [(range(2, 11), (1,)), (range(2, 7), (2,))]
    if ells or spins:
        blocks = [((4,), (1,))]
    cells = _prepare(_cells(blocks, (ells, spins)), _whole_chain, ells, spins)
    return [verify_casimir_lower_bound(ell, SpinMagnitude(two_s)) for ell, two_s in cells]


def run_laplacian(seed=DEFAULT_SEED, ells=None, spins=None, ns=None):
    ell_ax = range(2, 7)
    blocks = [(ell_ax, (1, 2), range(max(ells or ell_ax) + 1))]
    cells = _cells(blocks, (ells, spins, ns), lambda ell, _, n: n <= ell)
    _prepare(cells, lambda ell, two_s, n: (ell, two_s, [n]), ells, spins, ns, "n <= ell")
    certs = []
    for ell, two_s, n in cells:
        certs.append(verify_laplacian_lower_bound(ell, SpinMagnitude(two_s), n))
        if two_s == 1 and n >= 1:
            certs.append(
                verify_halfspin_quadratic_form_equality(ell, n, _SAMPLES, seed=seed)
            )
    return certs


def _random_state_cells(block, ells, spins, ns, limit, fits, rule):
    """Prepared cells (ell, n, two_s) of a random-state suite, those
    that `fits(ell, n, two_s)` keeps, which satisfy `rule`."""
    cells = _cells([block], (ells, ns, spins), fits)
    return _prepare(cells, lambda ell, n, two_s: (ell, two_s, [n]), ells, spins, ns,
                    rule, limit)


def run_vnorm(seed=DEFAULT_SEED, ells=None, spins=None, ns=None):
    certs = []
    # the collapse map V needs n <= ell
    cells = _random_state_cells(((4, 5), (2, 3), (1, 2)), ells, spins, ns, DEFAULT_DIM_CAP,
                                lambda ell, n, _: n <= ell, "n <= ell")
    for ell, n, two_s in cells:
        basis = enumerate_sector_basis(SpinLattice.chain(ell), SpinMagnitude(two_s), n)
        collapse, _ = coordinate_collapse_matrix(basis)
        rng = rng_for(seed, 1, ell, n, two_s)
        cert = worst(
            (verify_vnorm_lower_bound(haar_random_state(basis, rng), collapse)
             for _ in range(_SAMPLES)),
            key=lambda c: c.slack,
        )
        cert.params["samples"] = _SAMPLES
        cert.seed = seed
        certs.append(cert)
    return certs


def run_density(seed=DEFAULT_SEED, ells=None, spins=None, ns=None):
    certs = []
    cells = _random_state_cells(((4, 5, 6), (2, 3), (1, 2)), ells, spins, ns, DENSE_SECTOR_CAP,
                                lambda ell, n, two_s: n <= two_s * ell, "n <= 2S*ell")
    for ell, n, two_s in cells:
        ((basis, h),) = dense_sectors(SpinLattice.chain(ell), SpinMagnitude(two_s), [n])
        energies, vectors = sla.eigh(h)
        cdf = gibbs_cdf(energies, _GIBBS_BETA)
        pairs = []
        for kind in ("haar", "gibbs"):
            rng = rng_for(seed, 2, ell, n, two_s, 0 if kind == "haar" else 1)
            for _ in range(_SAMPLES):
                if kind == "haar":
                    state = haar_random_state(basis, rng)
                else:
                    state = gibbs_random_state(basis, vectors, cdf, rng)
                pairs.append(verify_density_bounds(state, h))
        for cert in (worst(side, key=lambda c: c.slack) for side in zip(*pairs)):
            cert.params["samples"] = 2 * _SAMPLES
            cert.seed = seed
            certs.append(cert)
    return certs


def run_truncation(seed=DEFAULT_SEED, ells=None, spins=None, betas=None):
    blocks = [((3, 4, 5), (1,), (4.0, 8.0)), ((3, 4), (2,), (4.0,))]
    if ells or spins or betas:
        blocks = [((4,), (1,), (8.0,))]
    cells = _prepare(_cells(blocks, (ells, spins, betas)), _whole_chain, ells, spins)
    return _per_beta_run(verify_low_energy_truncation, cells)


def run_subadditivity(seed=DEFAULT_SEED, ells=None, spins=None, betas=None):
    blocks = [((4, 6, 8), (1,), (1.0, 2.0, 8.0)), ((4, 5), (2,), (1.0, 2.0))]
    if ells or spins or betas:
        blocks = [((6,), (1,), (2.0,))]
    for total in ells or ():
        if total < 2:
            raise ValueError(f"subadditivity splits a chain of L >= 2 sites, got L={total}")
    cells = _prepare(_cells(blocks, (ells, spins, betas)), _whole_chain, ells, spins,
                     total=DEFAULT_DIM_CAP)
    return _per_beta_run(check_subadditivity, cells)


def run_localization(seed=DEFAULT_SEED, betas=None):
    cells = [(7, 2, 1, 2.0), (7, 2, 1, 4.0), (9, 3, 1, 2.0), (10, 2, 1, 4.0), (7, 2, 2, 2.0)]
    # each cell is a block, so under --beta the two (7, 2, 1) blocks are one
    cells = _cells([[(value,) for value in cell] for cell in cells], (None, None, None, betas))
    # a cell (L, ell, two_s, beta) builds no chain longer than L
    _prepare(cells, lambda total, _, two_s, beta: _whole_chain(total, two_s),
             total=DEFAULT_DIM_CAP)
    return _per_beta_run(check_localization_bound, cells)


CHECKS = {
    "su2": run_su2,
    "php-leq-t": run_php_leq_t,
    "casimir": run_casimir,
    "laplacian": run_laplacian,
    "vnorm": run_vnorm,
    "density": run_density,
    "truncation": run_truncation,
    "subadditivity": run_subadditivity,
    "localization": run_localization,
}


def run_check(name, grid="default", seed=DEFAULT_SEED, **overrides):
    """Run suite `name` on its grid; raise ValueError for an override it
    does not take, or for a negative seed, whether or not the suite
    draws from it.  `grid` takes only "default", the name of that grid."""
    if grid != "default":
        raise ValueError(f"unknown grid {grid!r}; the one grid is 'default'")
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    if name not in CHECKS:
        raise ValueError(
            f"unknown check {name!r}; valid names: {', '.join(sorted(CHECKS))}"
        )
    runner = CHECKS[name]
    params = inspect.signature(runner).parameters
    for key in overrides:
        if key not in params:
            taken = ", ".join(f for k, f in _OVERRIDE_FLAGS.items() if k in params)
            raise ValueError(
                f"{_OVERRIDE_FLAGS.get(key, key)} does not apply to {name}; "
                f"it takes {taken}"
            )
    return runner(seed=seed, **overrides)
