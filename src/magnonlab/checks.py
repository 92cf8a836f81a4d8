"""Named certificate suites over parameter grids.

Each check maps a name to a runner producing a list of certificates;
the default grids match the sizes the package is expected to certify,
the quick grids are trimmed for smoke runs, and explicit overrides
(`ells`, `spins`, `ns`, `betas`) replace the corresponding axis of the
grid.  A suite takes only the overrides its runner names, and
`run_check` rejects any other.  Cells run one after another in grid
order; random-state cells draw from streams seeded by the root seed and
the cell's parameters (`rng_for`), so a cell's certificates do not
depend on which other cells run.
"""

from __future__ import annotations

import inspect

import scipy.linalg as sla

from .basis import SpinLattice, SpinMagnitude, enumerate_sector_basis, require_sector_dimensions
from .boundlab import (
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
from .certificates import DEFAULT_SEED, InequalityCertificate, worst
from .operators import verify_su2_representation
from .spectra import DEFAULT_DIM_CAP, check_localization_bound, check_subadditivity, dense_sectors


# Beta of the Gibbs-sampled states of the density suite.
_GIBBS_BETA = 2.0
# The command-line flag of each grid-axis override.
_OVERRIDE_FLAGS = {"ells": "--ell", "spins": "--two-s", "ns": "--n", "betas": "--beta"}


def _axis(override, default):
    if override is None:
        return tuple(default)
    return tuple(override)


def run_su2(grid="default", seed=DEFAULT_SEED, spins=None):
    two_s_list = _axis(spins, (1, 2, 3) if grid == "default" else (1, 2))
    certs = []
    for two_s in two_s_list:
        spin = SpinMagnitude(two_s)
        res = verify_su2_representation(spin, spin.site_dim)
        certs.append(
            InequalityCertificate(
                name="su2-representation",
                params={"two_s": two_s},
                slack=-res["max_residual"],
                tolerance=1e-12,
            )
        )
    return certs


def run_php_leq_t(grid="default", seed=DEFAULT_SEED, ells=None, spins=None, ns=None):
    if grid == "default":
        ell_ax, spin_ax, n_ax = range(2, 6), (1, 2, 3), range(0, 9)
    else:
        ell_ax, spin_ax, n_ax = (2, 3), (1, 2), range(0, 4)
    cells = [
        (ell, two_s, n)
        for ell in _axis(ells, ell_ax)
        for two_s in _axis(spins, spin_ax)
        for n in _axis(ns, n_ax)
    ]
    return [verify_php_leq_t(ell, SpinMagnitude(two_s), n) for ell, two_s, n in cells]


def run_casimir(grid="default", seed=DEFAULT_SEED, ells=None, spins=None):
    if ells is not None or spins is not None:
        cells = [
            (ell, two_s)
            for ell in _axis(ells, (4,))
            for two_s in _axis(spins, (1,))
        ]
    elif grid == "default":
        cells = [(ell, 1) for ell in range(2, 11)] + [(ell, 2) for ell in range(2, 7)]
    else:
        cells = [(ell, 1) for ell in (2, 3, 4)] + [(2, 2), (3, 2)]
    return [verify_casimir_lower_bound(ell, SpinMagnitude(two_s)) for ell, two_s in cells]


def run_laplacian(grid="default", seed=DEFAULT_SEED, ells=None, spins=None, ns=None):
    if grid == "default":
        ell_ax, spin_ax, samples = range(2, 7), (1, 2), 100
    else:
        ell_ax, spin_ax, samples = range(2, 5), (1, 2), 20
    cells = [
        (ell, two_s, n)
        for ell in _axis(ells, ell_ax)
        for two_s in _axis(spins, spin_ax)
        for n in (ns if ns is not None else range(0, ell + 1))
        if n <= ell
    ]
    _require_every_n(ns, {n for _, _, n in cells}, "n <= ell")
    certs = []
    for ell, two_s, n in cells:
        certs.append(verify_laplacian_lower_bound(ell, SpinMagnitude(two_s), n))
        if two_s == 1 and n >= 1:
            certs.append(
                verify_halfspin_quadratic_form_equality(ell, n, samples, seed=seed)
            )
    return certs


def _require_every_n(ns, used, rule):
    """Raise ValueError for the first value of an explicit `ns` override
    that no cell uses, instead of dropping it silently."""
    for n in ns or ():
        if n not in used:
            raise ValueError(
                f"n={n} gives no cell: no requested ell and 2S satisfy {rule}"
            )


def _random_state_cells(ells, ns, spins, defaults):
    ell_ax, n_ax, spin_ax = defaults
    cells = [
        (ell, n, two_s)
        for ell in _axis(ells, ell_ax)
        for n in _axis(ns, n_ax)
        for two_s in _axis(spins, spin_ax)
        if n <= two_s * ell
    ]
    _require_every_n(ns, {n for _, n, _ in cells}, "n <= 2S*ell")
    return cells


def run_vnorm(grid="default", seed=DEFAULT_SEED, ells=None, spins=None, ns=None):
    if grid == "default":
        ell_ax, n_ax, spin_ax, samples = (4, 5), (2, 3), (1, 2), 100
    else:
        ell_ax, n_ax, spin_ax, samples = (4,), (2,), (1, 2), 20
    certs = []
    for ell, n, two_s in _random_state_cells(ells, ns, spins, (ell_ax, n_ax, spin_ax)):
        require_sector_dimensions(ell, two_s, [n], DEFAULT_DIM_CAP)
        basis = enumerate_sector_basis(SpinLattice.chain(ell), SpinMagnitude(two_s), n)
        rng = rng_for(seed, 1, ell, n, two_s)
        cert = worst(
            (verify_vnorm_lower_bound(haar_random_state(basis, rng)) for _ in range(samples)),
            key=lambda c: c.slack,
        )
        cert.params["samples"] = samples
        cert.seed = seed
        certs.append(cert)
    return certs


def run_density(grid="default", seed=DEFAULT_SEED, ells=None, spins=None, ns=None):
    if grid == "default":
        ell_ax, n_ax, spin_ax, samples = (4, 5, 6), (2, 3), (1, 2), 100
    else:
        ell_ax, n_ax, spin_ax, samples = (4, 5), (2,), (1, 2), 20
    certs = []
    for ell, n, two_s in _random_state_cells(ells, ns, spins, (ell_ax, n_ax, spin_ax)):
        ((basis, h),) = dense_sectors(SpinLattice.chain(ell), SpinMagnitude(two_s), [n])
        eigh_pair = sla.eigh(h)
        pairs = []
        for kind in ("haar", "gibbs"):
            rng = rng_for(seed, 2, ell, n, two_s, 0 if kind == "haar" else 1)
            for _ in range(samples):
                if kind == "haar":
                    state = haar_random_state(basis, rng)
                else:
                    state = gibbs_random_state(basis, eigh_pair, _GIBBS_BETA, rng)
                pairs.append(verify_density_bounds(state, h))
        for cert in (worst(side, key=lambda c: c.slack) for side in zip(*pairs)):
            cert.params["samples"] = 2 * samples
            cert.seed = seed
            certs.append(cert)
    return certs


def run_truncation(grid="default", seed=DEFAULT_SEED, ells=None, spins=None, betas=None):
    if ells is not None or spins is not None or betas is not None:
        cells = [
            (ell, two_s, beta)
            for ell in _axis(ells, (4,))
            for two_s in _axis(spins, (1,))
            for beta in _axis(betas, (8.0,))
        ]
    elif grid == "default":
        cells = [(ell, 1, beta) for ell in (3, 4, 5) for beta in (4.0, 8.0)]
        cells += [(3, 2, 4.0), (4, 2, 4.0)]
    else:
        cells = [(3, 1, 4.0), (4, 1, 8.0)]
    return [
        verify_low_energy_truncation(ell, SpinMagnitude(two_s), beta)
        for ell, two_s, beta in cells
    ]


def run_subadditivity(grid="default", seed=DEFAULT_SEED, ells=None, spins=None, betas=None):
    if ells is not None or spins is not None or betas is not None:
        cells = [
            (total, two_s, beta)
            for total in _axis(ells, (6,))
            for two_s in _axis(spins, (1,))
            for beta in _axis(betas, (2.0,))
        ]
    elif grid == "default":
        cells = [(total, 1, beta) for total in (4, 6, 8) for beta in (1.0, 2.0, 8.0)]
        cells += [(total, 2, beta) for total in (4, 5) for beta in (1.0, 2.0)]
    else:
        cells = [(4, 1, 2.0), (4, 2, 1.0)]
    return [
        check_subadditivity(total, SpinMagnitude(two_s), beta) for total, two_s, beta in cells
    ]


def run_localization(grid="default", seed=DEFAULT_SEED, betas=None):
    if grid == "default":
        cells = [
            (7, 2, 1, 2.0),
            (7, 2, 1, 4.0),
            (9, 3, 1, 2.0),
            (10, 2, 1, 4.0),
            (7, 2, 2, 2.0),
        ]
    else:
        cells = [(7, 2, 1, 4.0)]
    if betas is not None:
        cells = [(total, ell, two_s, beta) for total, ell, two_s, _ in cells
                 for beta in betas]
    return [
        check_localization_bound(total, ell, SpinMagnitude(two_s), beta)
        for total, ell, two_s, beta in cells
    ]


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
    """Run suite `name`; raise ValueError for an override it does not take."""
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
    return runner(grid=grid, seed=seed, **overrides)
