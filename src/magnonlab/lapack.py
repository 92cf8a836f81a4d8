"""Dense symmetric eigensolver: LAPACK's dsyevr through scipy's own f2py
wrapper, called with the arguments `scipy.linalg.eigh` passes it in
scipy 1.17 (lower triangle, workspace sizes from `dsyevr_lwork`), so
each solve is bitwise the one `scipy.linalg.eigh`/`eigvalsh` returns.

The wrapper, the extension `scipy.linalg._flapack`, is loaded on its own
(about 9 ms) without running `scipy/linalg/__init__.py`, whose array-API
shims load numpy.f2py, numpy.testing and numpy.ma (about 0.3 s).  Where
scipy has loaded the extension already, that module is used.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

_FLAPACK = "scipy.linalg._flapack"
if _FLAPACK in sys.modules:
    _flapack = sys.modules[_FLAPACK]
else:
    _spec = PathFinder.find_spec(_FLAPACK, find_spec("scipy.linalg").submodule_search_locations)
    _flapack = module_from_spec(_spec)  # its ExtensionFileLoader initializes it here
    _spec.loader.exec_module(_flapack)
    # The loader files the extension in sys.modules with no parent package
    # to bind it; take it out, so that a later `import scipy.linalg` binds
    # its own module, which shares these routines.
    if sys.modules.get(_FLAPACK) is _flapack:
        del sys.modules[_FLAPACK]


def eigh(a, *, overwrite_a=False, subset_by_index=None, eigvals_only=False):
    """Eigenvalues w, ascending, and unit eigenvectors v (columns) of the
    real symmetric matrix `a`, read from its lower triangle; only w with
    `eigvals_only`.  `subset_by_index=[lo, hi]` keeps eigenvalues lo..hi
    (0-based, inclusive).  With `overwrite_a`, LAPACK may use a's storage
    (without a copy when a is Fortran-ordered).

    Raises ValueError for a NaN or inf entry, a matrix that is not square
    float64, or an invalid subset; numpy's LinAlgError when dsyevr fails.
    """
    a1 = np.asarray_chkfinite(a)
    if a1.dtype != np.float64 or a1.ndim != 2 or a1.shape[0] != a1.shape[1]:
        raise ValueError(f"expected a square float64 matrix, got {a1.dtype} {a1.shape}")
    n = len(a1)
    if n == 0:  # dsyevr_lwork refuses n = 0; scipy returns empty arrays
        return np.empty(0) if eigvals_only else (np.empty(0), np.empty((0, 0)))
    subset = {}
    if subset_by_index is not None:
        lo, hi = (int(i) for i in subset_by_index)
        if not 0 <= lo <= hi < n:
            raise ValueError(f"eigenvalue indices {lo}..{hi} outside 0..{n - 1}")
        subset = {"range": "I", "il": lo + 1, "iu": hi + 1}  # Fortran counts from 1
    lwork, liwork, info = _flapack.dsyevr_lwork(n, lower=1)
    if info != 0:
        raise ValueError(f"dsyevr workspace query failed: info={info}")
    w, v, m, _, info = _flapack.dsyevr(
        a1, compute_v=int(not eigvals_only), lower=1, overwrite_a=overwrite_a,
        lwork=int(lwork), liwork=liwork, **subset,
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed: info={info}")
    if subset:
        w, v = w[:m], v[:, :m]
    return w if eigvals_only else (w, v)


def eigvalsh(a, *, overwrite_a=False):
    """Eigenvalues of `a`, ascending, as `eigh(a, eigvals_only=True)`."""
    return eigh(a, overwrite_a=overwrite_a, eigvals_only=True)
