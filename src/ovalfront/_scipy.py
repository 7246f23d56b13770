"""SciPy's compiled root finders and tridiagonal solvers, without its package inits.

ovalfront calls five compiled routines of SciPy: LAPACK's ``dgtsv``,
``dgttrf`` and ``dgttrs``, Brent's method (``_brentq``) and MINPACK's
``_hybrd``.  Reaching them through ``scipy.linalg`` and ``scipy.optimize``
runs those packages' inits, which load some 300 modules and take most of a
short command's time.  This module loads the three extension modules that
hold the routines straight from SciPy's directory, and registers each under
its own name, so a later ``import scipy.linalg`` or ``scipy.optimize``
reuses the same module objects.

The extension modules and the positional arguments of ``_brentq`` and
``_hybrd`` are private to SciPy; ``tests/test_scipy_routines.py`` checks
them against the public functions that wrap them.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path


def _load_extension(name: str):
    """Import the extension module ``name`` ("scipy.<package>.<module>") alone."""
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = find_spec("scipy")  # finds the package without running its __init__
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    package = Path(scipy_spec.submodule_search_locations[0], *name.split(".")[1:-1])
    spec = FileFinder(str(package), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"SciPy at {package.parent} has no extension module {name}", name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_extension("scipy.linalg._flapack")
_zeros = _load_extension("scipy.optimize._zeros")
_minpack = _load_extension("scipy.optimize._minpack")

dgtsv = _flapack.dgtsv
dgttrf = _flapack.dgttrf
dgttrs = _flapack.dgttrs

# brentq(f, a, b, xtol, rtol, maxiter, args, full_output, disp) returns the
# root; scipy.optimize.brentq adds a NaN guard around f, which callers keep
brentq = _zeros._brentq
# scipy.optimize.brentq's defaults after xtol: rtol = 4 eps, maxiter = 100,
# no extra arguments, the root alone, and a RuntimeError on non-convergence
BRENTQ_DEFAULTS = (4.0 * sys.float_info.epsilon, 100, (), False, True)

# hybrd(f, x0, args, full_output, xtol, maxfev, ml, mu, epsfcn, factor, diag)
# returns (x, info, ..., status), with info["fvec"] = f(x); it writes the
# solution into x0 when x0 is a contiguous float64 array
hybrd = _minpack._hybrd
