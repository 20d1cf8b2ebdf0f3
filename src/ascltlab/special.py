"""The scipy special functions of the package, loaded without scipy.special's
package set-up.

ndtri and erfc are compiled ufuncs of scipy.special._ufuncs, which loads
in about 0.01 s.  `import scipy.special` first runs the package's
__init__, whose array-API layer (_support_alternative_backends and the
array_api_compat it imports, with numpy.f2py, numpy.testing and numpy.ma)
costs about 0.3 s per process.  load_ufuncs imports _ufuncs under a bare
stand-in for scipy.special that carries only its __path__, and takes the
stand-in out again.  A later `import scipy.special` runs its __init__ as
usual and exports these same ufunc objects, so no value can change.

When scipy.special is already loaded, or the private load fails, the
names come from scipy.special itself.  Every other module of the package
takes its scipy special functions from here.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types


def load_ufuncs(*names: str) -> tuple:
    """The scipy.special ufuncs of those names, in that order."""
    if "scipy.special" not in sys.modules:
        try:
            ufuncs = _load_private()
        except ImportError:
            pass
        else:
            return tuple(getattr(ufuncs, name) for name in names)
    special = importlib.import_module("scipy.special")
    return tuple(getattr(special, name) for name in names)


def _load_private() -> types.ModuleType:
    """scipy.special._ufuncs, imported under a bare stand-in for its package."""
    spec = importlib.util.find_spec("scipy.special")
    if spec is None:
        raise ImportError("no scipy.special")
    stand_in = types.ModuleType("scipy.special")
    stand_in.__path__ = spec.submodule_search_locations
    sys.modules["scipy.special"] = stand_in
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        del sys.modules["scipy.special"]


ndtri, erfc = load_ufuncs("ndtri", "erfc")
