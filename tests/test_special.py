import os
import subprocess
import sys

import pytest
import scipy
import scipy.special

from ascltlab import special

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# the two the package calls, then the ones ROADMAP items 5 and 14 would add
FRESH_SCRIPT = """
import sys, ascltlab.cli
from ascltlab import special
loaded = (special.ndtri, special.erfc) + special.load_ufuncs("ndtr", "kolmogorov", "log1p", "expm1")
layer = ("scipy.special", "scipy.special._support_alternative_backends", "scipy._lib.array_api_compat")
print([name for name in layer if name in sys.modules])
import scipy.special
names = ("ndtri", "erfc", "ndtr", "kolmogorov", "log1p", "expm1")
print([name for name, f in zip(names, loaded) if f is not getattr(scipy.special, name)])
"""


def test_cli_import_skips_the_array_api_layer_and_keeps_scipys_objects():
    # in a fresh interpreter the CLI loads the compiled ufuncs only, and a
    # later `import scipy.special` hands out the very same objects
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", FRESH_SCRIPT], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_loader_falls_back_to_scipy_special(monkeypatch):
    names = ("ndtri", "erfc", "ndtr")
    own = [getattr(scipy.special, name) for name in names]
    tries = []

    def refuse():
        tries.append(1)
        raise ImportError("no private load")

    monkeypatch.setattr(special, "_load_private", refuse)
    # scipy.special already loaded: its own objects, with no private load
    assert [a is b for a, b in zip(special.load_ufuncs(*names), own)] == [True] * 3
    assert not tries
    # not loaded, and the private load fails: scipy.special imported for real
    monkeypatch.delitem(sys.modules, "scipy.special")
    monkeypatch.setattr(scipy, "special", scipy.special)  # the import rebinds it
    assert [a is b for a, b in zip(special.load_ufuncs(*names), own)] == [True] * 3
    assert tries == [1]
    assert sys.modules["scipy.special"].__file__ == scipy.special.__file__


def test_failed_private_load_leaves_no_stand_in(monkeypatch):
    # a None entry makes `import scipy.special._ufuncs` raise ImportError
    monkeypatch.delitem(sys.modules, "scipy.special")
    monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", None)
    with pytest.raises(ImportError):
        special._load_private()
    assert "scipy.special" not in sys.modules
