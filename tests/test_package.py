"""The package's public names: one list per module, re-exported whole, and
bound on first use so that ``import faithfrac`` loads no module."""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import faithfrac
from faithfrac import construct, model, numeric, partition, search, verifier

MODULES = (construct, model, numeric, partition, search, verifier)
SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code: str):
    """What ``code`` prints as JSON in a new interpreter that imports
    faithfrac from the src/ next to this file (-E -S: no environment
    variable or site-packages hook loads anything first)."""
    setup = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
    proc = subprocess.run([sys.executable, "-E", "-S", "-c", setup + code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 45
    assert set(faithfrac.__all__) == set(names)


def test_each_public_name_is_its_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(faithfrac, name)
            assert obj is getattr(module, name), name
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name


def test_star_import_binds_exactly_the_package_all():
    bound, public = fresh(
        "ns = {}\nexec('from faithfrac import *', ns)\nimport faithfrac\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), faithfrac.__all__]))"
    )
    assert bound == public
    assert len(public) == 45


def test_one_public_name_binds_every_name():
    count, missing = fresh(
        "import faithfrac\nfaithfrac.verify\n"
        "names = [n for key, m in sys.modules.items() if key.startswith('faithfrac.') for n in m.__all__]\n"
        "print(json.dumps([len(names), sorted(set(names) - set(vars(faithfrac)))]))"
    )
    assert (count, missing) == (45, [])


def test_dir_lists_every_public_name_before_first_use():
    listed, public = fresh(
        "import faithfrac\nlisted = dir(faithfrac)\n"
        "print(json.dumps([listed, faithfrac.__all__]))"
    )
    assert set(public) <= set(listed)
    assert {"__version__", "construct", "verifier"} <= set(listed)


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        faithfrac.no_such_name


def test_version_imports_no_submodule():
    assert fresh(
        "import faithfrac\nversion = faithfrac.__version__\n"
        "print(json.dumps([version, sorted(m for m in sys.modules if m.startswith('faithfrac'))]))"
    ) == ["0.1.0", ["faithfrac"]]


def test_the_whole_package_loads_neither_dataclasses_nor_inspect():
    # The value records share one small base class in faithfrac.model.
    assert fresh(
        "import faithfrac\nfaithfrac.verify\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect') if m in sys.modules]))"
    ) == []
