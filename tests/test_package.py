"""The package's public names: one list per module, re-exported whole."""

import inspect

import faithfrac
from faithfrac import construct, model, numeric, partition, search, verifier

MODULES = (construct, model, numeric, partition, search, verifier)


def test_package_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 46
    assert set(faithfrac.__all__) == set(names)


def test_each_public_name_is_its_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(faithfrac, name)
            assert obj is getattr(module, name), name
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name
