"""Exact arithmetic for faithful fraction decompositions.

A decomposition writes a positive rational m/n as a sum of fractions with
pairwise distinct denominators.  It is faithful when no partial selection of
the written numerators lands in the ideal (1/n)Z apart from 0 and m/n
itself.  This package builds such decompositions in closed form, verifies
arbitrary ones exactly, and searches bounded spaces exhaustively.

``import faithfrac`` loads none of the library modules, so the CLI loads
only those its command runs.  The first use of a public name, of
``__all__`` or of ``dir()`` imports all six and binds every name of their
``__all__`` here, so later lookups are plain attribute reads.
"""

__version__ = "0.1.0"

_MODULES = ("construct", "model", "numeric", "partition", "search", "verifier")


def __getattr__(name: str):
    names = globals()
    if "__all__" not in names:
        from importlib import import_module

        public = {}
        for m in _MODULES:
            module = import_module(f"{__name__}.{m}")
            public.update((attr, getattr(module, attr)) for attr in module.__all__)
        names.update(public, __all__=sorted(public))
    try:
        return names[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    __getattr__("__all__")  # binds every public name here first
    return sorted(globals())
