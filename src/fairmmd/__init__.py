"""Kernel two-sample statistics for group fairness.

The package measures how far a learned representation is from equalized
odds by comparing label-reweighted group mixtures with a maximum mean
discrepancy, and backs the number up three ways: closed forms on Gaussian
populations, finite-sample deviation certificates, and bound clauses that
relate the statistic to classifier-level fairness gaps.  A small gradient
trainer turns the squared statistic into a penalty.

``import fairmmd`` loads none of its modules.  The first use of a public
name (or of ``__all__``, as ``from fairmmd import *`` does) loads every
public module and binds their names here; ``fairmmd.<module>`` loads that
module alone.  So a command of ``fairmmd.cli`` loads only the modules it
runs.
"""

import importlib

__version__ = "0.1.0"

# The public modules, in the order of ``__all__``.  The public names of the
# package are those of these modules, listed once in each module's __all__.
_MODULES = ("errors", "kernels", "synth", "mmd", "fairness", "eok", "bounds", "complexity",
            "frl")


def _load_public_names() -> list:
    """Import every public module, bind its public names here and return
    ``__all__``."""
    names = ["__version__"]
    for name in _MODULES:
        module = importlib.import_module(f"{__name__}.{name}")
        globals().update((attr, getattr(module, attr)) for attr in module.__all__)
        names += module.__all__
    globals()["__all__"] = names
    return names


def __getattr__(name):
    # The import system asks for a submodule before it imports one
    # (``from fairmmd import cli`` looks up ``cli`` first), so a submodule's
    # name imports that module alone and a private or dunder name is not
    # looked for; either must not load every public module.
    if name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__" or not name.startswith("_"):
        names = _load_public_names()
        if name in names or name == "__all__":
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _load_public_names()
    return sorted(set(globals()) - _OWN)


# The machinery above, which ``dir(fairmmd)`` leaves out: it lists the
# package's names, as it did when they were imported eagerly.
_OWN = {"importlib", "_MODULES", "_OWN", "_load_public_names", "__getattr__", "__dir__"}
