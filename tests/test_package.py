"""The package's public surface is the union of its modules' own lists."""

import importlib
import pkgutil

import fairmmd

# The command line is the package's program, not part of its library API.
NOT_EXPORTED = {"cli"}


def test_package_exports_every_module_all():
    """``fairmmd.__all__`` is ``__version__`` plus the ``__all__`` of every
    public module, each name once, and every listed name resolves to the
    object its module defines."""
    names = ["__version__"]
    for info in pkgutil.iter_modules(fairmmd.__path__):
        if info.name.startswith("_") or info.name in NOT_EXPORTED:
            continue
        module = importlib.import_module(f"fairmmd.{info.name}")
        assert hasattr(module, "__all__"), f"fairmmd.{info.name} has no __all__"
        for name in module.__all__:
            assert getattr(fairmmd, name) is getattr(module, name), name
        names += module.__all__
    assert len(set(names)) == len(names)
    assert sorted(fairmmd.__all__) == sorted(names)
    assert fairmmd.__version__
