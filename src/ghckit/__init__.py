"""Exact-arithmetic toolkit for root subalgebras, shadow decompositions,
finite-type criteria and k-type multiplicity series."""

import importlib

__all__ = ["errors", "exact", "fk", "mathieu", "principal", "rootsys", "shadow"]
__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: a submodule is imported on first access, so `import ghckit` loads none
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
