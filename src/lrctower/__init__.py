"""Locally repairable codes from automorphism orbits of a function-field
tower, plus the full family of asymptotic rate bounds for comparing them.

`bounds` and `errors` load with the package; `codes`, `galois` and `tower`
load on first use (`lrctower.codes`, `from lrctower import codes`), so a
command that only evaluates bounds never imports them.
"""

from . import bounds, errors  # noqa: F401
from .errors import LrcError  # noqa: F401

__version__ = "0.1.0"
__all__ = ["LrcError", "bounds", "codes", "errors", "galois", "tower"]

_LAZY = frozenset({"codes", "galois", "tower"})


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LAZY)
