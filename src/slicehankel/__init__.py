"""Quaternionic slice functions, Hankel operators and best bounded-regular
approximation."""

from .quat import *
from .series import *
from .hankel import *
from .nehari import *

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += ["ExperimentConfig", "main"]


def __getattr__(name):
    # cli is imported on first use, so `python -m slicehankel.cli` does not
    # find it already in sys.modules after the package import
    if name in ("ExperimentConfig", "main"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
