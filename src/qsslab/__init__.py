"""qsslab: quasi-separability classification and purification-protocol
search for small bipartite quantum states."""

import importlib

from . import config, entanglement, linalg, protocol, qss, search, states
from .errors import QsslabError

__version__ = "0.1.0"

__all__ = [
    "cli",
    "config",
    "entanglement",
    "linalg",
    "protocol",
    "qss",
    "search",
    "states",
    "QsslabError",
]


def __getattr__(name):
    # cli loads on first use, so `python -m qsslab.cli` runs it only once,
    # as __main__
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
