"""Package re-exports that load their defining submodule on first use.

A package ``__init__`` passes a name -> submodule table to
:func:`lazy_exports` and installs the two PEP 562 hooks it returns::

    __getattr__, __dir__ = lazy_exports(__name__, {"run_table2": "table2"})

``repro.experiments.run_table2`` (and ``from repro.experiments import
run_table2``) then imports ``repro.experiments.table2`` on first access
only, so a command pays for the subsystems it uses and no others.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, table: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` serving ``table``'s names for
    ``package``; each resolved name is cached in the package globals, so
    the hook runs once per name."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in table:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{table[name]}")
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
