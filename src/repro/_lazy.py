"""Package namespaces that import each public name on first read (PEP 562).

A package keeps one table from each public name to the submodule that
defines it, derives ``__all__`` from it and takes its module hooks from
:func:`hooks`::

    from .. import _lazy

    _EXPORTS = {**dict.fromkeys(["LeaderElection"], "election")}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = _lazy.hooks(__name__, _EXPORTS)

``import`` of the package then loads none of its submodules.  The first
read of a name, ``from package import name`` included, imports the one
submodule that defines it and binds the object in the package, so later
reads are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def hooks(
    package: str, exports: Mapping[str, str | None]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each public name to its defining submodule, or to
    ``None`` for a name that is itself a submodule.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        home = exports[name]
        module = importlib.import_module(f"{package}.{home or name}")
        value = module if home is None else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
