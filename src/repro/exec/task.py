"""Deterministic task specifications: the unit a campaign executes.

A :class:`TaskSpec` is a *pure computation by name*: an importable
function (``"package.module:qualname"``), a frozen set of
JSON-serialisable keyword parameters, and an optional derived seed
(see :mod:`repro.sim.seeding`).  Because the spec carries no live
objects it can cross process boundaries, be hashed into a stable
cache key, and be re-executed months later with byte-identical
results — the properties the campaign engine is built on.

``spec_hash`` covers what the task *is*; :func:`code_fingerprint`
covers what the code *was* (a digest of the defining module's source),
so a cached result is only reused while both match.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

#: JSON types allowed in task parameters (checked at spec creation so
#: the failure happens where the bad value was written, not in a worker).
_JSON_SCALARS = (str, int, float, bool, type(None))


class SpecError(ValueError):
    """A task spec that cannot be executed or addressed."""


def canonical_json(value: Any) -> str:
    """The one true serialisation: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _check_json(value: Any, where: str) -> None:
    if isinstance(value, _JSON_SCALARS):
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            _check_json(item, where)
        return
    if isinstance(value, Mapping):
        for key, item in value.items():
            if not isinstance(key, str):
                raise SpecError(f"{where}: mapping keys must be str, got {key!r}")
            _check_json(item, where)
        return
    raise SpecError(
        f"{where}: {value!r} is not JSON-serialisable; task params must be "
        "plain data (str/int/float/bool/None/list/dict)"
    )


def fn_path(fn: Callable[..., Any]) -> str:
    """``"module:qualname"`` for a module-level callable.

    Raises :class:`SpecError` for lambdas, closures and methods — a
    spec must be resolvable in a fresh process, so only importable
    top-level functions qualify.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise SpecError(
            f"{fn!r} is not addressable as module:qualname; campaign tasks "
            "must be module-level functions (no lambdas or closures)"
        )
    path = f"{module}:{qualname}"
    if resolve_fn(path) is not fn:
        raise SpecError(
            f"{path} does not resolve back to {fn!r}; "
            "is it shadowed or defined dynamically?"
        )
    return path


def resolve_fn(path: str) -> Callable[..., Any]:
    """Import and return the callable named by ``"module:qualname"``."""
    module_name, sep, qualname = path.partition(":")
    if not sep or not module_name or not qualname:
        raise SpecError(f"bad function path {path!r}; expected 'module:qualname'")
    try:
        obj: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise SpecError(f"cannot import module {module_name!r}: {exc}") from exc
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise SpecError(f"{module_name!r} has no attribute {qualname!r}") from None
    if not callable(obj):
        raise SpecError(f"{path} is not callable")
    return obj


_fingerprints: dict[str, str] = {}


def code_fingerprint(path: str) -> str:
    """Digest of the source file defining ``path``'s module.

    Editing the module invalidates every cached result produced by its
    functions; results from unrelated modules survive.  Falls back to
    hashing the path itself for modules without a source file.
    """
    from .._digest import sha256

    module_name = path.partition(":")[0]
    cached = _fingerprints.get(module_name)
    if cached is not None:
        return cached
    origin = None
    try:
        spec = importlib.util.find_spec(module_name)
        origin = spec.origin if spec else None
    except (ImportError, ValueError):
        origin = None
    digest = sha256()
    if origin and origin != "built-in":
        try:
            digest.update(Path(origin).read_bytes())
        except OSError:
            digest.update(origin.encode())
    else:
        digest.update(module_name.encode())
    fingerprint = digest.hexdigest()
    _fingerprints[module_name] = fingerprint
    return fingerprint


@dataclass(frozen=True)
class TaskSpec:
    """One deterministic unit of campaign work.

    Create via :meth:`make`, which validates addressability and
    parameter serialisability up front.
    """

    fn: str
    params: tuple[tuple[str, Any], ...] = ()
    seed: int | None = None
    label: str = ""
    _hash: str = field(default="", repr=False, compare=False)

    @classmethod
    def make(
        cls,
        fn: str | Callable[..., Any],
        /,
        *,
        seed: int | None = None,
        label: str | None = None,
        **params: Any,
    ) -> "TaskSpec":
        """Build a spec from a function (or path) and keyword params."""
        path = fn if isinstance(fn, str) else fn_path(fn)
        _check_json(dict(params), f"params of {path}")
        items = tuple(sorted(params.items()))
        if label is None:
            brief = ",".join(f"{k}={v}" for k, v in items)
            label = f"{path.partition(':')[2]}({brief})"
        return cls(fn=path, params=items, seed=seed, label=label)

    def canonical(self) -> dict[str, Any]:
        """The hashed, wire-format form of this spec."""
        return {
            "fn": self.fn,
            "params": {k: v for k, v in self.params},
            "seed": self.seed,
        }

    @classmethod
    def from_canonical(cls, data: Mapping[str, Any], label: str = "") -> "TaskSpec":
        """Rebuild a spec from :meth:`canonical` output (worker side)."""
        return cls(
            fn=data["fn"],
            params=tuple(sorted(data.get("params", {}).items())),
            seed=data.get("seed"),
            label=label,
        )

    @property
    def spec_hash(self) -> str:
        """SHA-256 over the canonical JSON — the task's identity."""
        digest = object.__getattribute__(self, "_hash")
        if not digest:
            from .._digest import sha256

            digest = sha256(canonical_json(self.canonical()).encode()).hexdigest()
            object.__setattr__(self, "_hash", digest)
        return digest

    def execute(self) -> Any:
        """Run the task in the current process and return its value."""
        kwargs = {k: v for k, v in self.params}
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return resolve_fn(self.fn)(**kwargs)
