"""Built-in rule modules; importing this package registers every rule."""

from __future__ import annotations

from repro.lint.rules import (
    atomicity,
    determinism,
    docs,
    exceptions,
    gc_policy,
    shared_state,
    unitflow,
    units,
)

__all__ = [
    "atomicity",
    "determinism",
    "docs",
    "exceptions",
    "gc_policy",
    "shared_state",
    "unitflow",
    "units",
]
