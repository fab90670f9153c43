"""A closed set of backend names with a process-wide default.

The separator registry (:mod:`repro.core.separator`) and the fabric
registry (:mod:`repro.fabric`) select their backend the same way: an
explicit name wins, else a process-wide default, itself set by a CLI flag
or read once from an environment variable.  Each instantiates this class
and exports its bound methods under the module-level names callers use.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple


class BackendRegistry:
    """Backend names of one ``kind``; the first is the built-in default."""

    def __init__(self, kind: str, backends: Tuple[str, ...], env: str) -> None:
        self.kind = kind
        self.backends = backends
        self.env = env
        #: The process-wide default; ``None`` until first asked for.
        self.chosen: Optional[str] = None

    def validate(self, backend: str) -> str:
        """``backend`` itself, or ``ValueError`` for an unregistered name."""
        if backend not in self.backends:
            raise ValueError(
                f"unknown {self.kind} backend {backend!r}; "
                f"expected one of {', '.join(self.backends)}"
            )
        return backend

    def default_backend(self) -> str:
        """The process-wide default backend (env override, else the first)."""
        if self.chosen is None:
            builtin = self.backends[0]
            self.chosen = self.validate(
                os.environ.get(self.env, builtin).strip().lower() or builtin
            )
        return self.chosen

    def set_default_backend(self, backend: str) -> None:
        """Select the backend used when callers don't pass one explicitly."""
        self.chosen = self.validate(backend)

    def backend_of(self, instance) -> str:
        """Registry name of an instance's backend (its ``backend``)."""
        return getattr(instance, "backend", self.backends[0])

    def resolve_backend(self, backend: Optional[str] = None) -> str:
        """An explicit backend name, or the process default when ``None``."""
        if backend is None:
            return self.default_backend()
        return self.validate(backend)
