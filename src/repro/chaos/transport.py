"""Transport-layer fault injection for the multi-process runtime.

The in-process chaos harness intercepts delta ships through
``UpdateEngine.delta_interceptor``; the socket runtime needs the same
verdicts at its transport boundary.  :class:`TransportFaultBudgets` is a
deterministic, serialisable plan: per message kind, *budgets* of how many
of the next sends to drop, delay or duplicate.  The controller arms a
daemon's budgets over the wire (``MSG_FAULT``) and the daemon consults
them each time it is about to ship a delta, FIB batch or forwarded
frame — no randomness, no wall clock, so fault runs replay exactly.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.fabric import DELAY, DELIVER, DROP, DUPLICATE

_VERDICTS = (DROP, DELAY, DUPLICATE)


class TransportFaultBudgets:
    """Countdown budgets of transport faults, by message kind.

    A budget of ``{"delta": 3}`` under ``drop`` makes the next three
    delta ships vanish; once every budget hits zero the transport is
    transparent again.  Consultation order is drop, then delay, then
    duplicate — a send matching several budgets consumes only the first.
    """

    def __init__(self) -> None:
        self.drop: Dict[str, int] = {}
        self.delay: Dict[str, int] = {}
        self.duplicate: Dict[str, int] = {}
        #: Faults actually applied so far, ``{verdict: {kind: count}}``.
        self.applied: Dict[str, Dict[str, int]] = {
            DROP: {}, DELAY: {}, DUPLICATE: {},
        }

    def _table(self, verdict: str) -> Dict[str, int]:
        if verdict == DROP:
            return self.drop
        if verdict == DELAY:
            return self.delay
        if verdict == DUPLICATE:
            return self.duplicate
        raise ValueError(f"unknown verdict {verdict!r}")

    def arm(self, verdict: str, kind: str, count: int) -> None:
        """Add ``count`` pending faults of ``verdict`` for ``kind`` sends."""
        if count < 0:
            raise ValueError("fault budget must be non-negative")
        table = self._table(verdict)
        table[kind] = table.get(kind, 0) + count

    def verdict(self, kind: str) -> str:
        """Consume one budget for a ``kind`` send; default DELIVER."""
        for name in _VERDICTS:
            table = self._table(name)
            remaining = table.get(kind, 0)
            if remaining > 0:
                table[kind] = remaining - 1
                counts = self.applied[name]
                counts[kind] = counts.get(kind, 0) + 1
                return name
        return DELIVER

    def pending(self) -> int:
        """Faults still armed across every verdict and kind."""
        return sum(
            count
            for table in (self.drop, self.delay, self.duplicate)
            for count in table.values()
        )

    def to_dict(self) -> Dict[str, Dict[str, int]]:
        """JSON-ready form (the ``MSG_FAULT`` payload)."""
        return {name: dict(self._table(name)) for name in _VERDICTS}

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Mapping[str, int]]
    ) -> "TransportFaultBudgets":
        """Parse budgets shipped over the wire."""
        budgets = cls()
        for verdict in _VERDICTS:
            for kind, count in dict(data.get(verdict, {})).items():
                budgets.arm(verdict, str(kind), int(count))
        return budgets

    def __repr__(self) -> str:
        return (
            f"TransportFaultBudgets(drop={self.drop}, delay={self.delay}, "
            f"duplicate={self.duplicate})"
        )
