"""Separator backend selection: SetSep vs Othello behind one protocol.

The paper's GPT is "any compact key -> node separator" (§3.2); this repo
implements two — SetSep (the paper's choice) and Othello hashing
(arXiv:1608.05699).  This module names the implicit surface the rest of
the system relies on (:class:`Separator`), registers the concrete
backends, and holds the process-wide default that the CLI's ``--backend``
flag and the ``REPRO_GPT_BACKEND`` environment variable select.

A process-wide default (rather than threading a parameter through every
constructor) is what lets the gateway, launcher, membership resize, and
chaos harness build clusters on either backend without signature changes;
explicit ``backend=`` arguments on ``GlobalPartitionTable.build`` and
``Cluster.build`` override it per call.  Runtime daemons never consult the
default: they infer the backend from the snapshot magic and from the
update records themselves, both of which are self-describing.

Imports of :mod:`repro.othello` are lazy so ``repro.core`` stays free of
import cycles and SetSep-only workloads never pay for the extra module.
"""

from __future__ import annotations

import functools
from typing import (
    TYPE_CHECKING,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.core.builder import ConstructionStats
from repro.core.hashfamily import Key
from repro.core.params import SetSepParams
from repro.utils.backends import BackendRegistry

if TYPE_CHECKING:
    from repro.othello.params import OthelloParams

#: Names of the available separator backends.
BACKENDS = ("setsep", "othello")

#: Environment variable consulted for the initial default backend.
BACKEND_ENV = "REPRO_GPT_BACKEND"

#: Union of the two parameter dataclasses.
SeparatorParams = Union[SetSepParams, "OthelloParams"]


@runtime_checkable
class Separator(Protocol):
    """The surface a GPT backend must provide.

    Extracted from the implicit SetSep contract: compact key -> value
    lookup with one-sided error, block/group bookkeeping matching the
    two-level RIB partitioning, the §4.5 owner-recomputes/replicas-apply
    update cycle with a self-framing wire record, size accounting, and
    replication/serialisation support.  ``repro.core.serialize`` handles
    the snapshot round-trip for every registered backend, dispatching on
    the instance type when dumping and the snapshot magic when loading.
    """

    #: Registry name of the backend ("setsep", "othello", ...).
    backend: str

    params: SeparatorParams
    num_blocks: int

    def lookup(self, key: Key) -> int: ...

    def lookup_batch(
        self, keys: Union[Sequence[Key], np.ndarray]
    ) -> np.ndarray: ...

    def groups_of(self, keys: np.ndarray) -> np.ndarray: ...

    def group_of(self, key: Key) -> int: ...

    def group_of_bucket(self, bucket: int) -> int: ...

    def buckets_of_group(self, group_id: int) -> Sequence[int]: ...

    def block_of(self, key: Key) -> int: ...

    def rebuild_group(
        self,
        group_id: int,
        keys: Union[Sequence[Key], np.ndarray],
        values: Sequence[int],
        removed_keys: Iterable[Key] = (),
    ): ...

    def rebuild_groups(self, jobs: Sequence[tuple]) -> list: ...

    def apply_delta(self, delta) -> None: ...

    def size_bits(self) -> int: ...

    def size_bytes(self) -> int: ...

    def bits_per_key(self, num_keys: int) -> float: ...

    def copy(self) -> "Separator": ...

    def bind_registry(self, registry) -> None: ...


_registry = BackendRegistry("separator", BACKENDS, BACKEND_ENV)
_validate = _registry.validate
default_backend = _registry.default_backend
set_default_backend = _registry.set_default_backend
resolve_backend = _registry.resolve_backend
backend_of = _registry.backend_of


def params_for_cluster(
    num_nodes: int, backend: Optional[str] = None, **overrides
) -> SeparatorParams:
    """Backend-appropriate parameters for a GPT over ``num_nodes`` nodes."""
    backend = resolve_backend(backend)
    if backend == "othello":
        from repro.othello.params import OthelloParams

        return OthelloParams.for_cluster(num_nodes, **overrides)
    return SetSepParams.for_cluster(num_nodes, **overrides)


def coerce_params(
    params: Optional[SeparatorParams], backend: Optional[str] = None
) -> Optional[SeparatorParams]:
    """Convert parameters to the backend's dataclass, preserving width.

    Lets callers that default to ``SetSepParams.for_cluster`` (the
    historical behaviour) run under an Othello default: only
    ``value_bits`` — the one field with cross-backend meaning — survives
    the conversion.
    """
    if params is None:
        return None
    backend = resolve_backend(backend)
    from repro.othello.params import OthelloParams

    if backend == "othello" and isinstance(params, SetSepParams):
        return OthelloParams(value_bits=params.value_bits)
    if backend == "setsep" and isinstance(params, OthelloParams):
        return SetSepParams(value_bits=params.value_bits)
    return params


def build(
    keys: Union[Sequence[Key], np.ndarray],
    values: Sequence[int],
    params: Optional[SeparatorParams] = None,
    backend: Optional[str] = None,
    workers: int = 1,
    num_blocks: Optional[int] = None,
) -> Tuple[Separator, ConstructionStats]:
    """Build a separator on the chosen backend (front door for both)."""
    backend = resolve_backend(backend)
    params = coerce_params(params, backend)
    if backend == "othello":
        from repro.othello import builder as othello_builder

        return othello_builder.build(
            keys, values, params, workers=workers, num_blocks=num_blocks
        )
    from repro.core import builder as setsep_builder

    return setsep_builder.build(
        keys, values, params, workers=workers, num_blocks=num_blocks
    )


# Asked once per peer per update: remember the class, skip the imports.
@functools.lru_cache(maxsize=None)
def update_record_type(backend: str):
    """The wire update-record class for a backend (GroupDelta's peers)."""
    if _validate(backend) == "othello":
        from repro.othello.update import OthelloUpdate

        return OthelloUpdate
    from repro.core.delta import GroupDelta

    return GroupDelta


def parse_update_stream(data: bytes, backend: str) -> list:
    """Frame every update record out of a concatenated wire payload.

    Returns the ``(record, params)`` pairs, or raises before returning
    any; both record types are self-delimiting, so one loop serves the
    daemons' batched delta broadcasts for either backend.
    """
    record_type = update_record_type(backend)
    pairs = []
    offset, end = 0, len(data)
    while offset < end:
        record, params, offset = record_type.from_wire_bytes(data, offset)
        pairs.append((record, params))
    return pairs
