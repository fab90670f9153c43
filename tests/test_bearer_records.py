"""The per-bearer records are slotted dataclasses (repro.epc).

``FlowTuple``, ``FlowRecord``, ``FlowContext`` and ``ChargingRecord``
keep their fields in slots, with no per-instance
``__dict__``, on Python 3.10 and later (``repro.utils.DATACLASS_SLOTS``).
Everything else a dataclass gives them must be what the same fields give
an unslotted dataclass: equality, hashing, repr, ``dataclasses.replace``,
``copy.deepcopy`` and pickling.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.epc.controller import FlowRecord
from repro.epc.dpe import ChargingRecord, DataPlaneEngine, FlowContext
from repro.epc.packets import FlowTuple, PROTO_UDP
from repro.utils import DATACLASS_SLOTS


def unslotted_twin(cls):
    """An unslotted dataclass with ``cls``'s name, fields and flags."""
    params = cls.__dataclass_params__
    fields = [
        (
            f.name,
            f.type,
            dataclasses.field(
                default=f.default,
                default_factory=f.default_factory,
                repr=f.repr,
                hash=f.hash,
                compare=f.compare,
            ),
        )
        for f in dataclasses.fields(cls)
    ]
    twin = dataclasses.make_dataclass(
        cls.__name__, fields, frozen=params.frozen, eq=params.eq
    )
    assert "__slots__" not in vars(twin)
    return twin


FLOW = FlowTuple(0xCB007101, 0x0A000001, PROTO_UDP, 5000, 6000)

#: One populated instance of each record, and a field to replace on it.
SAMPLES = [
    (FLOW, "sport", 5001),
    (FlowRecord(FLOW, FLOW.key(), 7, 2, 0xAC100101, 3), "handling_node", 1),
    (
        FlowContext(
            teid=7, uplink_bytes=10, downlink_bytes=2_000, uplink_packets=1,
            downlink_packets=4, opened_at=0.5,
        ),
        "downlink_bytes",
        2_100,
    ),
    (ChargingRecord(7, 10, 2_000, 1, 4, 0.5, 9.0), "closed_at", 9.5),
]
IDS = [type(sample).__name__ for sample, _, _ in SAMPLES]


def as_twin(record):
    """The same field values in the record's unslotted twin (nested
    records converted too)."""
    twin = unslotted_twin(type(record))
    return twin(**{
        f.name: (
            as_twin(value)
            if dataclasses.is_dataclass(value := getattr(record, f.name))
            else value
        )
        for f in dataclasses.fields(record)
    })


@pytest.mark.parametrize("record, name, value", SAMPLES, ids=IDS)
class TestSlottedRecords:
    @pytest.mark.skipif(not DATACLASS_SLOTS, reason="no slots=True before 3.10")
    def test_slotted_without_dict(self, record, name, value):
        assert "__slots__" in vars(type(record))
        assert not hasattr(record, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            record.not_a_field = 1

    def test_repr_equality_and_hash_as_unslotted(self, record, name, value):
        twin = as_twin(record)
        assert repr(record) == repr(twin)
        assert (type(record).__hash__ is None) == (type(twin).__hash__ is None)
        if type(record).__hash__ is not None:
            assert hash(record) == hash(twin)
        assert dataclasses.asdict(record) == dataclasses.asdict(twin)

    def test_replace_deepcopy_and_pickle(self, record, name, value):
        moved = dataclasses.replace(record, **{name: value})
        assert type(moved) is type(record)
        assert getattr(moved, name) == value and moved != record
        assert dataclasses.replace(moved, **{name: getattr(record, name)}) == (
            record
        )
        for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record and clone is not record
            assert repr(clone) == repr(record)


def test_a_context_and_its_deepcopy_are_snapshots():
    """A ``FlowContext`` is a copy of the engine's row: neither it nor
    its deep copy moves when the bearer charges more."""
    dpe = DataPlaneEngine()
    dpe.open_bearer(7, now=0.5)
    dpe.process(7, 500, downlink=True)
    snapshot = dpe.context(7)
    clone = copy.deepcopy(snapshot)
    assert clone == snapshot and clone is not snapshot
    dpe.process(7, 300, downlink=True)
    assert (snapshot.downlink_bytes, clone.downlink_bytes) == (500, 500)
    assert dpe.context(7).downlink_bytes == 800
    clone.downlink_bytes = 1
    assert dpe.context(7).downlink_bytes == 800


def test_frozen_records_stay_frozen():
    record = SAMPLES[1][0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.teid = 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        FLOW.sport = 1
    assert {FLOW: 1}[FlowTuple(*dataclasses.astuple(FLOW))] == 1
