"""Shared fixtures: deterministic key populations and pre-built structures."""

from __future__ import annotations

import copy
import hashlib
import re

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core import SetSepParams, build
from repro.core import separator as separator_registry
from repro.epc.dpe import DataPlaneEngine
from repro.runtime.controller import RuntimeController
from repro.runtime.daemon import NodeDaemon
from repro.runtime.launcher import report_json


def unique_keys(count: int, seed: int = 1, low: int = 1, high: int = 2**62) -> np.ndarray:
    """``count`` distinct uint64 keys, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(low, high, size=count * 2, dtype=np.uint64))
    if len(keys) < count:
        raise RuntimeError("not enough unique keys generated")
    return keys[:count]


def deliver(fabric, src: int, dst: int, size: int = 64):
    """One transit as a ``deliver_batch`` of one: its latency, or
    ``None`` when the fabric lost it."""
    latencies, lost = fabric.deliver_batch([src], [dst], size)
    return None if lost[0] else float(latencies[0])


def row_selections(n: int):
    """Strategy: a slice, a permutation or any (possibly empty, possibly
    repeating) index array over ``n`` rows."""
    indices = [st.permutations(range(n))]
    if n:
        indices.append(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return st.one_of(
        st.slices(n),
        *(s.map(lambda rows: np.array(rows, dtype=np.int64)) for s in indices),
    )


def brute_force_contents(model, separator, group):
    """A group's (keys, nodes) by enumerating every record: ascending
    bucket, then the order a plain dict keeps (overwrite in place,
    remove-then-insert at the end)."""
    if not model:
        return [], []
    keys = np.fromiter(model, dtype=np.uint64, count=len(model))
    member = separator.groups_of(keys) == group
    buckets = separator.buckets_of(keys)
    order = np.argsort(buckets[member], kind="stable")
    members = keys[member][order].tolist()
    return members, [model[k] for k in members]


def wire_up(gateway):
    """Daemons bootstrapped from ``gateway`` behind a controller, with no
    sockets: the controller's requests are direct ``_dispatch`` calls,
    and a daemon's ``_peer_post`` dispatches at once and hands back the
    reply as its ``collect()``."""
    count = gateway.num_nodes
    daemons = [NodeDaemon() for _ in range(count)]

    def dispatch(node_id, msg_type, payload=b""):
        return daemons[node_id]._dispatch(msg_type, payload)

    def post(node_id, msg_type, payload=b""):
        reply = dispatch(node_id, msg_type, payload)
        return lambda: reply

    controller = RuntimeController([("in-process", i) for i in range(count)])
    controller._request = dispatch
    for daemon in daemons:
        daemon._peer_post = post
    controller.bootstrap_from_gateway(gateway)
    return controller, daemons


#: Golden report digests were captured at the parent of the PR that
#: introduced ``repro.runtime.session`` — on the default backend.
GOLDEN_BACKEND = separator_registry.default_backend() == "setsep"
needs_setsep = pytest.mark.skipif(
    not GOLDEN_BACKEND,
    reason="golden digests are pinned for the setsep backend",
)

_SEGMENT_NAME = re.compile(r"repro-gpt-[0-9a-f]+-[0-9a-zA-Z_-]+")


def report_digest(report) -> str:
    """SHA-256 of a runtime report's canonical JSON, shm segment names
    — which embed a pid — masked."""
    text = _SEGMENT_NAME.sub("repro-gpt-PID-N", report_json(report))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def assert_each_breaker_fails_only_its_gate(report, gates_of, breakers):
    """``report["gates"]`` is ``gates_of(report)``, all passing, and each
    breaker — ``gate -> (path into the report, bad value)`` — fails
    exactly its own gate."""
    assert report["gates"] == gates_of(report)
    assert set(report["gates"]) == set(breakers)
    assert all(report["gates"].values())
    for gate, (path, bad) in breakers.items():
        broken = copy.deepcopy(report)
        section = broken
        for name in path[:-1]:
            section = section[name]
        section[path[-1]] = bad
        gates = gates_of(broken)
        assert [g for g, passed in gates.items() if not passed] == [gate]


@pytest.fixture(scope="session")
def small_keys() -> np.ndarray:
    """2 000 distinct keys (session-scoped; treat as read-only)."""
    return unique_keys(2_000)


@pytest.fixture(scope="session")
def small_values(small_keys) -> np.ndarray:
    """2-bit values matching ``small_keys``."""
    rng = np.random.default_rng(2)
    return rng.integers(0, 4, size=len(small_keys), dtype=np.uint32)


@pytest.fixture(scope="session")
def built_setsep(small_keys, small_values):
    """A SetSep over the small population (session-scoped, read-mostly)."""
    params = SetSepParams(value_bits=2)
    setsep, stats = build(small_keys, small_values, params)
    return setsep, stats


@pytest.fixture()
def closed_cdrs(monkeypatch):
    """``(engine, CDR)`` for each ``DataPlaneEngine.close_bearer`` call
    during the test, in call order.  An engine keeps no CDR: its caller
    takes it from the return, and so does this fixture."""
    closed = []
    close = DataPlaneEngine.close_bearer

    def close_and_keep(engine, teid, now=0.0):
        record = close(engine, teid, now)
        closed.append((engine, record))
        return record

    monkeypatch.setattr(DataPlaneEngine, "close_bearer", close_and_keep)
    return closed


@pytest.fixture()
def rng() -> np.random.Generator:
    """Per-test deterministic generator."""
    return np.random.default_rng(0xDECAF)
