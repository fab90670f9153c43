"""Plain-dict reference the harness keeps beside the system under test.

The oracle knows, per flow key, the bearer's TEID, base-station address and
handling node, learnt from what the control-plane calls returned.  After
every timed call — never inside one — it checks each frame's verdict, reads
the TEID out of the GTP-U header, compares a seeded 1-in-64 sample byte for
byte with the scalar codec, and counts what it attempted and what failed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from repro.epc.fastpath import OUTER_SIZE
from repro.epc.packets import EthernetHeader, Ipv4Header
from repro.epc.tunnels import GtpTunnelEndpoint
from repro.runtime.protocol import (
    STATUS_DELIVERED,
    STATUS_MALFORMED,
    STATUS_UNKNOWN,
)

from .gen import ACL, MALFORMED, Frames

#: One frame in this many is compared byte for byte with the scalar codec.
SAMPLE_ONE_IN = 64

#: Offset of the TEID in an outer IPv4 (20) + UDP (8) + GTP-U packet.
_TEID_AT = 20 + 8 + 4


class Bearer(NamedTuple):
    teid: int
    bs_ip: int
    node: int


class Oracle:
    """Reference state, verdict checks and failure accounting."""

    def __init__(self, gateway_ip: int, sample_seed: int) -> None:
        self.gateway_ip = gateway_ip
        self.live: Dict[int, Bearer] = {}
        self._teids: set = set()
        self._sample_rng = np.random.default_rng(sample_seed)
        self.frames_attempted = 0
        self.frames_failed = 0
        self.updates_attempted = 0
        self.updates_failed = 0
        #: Set when an update raised or the replicas diverged: every
        #: update of the run then counts as failed.
        self.updates_poisoned = False
        #: What the generated traffic should have met (exact).
        self.expected = {"delivered": 0, "unknown": 0, "acl": 0,
                         "malformed": 0}
        self.remote_frames = 0
        self.sampled = 0
        self.complaints: List[str] = []

    # -- control plane --------------------------------------------------

    def connected(self, key: int, teid: int, bs_ip: int, node: int) -> None:
        self.updates_attempted += 1
        if key in self.live or teid in self._teids:
            self._update_failed(f"connect reused key {key} or TEID {teid}")
        self.live[key] = Bearer(teid, bs_ip, node)
        self._teids.add(teid)

    def disconnected(self, key: int, existed: bool) -> None:
        self.updates_attempted += 1
        bearer = self.live.pop(key, None)
        if bearer is None or not existed:
            self._update_failed(f"disconnect of key {key} found no bearer")
        if bearer is not None:
            self._teids.discard(bearer.teid)

    def rehomed(self, key: int, teid: int, node: int) -> None:
        self.updates_attempted += 1
        bearer = self.live.get(key)
        if bearer is None or bearer.teid != teid:
            self._update_failed(f"rehome of key {key} changed its TEID")
            return
        self.live[key] = bearer._replace(node=node)

    def update_raised(self, what: str) -> None:
        self.updates_poisoned = True
        self._complain(f"update raised: {what}")

    def check_replicas(self, fingerprints: Sequence[int]) -> None:
        """Every GPT replica must carry the same fingerprint."""
        if len(set(fingerprints)) != 1:
            self.updates_poisoned = True
            self._complain(f"replicas diverged: {list(fingerprints)}")

    def check_counters(self, observed: Dict[str, int]) -> None:
        """The program's own drop counters must equal the generated mix."""
        for name, want in self.expected.items():
            if observed[name] != want:
                self._frames_failed(
                    abs(observed[name] - want),
                    f"counter {name}={observed[name]}, generated {want}",
                )

    def _update_failed(self, what: str) -> None:
        self.updates_failed += 1
        self._complain(what)

    # -- data plane -----------------------------------------------------

    def reference_packet(self, frame: bytes, bearer: Bearer) -> bytes:
        """What the scalar codec emits for ``frame`` on ``bearer``."""
        l3 = frame[EthernetHeader.SIZE:]
        header, _ = Ipv4Header.parse(l3)
        inner = header.decrement_ttl().pack() + l3[Ipv4Header.SIZE:]
        return GtpTunnelEndpoint(
            local_ip=self.gateway_ip, peer_ip=bearer.bs_ip
        ).encapsulate(bearer.teid, inner)

    def _sample(self, count: int) -> set:
        hits = self._sample_rng.random(count) < 1.0 / SAMPLE_ONE_IN
        return set(np.flatnonzero(hits).tolist())

    def _delivered_ok(
        self, frame: bytes, bearer: Bearer, out, handler, sampled: bool
    ) -> bool:
        if out is None or handler != bearer.node:
            return False
        if int.from_bytes(out[_TEID_AT:_TEID_AT + 4], "big") != bearer.teid:
            return False
        if sampled:
            self.sampled += 1
            return out == self.reference_packet(frame, bearer)
        return True

    def check_gateway(self, results, batch: Frames) -> int:
        """Check one ``process_downstream_batch`` return value; returns
        the inner L3 bytes of correctly delivered frames."""
        goodput = 0
        failed = 0
        expected = self.expected
        live = self.live
        sample = self._sample(len(batch.frames))
        if len(results) != len(batch.frames):
            self.frames_attempted += len(batch.frames)
            self._frames_failed(len(batch.frames), "result count mismatch")
            return 0
        for i, ((route, out), frame, key, flag) in enumerate(
            zip(results, batch.frames, batch.keys, batch.flags)
        ):
            if flag == MALFORMED:
                expected["malformed"] += 1
                ok = out is None and route.reason == "malformed"
            elif flag == ACL:
                expected["acl"] += 1
                ok = out is None and route.reason == "acl"
            else:
                bearer = live.get(key)
                if bearer is None:
                    expected["unknown"] += 1
                    ok = out is None and route.reason == "unknown_key"
                else:
                    expected["delivered"] += 1
                    ok = (
                        route.reason == "handled"
                        and route.internal_hops <= 1
                        and self._delivered_ok(
                            frame, bearer, out, route.handled_by, i in sample
                        )
                    )
                    if ok:
                        goodput += len(out) - OUTER_SIZE
                        self.remote_frames += route.internal_hops
            if not ok:
                failed += 1
        self.frames_attempted += len(batch.frames)
        if failed:
            self._frames_failed(failed, "gateway verdict mismatch")
        return goodput

    def check_runtime(self, outcomes, batch: Frames) -> int:
        """Check one ``route_frames`` return value (same contract)."""
        goodput = 0
        failed = 0
        expected = self.expected
        live = self.live
        sample = self._sample(len(batch.frames))
        if len(outcomes) != len(batch.frames):
            self.frames_attempted += len(batch.frames)
            self._frames_failed(len(batch.frames), "outcome count mismatch")
            return 0
        for i, (outcome, frame, key, flag) in enumerate(
            zip(outcomes, batch.frames, batch.keys, batch.flags)
        ):
            if flag == MALFORMED:
                expected["malformed"] += 1
                ok = outcome.status == STATUS_MALFORMED
            else:
                bearer = live.get(key)
                if bearer is None:
                    expected["unknown"] += 1
                    ok = outcome.status == STATUS_UNKNOWN
                else:
                    expected["delivered"] += 1
                    ok = (
                        outcome.status == STATUS_DELIVERED
                        and outcome.teid == bearer.teid
                        and self._delivered_ok(
                            frame, bearer, outcome.out, outcome.handler,
                            i in sample,
                        )
                    )
                    if ok:
                        goodput += len(outcome.out) - OUTER_SIZE
            if not ok:
                failed += 1
        self.frames_attempted += len(batch.frames)
        if failed:
            self._frames_failed(failed, "runtime outcome mismatch")
        return goodput

    def _frames_failed(self, count: int, what: str) -> None:
        self.frames_failed += count
        self._complain(f"{count} frames: {what}")

    def _complain(self, what: str) -> None:
        if len(self.complaints) < 8:
            self.complaints.append(what)

    # -- totals ---------------------------------------------------------

    @property
    def attempted(self) -> int:
        return self.frames_attempted + self.updates_attempted

    @property
    def failed(self) -> int:
        updates = (
            self.updates_attempted if self.updates_poisoned
            else self.updates_failed
        )
        return self.frames_failed + updates
