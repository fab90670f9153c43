"""repro.runtime — the multi-process cluster runtime.

Everything else in this repository simulates the ScaleBricks cluster
inside one Python process.  This package runs it for real: a controller
process drives N node-daemon processes over length-prefixed framed
messages on local TCP sockets — GPT bootstrap as an SSEP snapshot on the
wire, the §4.5 owner/delta update protocol between live daemons, batched
raw-frame routing with exactly-once forwarding, heartbeat liveness and
§7 failure repair, and graceful drain/join with make-before-break
snapshot swaps.

Modules (import each by its path; the package re-exports nothing, so a
node daemon does not load the controller, the session or the launcher):

* :mod:`~repro.runtime.framing` — length-prefixed message framing;
* :mod:`~repro.runtime.transport` — the one serve loop, link pool and
  child-process group every runtime process runs on;
* :mod:`~repro.runtime.protocol` — message catalogue and payload codecs;
* :mod:`~repro.runtime.daemon` — the node daemon (replica + FIB slice +
  RIB-owner role + data path);
* :mod:`~repro.runtime.controller` — bootstrap, updates, traffic
  injection, liveness, failure repair, drain/join;
* :mod:`~repro.runtime.liveness` — the heartbeat state machine;
* :mod:`~repro.runtime.shadow` — the in-process shadow every driver
  mirrors its verbs into, and its charging / replica audit;
* :mod:`~repro.runtime.session` — the differential session (daemons,
  shadow and controller under one lifecycle), the drill verbs every
  driver runs as a phase list, and the gates their reports share;
* :mod:`~repro.runtime.launcher` — process spawning and the seeded
  differential workload behind ``repro runtime-demo``;
* :mod:`~repro.runtime.replication` — the replicated-log state machine
  with lease-based leader election (injected clocks, seeded timeouts)
  plus the in-memory :class:`~repro.runtime.replication.ReplicaGroup`
  simulator;
* :mod:`~repro.runtime.replicated` — controller replicas as real
  processes and the leader-SIGKILL failover drill behind
  ``repro runtime-demo --replicas``.

``docs/runtime.md`` documents the wire protocol byte by byte.
"""
