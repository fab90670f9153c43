"""The driving application: an LTE-to-Internet gateway (paper §2, §6.2).

A functional software EPC data plane: GTP-U tunnelling, TEID allocation, a
controller that pins flows to handling nodes, the Packet Forwarding Engine
that ScaleBricks replaces, and the traffic harness that stands in for the
Spirent test platform.

Modules (import each by its path; the package re-exports nothing, so a
node daemon that needs only the frame codec does not load the gateway):

* :mod:`~repro.epc.packets` — byte-accurate Ethernet/IPv4/UDP/GTP-U codecs
  and :class:`~repro.epc.packets.FlowTuple`;
* :mod:`~repro.epc.fastpath` — the batched frame codec both data paths
  share;
* :mod:`~repro.epc.tunnels` — :class:`~repro.epc.tunnels.TeidAllocator`
  and :class:`~repro.epc.tunnels.GtpTunnelEndpoint`;
* :mod:`~repro.epc.teid_index` — :class:`~repro.epc.teid_index.TeidIndex`,
  TEID -> row for the DPE's and the ledger's columns;
* :mod:`~repro.epc.controller` — :class:`~repro.epc.controller.EpcController`,
  flow records and assignment policies;
* :mod:`~repro.epc.dpe` — the Data Plane Engine, charging records and
  :class:`~repro.epc.dpe.ChargingLedger`;
* :mod:`~repro.epc.gateway` — :class:`~repro.epc.gateway.EpcGateway` (PFE +
  DPE over a cluster);
* :mod:`~repro.epc.traffic` — :class:`~repro.epc.traffic.FlowGenerator`
  and the functional trial harness;
* :mod:`~repro.epc.workload` — stochastic bearer workloads.

The RFC 2544-style latency model is :class:`repro.model.perf.Rfc2544Bench`.
"""
