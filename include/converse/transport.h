// Property-based fuzz harness for the pluggable transport layer
// (DESIGN.md "Transport interface", tools/simfuzz --transport).
//
// A case runs a *loopback* multi-node machine under the deterministic
// simulator: one process hosts every node (MachineConfig::mynode == -1),
// so inter-node traffic crosses the virtual wire — records are encoded,
// header-validated and counted exactly like the socket backend would,
// and an optional deterministic disconnect injector swallows records.
// The workload counts logical sends and deliveries itself, giving the
// conservation oracle
//
//     delivered == sent - wire_dropped
//
// where wire_dropped is the transport's own logical-weight accounting of
// injected losses (a dropped aggregation frame counts its packed
// messages; a dropped node-cast record counts the receiving node's PEs).
// Immediate messages ride the reliable control plane and must conserve
// exactly.  The planted fault (`plant_lost`) drops one record *without*
// counting it — a correct oracle must fail the case, which is the
// harness's self-test.
#pragma once

#include <cstdint>
#include <string>

#include "converse/sim.h"

namespace converse::transport {

/// Parameters of one transport fuzz case (a pure function of this struct;
/// see src/core/transport/transport_fuzz.cpp).
struct TransportFuzzParams {
  std::uint64_t seed = 1;
  int npes = 6;
  int nnodes = 3;   // npes == nnodes exercises the socket (1 PE/node) shape
  int actions = 32; // root actions injected per PE
  /// Per-wire-record disconnect probability; a disconnect swallows
  /// `disconnect_lost` consecutive records before the link reconnects.
  double disconnect_rate = 0.0;
  int disconnect_lost = 2;
  bool aggregate = false;  // frames as the wire unit
  /// Plant a silent single-record loss (not accounted in wire_dropped);
  /// the conservation oracle is expected to FAIL the case.
  bool plant_lost = false;

  bool operator==(const TransportFuzzParams&) const = default;
};

struct TransportFuzzResult {
  bool ok = false;
  std::string failure;  // first violated invariant (empty when ok)
  SimReport report;
  // Transport counters at quiescence (PE 0's CmiGetStats snapshot).
  std::uint64_t wire_frames_sent = 0;
  std::uint64_t wire_dropped = 0;
  std::uint64_t wire_reconnects = 0;
};

/// Run one deterministic case; same params => same result and the same
/// SimReport::trace_hash (the wire's send/drop decisions are folded into
/// the event-trace hash).
TransportFuzzResult RunTransportFuzzCase(const TransportFuzzParams& params);

/// The simfuzz --transport workload: its flag table, shrink rules (fewer
/// actions, PEs and nodes, no aggregation, no injected disconnects) and
/// runner; see converse/fuzz.h.
const fuzz::Workload<TransportFuzzParams, TransportFuzzResult>&
TransportFuzzWorkload();

}  // namespace converse::transport
