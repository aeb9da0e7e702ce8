// Network latency models for the machines of the paper's evaluation
// (Figures 4-8).
//
// The paper measures Converse round-trip message time on five 1996
// platforms.  That hardware is unavailable, so per DESIGN.md §2 we model
// each platform's native one-way message time as
//
//   t(n) = alpha + n * per_byte + ceil(n / packet) * per_packet
//          + (n > copy_threshold ? n * copy_per_byte : 0)
//
// where the last term reproduces the T3D's packetization-copy jump at 16 KB
// that the paper calls out ("the jump at 16K bytes is due to copying during
// packetization").  The models are used two ways:
//  * analytically, by the figure benches (native curve = t(n), Converse
//    curve = t(n) + measured software overhead of this implementation);
//  * as the delivery latency of a machine (MachineConfig::model), which
//    then runs on the deterministic sim: a message becomes visible to its
//    receiver exactly t(n) of virtual time after its send.  Integration
//    tests use this to exercise latency-dependent code paths.
//
// Parameter values are calibrated to the era's published numbers (FM on
// Myrinet: ~25 us for <=128 B packets, Converse ~31 us; T3D: a few us short
// -message latency, >120 MB/s; ATM TCP/IP stacks: hundreds of us; SP-1 MPL:
// ~60 us; Paragon/SUNMOS: ~25 us, ~170 MB/s).  Absolute fidelity is not the
// goal; curve *shape* is (see EXPERIMENTS.md).
#pragma once

#include <cstddef>

namespace converse {

struct NetModel {
  const char* name = "zero-latency";
  double alpha_us = 0.0;          // fixed per-message one-way cost
  double per_byte_us = 0.0;       // inverse bandwidth
  std::size_t packet_bytes = 0;   // packetization unit (0 = none)
  double per_packet_us = 0.0;     // per-packet overhead
  std::size_t copy_threshold_bytes = 0;  // extra-copy threshold (0 = never)
  double copy_per_byte_us = 0.0;  // cost of that extra copy

  /// Modeled one-way time for a message with `payload_bytes` of user data.
  double OnewayUs(std::size_t payload_bytes) const;
};

namespace netmodels {

/// HP workstations on an ATM switch (Figure 4).
NetModel AtmHp();
/// Cray T3D with the FM package (Figure 5) — shows the 16 KB copy jump.
NetModel CrayT3D();
/// Sun workstations on Myrinet with Illinois Fast Messages (Figure 6).
NetModel MyrinetFm();
/// IBM SP-1 (Figure 7; the paper's figure caption says SP1).
NetModel IbmSp1();
/// Intel Paragon running SUNMOS (Figure 8).
NetModel ParagonSunmos();

}  // namespace netmodels

}  // namespace converse
