// The in-process Converse machine (paper §3.1.3 MMI, substituted per
// DESIGN.md §2): each PE is an OS thread with a private in-queue; the only
// communication between PEs is through messages.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>

#include "converse/netmodel.h"

namespace converse {

struct SimConfig;  // converse/sim.h

/// Which communication substrate carries inter-PE messages (DESIGN.md
/// "Transport interface").  All backends sit behind the same machine-layer
/// hook, so aggregation frames, spanning-tree broadcasts, NetModel and the
/// deterministic sim work identically on each.
enum class CmiTransport {
  /// Every PE is a thread of this process; delivery is the lock-free
  /// in-process rings.  The only choice that allows nnodes == 1.
  kInproc,

  /// One OS process per PE ("node" == PE), connected by Unix-domain or TCP
  /// sockets with batched writev frames.  Requires nnodes == npes.
  kSocket,

  /// Two-level SMP-node mode: PEs within a node are threads sharing the
  /// in-process rings; nodes talk over sockets with one comm drain per
  /// node.  nnodes in [1, npes].
  kSmpNode,
};

struct MachineConfig {
  /// Number of processing elements (threads). May exceed hardware cores;
  /// all blocking in the runtime is condvar-based, so oversubscription is
  /// safe (if slow).
  int npes = 2;

  /// Seed for the per-PE deterministic RNG streams (load balancer, tests).
  unsigned long long seed = 0x5eedULL;

  /// Optional network latency model; nullptr = zero-latency shared memory.
  /// When set, the machine runs on the deterministic sim (a default
  /// SimConfig when `sim` is null) and a message becomes visible to its
  /// receiver only after model.OnewayUs(payload) microseconds of virtual
  /// time.  Sends a PE makes to itself never cross the modeled network and
  /// pay no model latency (so a delayed self-send is a pure timer; see
  /// converse/cmi.h).  Like `sim`, not allowed across real processes.
  const NetModel* model = nullptr;

  /// Default stack size for thread objects created on this machine.
  std::size_t default_stack_bytes = 256 * 1024;

  /// Branching factor of the machine spanning tree (broadcast/reduce).
  int spantree_branching = 4;

  /// Microseconds an idle scheduler busy-polls the network before blocking
  /// on the condvar.  0 (default) blocks immediately — right for
  /// oversubscribed hosts; a few µs mimics the spin-waiting of dedicated
  /// 1990s nodes and shaves wakeup latency when each PE owns a core.
  /// The poll itself is lock-free (atomic ring/overflow probes).
  double idle_spin_us = 0.0;

  /// Capacity (slots) of each lock-free delivery lane; rounded up to a
  /// power of two, minimum 4.  Every (sender, receiver) pair that talks
  /// gets its own data lane, 8 bytes per slot, allocated on the pair's
  /// first send; each PE also has one immediate lane shared by all
  /// senders, 16 bytes per slot.  When a lane's ring fills, its sender
  /// spills into an unbounded mutex-guarded overflow list, so this is a
  /// throughput knob, never a correctness limit.  Tiny values (e.g. 4)
  /// are useful in tests to exercise the overflow path.
  int ring_capacity = 1024;

  /// Small-message aggregation (converse/stream.h): batch messages below
  /// agg_max_msg bytes into per-destination frames so one ring slot, one
  /// allocation and one consumer wakeup amortize over a whole burst.
  /// -1 (default) defers to the CONVERSE_AGG environment variable (unset or
  /// "0" = off, any other integer = on; malformed values are rejected with
  /// a "[Cmi]" diagnostic and treated as unset); 0 forces off; 1 forces on.
  /// Automatically off when a network latency model is attached (frames
  /// would distort per-message latency semantics).
  int aggregate_sends = -1;

  /// Largest message (header + payload) eligible for aggregation.
  std::uint32_t agg_max_msg = 512;

  /// A frame flushes once its packed entries reach this many bytes...
  std::uint32_t agg_frame_bytes = 3072;

  /// ...or this many messages, whichever comes first (frames also flush
  /// when the sender's scheduler goes idle and on explicit CmiFlush()).
  std::uint32_t agg_frame_msgs = 32;

  /// Adaptive solo-flush bypass: when consecutive frames to a destination
  /// flush with a single entry (request/response traffic that pays frame
  /// overhead for no batching), sends to it temporarily skip the
  /// aggregation layer, re-probing periodically.  Off restores exact
  /// every-send-frames behavior (some tests count frames precisely).
  bool agg_solo_bypass = true;

  /// Spanning-tree broadcasts whose total size (header + payload) is at
  /// least this many bytes share one refcounted payload block instead of
  /// copying once per destination: the block is allocated (and the user
  /// message copied) exactly once at the root, forwarded down the tree by
  /// pointer, and every PE dispatches a read-only view into it.
  /// -1 (default) defers to the CONVERSE_SBCAST environment variable
  /// (unset = 4096; "0" = off; a number = that threshold in bytes; a
  /// malformed value is rejected with a "[Cmi]" diagnostic and treated as
  /// unset); 0 forces off.  Like the tree itself, inactive under a latency
  /// model.
  std::int64_t bcast_share_min = -1;

  /// Communication substrate (see CmiTransport above).
  CmiTransport transport = CmiTransport::kInproc;

  /// Number of nodes the machine's PEs are split across (block
  /// distribution: node n owns a contiguous PE range).  Meaningful for
  /// kSmpNode; kSocket forces nnodes = npes; kInproc requires 1.
  int nnodes = 1;

  /// Which node THIS process hosts.  -1 (default) = loopback mode: this
  /// process hosts every node and inter-node traffic crosses a virtual
  /// wire in-memory (encode + validate + deliver) — this is how the
  /// deterministic sim drives the socket backends.  >= 0 = real
  /// multi-process mode: this process hosts exactly node `mynode` and
  /// inter-node traffic crosses real sockets (launch with
  /// tools/converserun, which sets the CONVERSE_NODE family of variables).
  int mynode = -1;

  /// Real mode rendezvous: directory where each node binds its Unix-domain
  /// listening socket ("node<i>.sock").  nullptr defers to CONVERSE_RDV.
  const char* rendezvous_dir = nullptr;

  /// Real mode alternative rendezvous: when > 0, nodes listen on TCP
  /// 127.0.0.1:(tcp_base_port + node) instead of Unix sockets.
  int tcp_base_port = 0;

  /// Real mode: abort the machine when a peer node stays unreachable
  /// (reconnect attempts keep failing) for this long.  0 defers to
  /// CONVERSE_WIRE_TIMEOUT_MS, default 10000.
  int wire_timeout_ms = 0;

  /// Loopback-mode fault injection (virtual wire only; real sockets never
  /// inject faults): probability per wire record of a simulated transient
  /// disconnect that loses the record (and counts the loss), plus how many
  /// consecutive records one disconnect swallows.  Used by
  /// `simfuzz --transport` conservation sweeps.
  double wire_disconnect_rate = 0.0;
  int wire_disconnect_lost = 1;
  unsigned long long wire_seed = 0x77695265ULL;  // 'wiRe'

  /// Planted-bug self-test: when > 0, the loopback wire silently drops the
  /// N-th eligible record *without* counting it, so conservation oracles
  /// must flag the run.  Proves the fuzz harness can see real losses.
  int wire_plant_lost = 0;

  /// Optional deterministic-simulation backend (converse/sim.h): PEs are
  /// serialized under a seeded scheduler and a virtual clock, with optional
  /// message-fault injection.  nullptr = normal threaded execution, unless
  /// `model` is set.  The machine copies the config; the pointee need not
  /// outlive this struct.
  const SimConfig* sim = nullptr;

  /// Streams used by CmiPrintf / CmiError / CmiScanf. Tests may redirect.
  std::FILE* out = nullptr;  // nullptr -> stdout
  std::FILE* err = nullptr;  // nullptr -> stderr
  std::FILE* in = nullptr;   // nullptr -> stdin
};

/// Runs a complete Converse machine: spawns `config.npes` PE threads, runs
/// module init hooks on each (fixed order, so handler indices agree), then
/// runs `entry(pe, npes)` on every PE.  Returns when every PE's entry has
/// returned and the machine has been torn down.  This is the in-process
/// equivalent of `ConverseInit ... ConverseExit`.
///
/// When CONVERSE_NODE is set in the environment (tools/converserun sets it
/// for every rank it spawns), the transport/topology fields above are
/// overridden from CONVERSE_NODE / CONVERSE_NNODES / CONVERSE_NPES /
/// CONVERSE_TRANSPORT / CONVERSE_RDV / CONVERSE_TCP_BASE /
/// CONVERSE_WIRE_TIMEOUT_MS, so an unmodified single-process program
/// becomes one rank of a multi-process run.  This process then spawns
/// threads only for its own node's PEs, and `entry` runs once per local PE
/// (still with the *global* pe / npes arguments).
///
/// Machines are sequential within a process: at most one may run at a time.
void RunConverse(const MachineConfig& config,
                 const std::function<void(int pe, int npes)>& entry);

/// Convenience overload with default configuration.
void RunConverse(int npes, const std::function<void(int pe, int npes)>& entry);

/// True while called from inside a PE thread of a running machine.
bool CmiInsideMachine();

}  // namespace converse
