// simfuzz — seed-driven fuzzer for the Converse deterministic simulator.
//
// Runs randomized workloads under the sim backend with optional fault
// injection, checks the workload's invariant oracles, and on failure shrinks
// the case and prints a one-line replay command.  The same seed always
// produces the same run, so that line is a complete bug report.  Every flag,
// shrink rule and replay line comes from the workload tables (see
// converse/fuzz.h); a flag outside the selected workload's table is a usage
// error.
//
// Usage (simfuzz --help):
//   simfuzz [--seed N] [--seeds COUNT] [--start N] [--pes N] [--actions N]
//           [--threads N] [--drop P] [--dup P] [--delay P] [--reorder P]
//           [--plant-bug] [--agg] [--trace-hash] [--quiet]
//   simfuzz --race [--seed N] [--seeds COUNT] [--start N] [--pes N]
//           [--chains N] [--hops N] [--plant-race] [--plant-benign] [--quiet]
//   simfuzz --service [--seed N] [--seeds COUNT] [--start N] [--pes N]
//           [--sessions N] [--workers N] [--requests N] [--rate R] [--qcap N]
//           [--drop P] [--dup P] [--delay P] [--reorder P] [--plant-lost-reply]
//           [--trace-hash] [--quiet]
//   simfuzz --ldb [--seed N] [--seeds COUNT] [--start N] [--pes N]
//           [--strategy N] [--lseeds N] [--waves N] [--prio-frac P] [--drop P]
//           [--dup P] [--delay P] [--reorder P] [--plant-lost-steal-reply]
//           [--trace-hash] [--quiet]
//   simfuzz --transport [--seed N] [--seeds COUNT] [--start N] [--pes N]
//           [--nodes N] [--actions N] [--disconnect P] [--lost N] [--agg]
//           [--plant-lost] [--trace-hash] [--quiet]
//
// With --seeds COUNT, seeds start..start+COUNT-1 are run and the first
// failure stops the sweep.  Otherwise a single seed is run: --seed, else
// the CONVERSE_SIM_SEED environment variable, else 1.  --trace-hash prints
// the run's event-trace hash (for determinism checks).  Exit status is 0
// iff every run passed its oracles, 1 on a failing seed, 2 on a usage error.
//
// The workloads (docs/TESTING.md has each one's oracles):
//  * default: random handler graphs (converse/sim.h); --plant-bug plants a
//    per-sender FIFO violation.
//  * --race: causally ordered token chains that must produce zero CciRace
//    reports, with a planted racy (--plant-race) or commutative
//    (--plant-benign) pair that must be classified; needs a library built
//    with -DCONVERSE_RACE=ON and exits 2 otherwise.
//  * --service: the request/response service (converse/svc.h) under its
//    request-conservation oracles; --plant-lost-reply drops a reply.
//  * --ldb: a skewed seed burst under one of the six CldStrategy values
//    (converse/cld.h; --strategy -1 draws it from the seed) under the
//    balancer's conservation oracles; --plant-lost-steal-reply drops a
//    steal reply and its seeds.
//  * --transport: a loopback multi-node machine whose inter-node traffic
//    crosses the virtual wire (converse/transport.h), with disconnect
//    injection, under wire conservation; --plant-lost drops one record
//    silently.
// Each planted bug must be caught, shrunk and printed as a replay line (the
// CI and ctest self-tests).
#include "converse/cld.h"
#include "converse/fuzz.h"
#include "converse/sim.h"
#include "converse/svc.h"
#include "converse/transport.h"

int main(int argc, char** argv) {
  return converse::fuzz::Main(argc, argv, converse::sim::FuzzWorkload(),
                              converse::sim::RaceFuzzWorkload(),
                              converse::svc::SvcFuzzWorkload(),
                              converse::ldb::LdbFuzzWorkload(),
                              converse::transport::TransportFuzzWorkload());
}
