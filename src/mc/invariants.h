// The invariant surface the explorer checks after every schedule
// (DESIGN.md §10). Each invariant is a property that must hold at the end
// of ANY fault schedule composed from valid events — a violation is a bug
// in the simulator or middleware, not a property of the schedule:
//
//   workload.lost        every submitted work unit reached a terminal state
//   workload.error       the scenario's own health probe reports clean
//   fault.availability   the availability report agrees with the platform
//                        (a host reported down-at-horizon IS down, and vice
//                        versa; downtime bounded by elapsed time)
//   sim.pending_events   the drained kernel holds no pending events (a
//                        leaked timer would re-animate a "finished" run)
//   net.open_sockets     every TCP connection is closed or reset (a crashed
//                        host's stack died with its connections; survivors
//                        must have unwound theirs)
#pragma once

#include <string>
#include <vector>

#include "mc/scenario.h"

namespace mg::mc {

struct Violation {
  std::string invariant;  // e.g. "fault.availability"
  std::string detail;     // human-readable evidence
};

/// Check every invariant against a drained run (call after runToEnd()).
/// Returns the violations found, in a deterministic order; empty = clean.
std::vector<Violation> checkInvariants(ScenarioRun& run);

/// Render violations as "invariant: detail" lines, one per violation.
std::string renderViolations(const std::vector<Violation>& vs);

}  // namespace mg::mc
