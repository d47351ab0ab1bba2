// Exhaustive fault-schedule exploration — model checking, lite
// (DESIGN.md §10).
//
// Given a scenario factory and a set of *candidate* faults, each with a
// menu of injection times, the explorer enumerates every schedule (one time
// choice — or skip — per candidate, times every firing order of same-time
// groups), replays each schedule from scratch through the deterministic
// factory, and checks the invariant surface (mc/invariants.h) at the end.
// Two reductions keep the enumeration honest but affordable:
//
//   causal-order reduction   same-time events whose touched topology-node
//       sets are disjoint commute; of each equivalence class of orderings,
//       only the representative with no adjacent out-of-order independent
//       pair is run (partitions and heals touch the whole fabric, so they
//       conservatively depend on everything).
//
//   state-hash pruning       while replaying, the platform digest is taken
//       after each decision time; if (digest, remaining suffix) was already
//       explored, this schedule's future is byte-identical to one already
//       checked and the replay stops early.
//
// On a violation, the explorer greedily delta-debugs the schedule down to a
// minimal reproducing FaultPlan and serializes it as INI — feed it back
// through `mgrun --faults` (or the FaultInjector directly) to replay the
// bug outside the explorer.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "mc/invariants.h"
#include "mc/scenario.h"
#include "util/config.h"

namespace mg::mc {

/// One explorable fault: an event template (its `at` is the nominal time)
/// plus the candidate injection times the explorer may choose from.
struct CandidateFault {
  fault::FaultEvent event;
  std::vector<double> times;  // candidate times; empty means {event.at}
  bool optional = true;       // the explorer may also leave it out entirely
};

struct ExploreOptions {
  /// Stop after this many schedules enumerated (run + pruned); 0 = no cap.
  int budget = 0;
  bool hash_pruning = true;
  bool causal_reduction = true;
  /// Keep exploring after the first violation (all violations are counted;
  /// only the first is minimized).
  bool stop_at_first_violation = false;
  /// Delta-debug the first violating schedule down to a minimal plan.
  bool minimize = true;
  /// Fixed faults injected in every schedule, on top of the candidates.
  fault::FaultPlan base;
};

struct ExploreStats {
  std::int64_t enumerated = 0;     // schedules visited (runs + pruned)
  std::int64_t runs = 0;           // schedules replayed to the end
  std::int64_t pruned_hash = 0;    // stopped early by (digest, suffix) memo
  std::int64_t pruned_causal = 0;  // orderings cut by independence
  std::int64_t violations = 0;
};

struct ExploreResult {
  ExploreStats stats;
  /// One deterministic line per schedule: index, signature, outcome, digest.
  /// Byte-identical across runs — the explorer's own determinism gate.
  std::vector<std::string> branch_log;
  bool violation_found = false;
  std::string first_invariant;      // invariant name of the first hit
  std::string first_violation;      // "invariant: detail" of the first hit
  fault::FaultPlan violating_plan;  // the full first violating schedule
  fault::FaultPlan minimal_plan;    // its delta-debugged reproduction (same invariant)
  std::string renderStats() const;
};

class Explorer {
 public:
  Explorer(ScenarioFactory factory, std::vector<CandidateFault> candidates,
           ExploreOptions opts = {});

  /// Enumerate, replay, check. Deterministic: equal inputs give equal
  /// results, branch logs included.
  ExploreResult explore();

  /// The [explore] + [candidate ...] dialect (examples/grids/*explore*.ini):
  ///
  ///   [explore]
  ///   budget = 200              # optional; 0 = unlimited
  ///   hash_pruning = true
  ///   causal_reduction = true
  ///
  ///   [candidate crash]
  ///   at = 1s                   # nominal time (used when `times` is absent)
  ///   kind = host_crash
  ///   target = vm3.ucsd.edu
  ///   times = 0.5s, 1s, 2s      # the menu the explorer chooses from
  ///   optional = true           # may also be skipped entirely
  ///
  /// Candidate sections take every key their fault kind accepts, plus
  /// `times` and `optional`; unknown keys are rejected like [fault] ones.
  struct Spec {
    ExploreOptions options;
    std::vector<CandidateFault> candidates;
  };
  static Spec parseSpec(const util::Config& cfg);

 private:
  struct Touch {
    bool universal = false;       // depends on everything (partition, heal)
    std::set<std::string> nodes;  // topology node names touched
  };

  void resolveTouches();
  bool independent(int a, int b) const;
  /// Keep exactly the orderings with no adjacent out-of-order independent
  /// pair (one representative per commutation class).
  std::vector<std::vector<int>> orderings(const std::vector<int>& group,
                                          ExploreStats& stats) const;
  void assignTimes(std::size_t idx, std::vector<double>& chosen,
                   std::vector<bool>& present, ExploreResult& out);
  void enumerateOrders(const std::map<double, std::vector<int>>& groups,
                       std::map<double, std::vector<int>>::const_iterator it,
                       std::vector<fault::FaultEvent>& firing, ExploreResult& out);
  void runSchedule(const std::vector<fault::FaultEvent>& firing, ExploreResult& out);
  /// True when `plan` replays to a violation of `invariant`.
  bool violates(const fault::FaultPlan& plan, const std::string& invariant);
  fault::FaultPlan minimize(const fault::FaultPlan& bad, const std::string& invariant);
  fault::FaultPlan planFor(const std::vector<fault::FaultEvent>& events) const;

  ScenarioFactory factory_;
  std::vector<CandidateFault> candidates_;
  ExploreOptions opts_;
  std::vector<Touch> touches_;
  std::set<std::pair<std::uint64_t, std::string>> memo_;  // (digest, suffix)
  bool stop_ = false;
};

}  // namespace mg::mc
