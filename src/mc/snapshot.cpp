#include "mc/snapshot.h"

#include "util/error.h"
#include "util/strings.h"

namespace mg::mc {

Snapshot capture(const ScenarioRun& run, double at, const fault::FaultPlan& plan) {
  Snapshot s;
  s.at = at;
  s.digest = run.digest();
  s.plan = plan;
  return s;
}

std::unique_ptr<ScenarioRun> restore(const ScenarioFactory& make, const Snapshot& snap) {
  std::unique_ptr<ScenarioRun> run = make(snap.plan);
  run->runTo(snap.at);
  const std::uint64_t got = run->digest();
  if (got == snap.digest) return run;
  throw StateError(util::format("restore diverged at t=%.9gvs: digest %016llx, snapshot %016llx",
                                snap.at, static_cast<unsigned long long>(got),
                                static_cast<unsigned long long>(snap.digest)));
}

}  // namespace mg::mc
