#include "sim/telemetry.h"

namespace mg::sim {

obs::TelemetrySampler::Host telemetryHost(Simulator& sim) {
  obs::TelemetrySampler::Host host;
  host.now = [&sim] { return sim.now(); };
  host.schedule_at = [&sim](std::int64_t t, std::function<void()> fn) {
    sim.scheduleAt(t, EventFn(std::move(fn)));
  };
  host.pending_events = [&sim] { return sim.pendingEventCount(); };
  return host;
}

}  // namespace mg::sim
