// Binds an obs::TelemetrySampler to the simulation kernel (DESIGN.md §9).
//
// obs sits below sim in the layering, so TelemetrySampler talks to the
// kernel through a Host struct of callables; telemetryHost() is the one
// place those bindings live. The kernel's own series (sim.events_per_s,
// sim.pending_events, sim.arena_slots) come from Simulator::inspect.
#pragma once

#include "obs/sampler.h"
#include "sim/simulator.h"

namespace mg::sim {

/// The sampler's kernel surface bound to `sim`. The Simulator must outlive
/// any sampler built on the returned host.
obs::TelemetrySampler::Host telemetryHost(Simulator& sim);

}  // namespace mg::sim
