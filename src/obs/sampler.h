// Event-driven periodic sampling of the layers' inspect() walks into a
// TimeSeriesRecorder (DESIGN.md §9).
//
// The sampler schedules itself as a recurring simulation event at a fixed
// interval. At each tick it calls inspect() on every watched subject, in
// watch order, and records one sample per series: a level as it is, a total
// as its per-second rate over the last interval (utilization when the total
// is busy-seconds). It ignores state fields and tells the subjects so
// (Inspector::wantsFields() is false). It is deliberately decoupled from
// sim::Simulator (obs is a lower layer): the kernel surface arrives as a
// Host struct of callables, bound by sim::telemetryHost().
//
// Only the first recorder.maxSeries() series of the walk are sampled, so a
// per-link family on a huge topology stays bounded and the series kept are
// the ones emitted first.
//
// The sampler reschedules only while host.pending_events() > 0, so it never
// keeps Simulator::run() (which runs until the queue drains) alive on its
// own, and the final tick lands at the last real event's interval. finish()
// takes one closing sample so rates account the tail interval.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/inspector.h"
#include "obs/timeline.h"

namespace mg::obs {

class TelemetrySampler final : private Inspector {
 public:
  /// The kernel surface the sampler runs against (see sim::telemetryHost).
  struct Host {
    /// Current simulation time (ns).
    std::function<std::int64_t()> now;
    /// Schedule a callable at absolute sim time t (>= now).
    std::function<void(std::int64_t, std::function<void()>)> schedule_at;
    /// Events currently scheduled.
    std::function<std::size_t()> pending_events;
  };

  struct Options {
    std::int64_t interval_ns = 100'000'000;  // 100 ms
  };

  TelemetrySampler(TimeSeriesRecorder& recorder, Host host)
      : TelemetrySampler(recorder, std::move(host), Options{}) {}
  TelemetrySampler(TimeSeriesRecorder& recorder, Host host, Options opts);

  /// Inspect `subject` (anything with `void inspect(Inspector&) const`) at
  /// every tick, after the subjects watched before it. The subject must
  /// outlive the sampler's run. Call before start().
  template <class Subject>
  void watch(const Subject& subject) {
    addSubject([&subject](Inspector& in) { subject.inspect(in); });
  }

  /// Take the t=now baseline sample and schedule the recurring tick. Call
  /// once, after the subjects are watched and before the run. The baseline
  /// records every level and primes every total, so a rate's first sample
  /// covers [start, first tick].
  void start();

  /// Take a final closing sample at host.now() unless one already landed
  /// there. Call after the run returns.
  void finish();

  std::int64_t ticks() const { return ticks_; }
  std::int64_t intervalNs() const { return opts_.interval_ns; }

 private:
  /// One series of the walk, by its position: the walk emits the same
  /// names in the same order every tick, so the recorder's name lookup
  /// happens once per series, not once per sample.
  struct Slot {
    std::string series;
    TimeSeriesRecorder::Series* rec = nullptr;  // resolved on the first sample
    double prev = 0;                            // totals: value at the previous tick
  };

  void addSubject(std::function<void(Inspector&)> inspect);
  void level(std::string_view series, double v) override;
  void total(std::string_view series, double cumulative) override;
  /// The slot of the walk's next series, or nullptr past the recorder's
  /// max_series. `fresh` when the series is new at this position.
  Slot* nextSlot(std::string_view series, bool& fresh);
  void record(Slot& slot, double v);
  /// Inspect every subject at time t and record the samples.
  void collect(std::int64_t t);
  /// Schedule the next tick if the run still has events to execute.
  void scheduleNext(std::int64_t t);

  TimeSeriesRecorder& recorder_;
  Host host_;
  Options opts_;
  std::vector<std::function<void(Inspector&)>> subjects_;
  std::vector<Slot> slots_;
  std::size_t next_slot_ = 0;    // series seen so far in this tick's walk
  double dt_s_ = 0;              // seconds since the previous tick; 0 at start
  bool started_ = false;
  std::int64_t last_tick_ = -1;  // time of the previous collect, -1 before start
  std::int64_t ticks_ = 0;
};

}  // namespace mg::obs
