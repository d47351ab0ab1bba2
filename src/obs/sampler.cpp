#include "obs/sampler.h"

#include "util/error.h"

namespace mg::obs {

TelemetrySampler::TelemetrySampler(TimeSeriesRecorder& recorder, Host host, Options opts)
    : Inspector(/*now=*/0, /*wants_fields=*/false),
      recorder_(recorder),
      host_(std::move(host)),
      opts_(opts) {
  if (opts_.interval_ns <= 0) throw UsageError("TelemetrySampler wants interval > 0");
  if (!host_.now || !host_.schedule_at || !host_.pending_events) {
    throw UsageError("TelemetrySampler host is missing a callable");
  }
}

void TelemetrySampler::addSubject(std::function<void(Inspector&)> inspect) {
  if (started_) throw UsageError("TelemetrySampler subjects must be watched before start()");
  subjects_.push_back(std::move(inspect));
}

void TelemetrySampler::start() {
  if (started_) throw UsageError("TelemetrySampler::start called twice");
  started_ = true;
  const std::int64_t t0 = host_.now();
  collect(t0);
  scheduleNext(t0);
}

TelemetrySampler::Slot* TelemetrySampler::nextSlot(std::string_view series, bool& fresh) {
  if (next_slot_ >= recorder_.maxSeries()) return nullptr;
  const std::size_t i = next_slot_++;
  if (i == slots_.size()) slots_.emplace_back();
  Slot& slot = slots_[i];
  fresh = slot.series != series;  // first seen, or the walk changed shape
  if (fresh) slot = Slot{std::string(series)};
  return &slot;
}

void TelemetrySampler::record(Slot& slot, double v) {
  if (slot.rec == nullptr) slot.rec = recorder_.open(slot.series);
  if (slot.rec != nullptr) recorder_.add(*slot.rec, now_, v);
}

void TelemetrySampler::level(std::string_view series, double v) {
  bool fresh = false;
  if (Slot* slot = nextSlot(series, fresh)) record(*slot, v);
}

void TelemetrySampler::total(std::string_view series, double cumulative) {
  bool fresh = false;
  Slot* slot = nextSlot(series, fresh);
  if (slot == nullptr) return;
  // A total new at this position only primes its baseline.
  if (!fresh && dt_s_ > 0) record(*slot, (cumulative - slot->prev) / dt_s_);
  slot->prev = cumulative;
}

void TelemetrySampler::collect(std::int64_t t) {
  if (t == last_tick_) return;  // finish() colliding with the final tick
  now_ = t;
  dt_s_ = last_tick_ < 0 ? 0.0 : static_cast<double>(t - last_tick_) * 1e-9;
  next_slot_ = 0;
  for (const auto& inspect : subjects_) inspect(*this);
  last_tick_ = t;
  ++ticks_;
}

void TelemetrySampler::scheduleNext(std::int64_t t) {
  // Without pending events the run is over (Simulator::run drains to empty);
  // rescheduling would keep it alive forever.
  if (host_.pending_events() == 0) return;
  const std::int64_t next = t + opts_.interval_ns;
  host_.schedule_at(next, [this, next] {
    collect(next);
    scheduleNext(next);
  });
}

void TelemetrySampler::finish() {
  if (!started_) return;
  collect(host_.now());
}

}  // namespace mg::obs
