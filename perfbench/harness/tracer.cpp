#include <sstream>

#include "harness.h"
#include "obs/metrics.h"

namespace perfbench {

int Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.run = run_;
  s.name = name;
  s.start_s = secondsSince(origin_);
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = secondsSince(origin_);
  // Spans nest strictly (RAII), so the closing span is the innermost.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double Tracer::totalSeconds(const std::string& name, const std::string& run) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name && (run.empty() || s.run == run)) sum += s.end_s - s.start_s;
  }
  return sum;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child[i];
  }
  return self;
}

std::string Tracer::json() const {
  std::ostringstream out;
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"run\":\"" << mg::obs::jsonEscape(s.run)
        << "\",\"name\":\"" << mg::obs::jsonEscape(s.name)
        << "\",\"start_s\":" << mg::obs::formatDouble(s.start_s)
        << ",\"end_s\":" << mg::obs::formatDouble(s.end_s) << ",\"parent\":" << s.parent;
    if (!s.deltas.empty()) {
      out << ",\"deltas\":{";
      for (std::size_t k = 0; k < s.deltas.size(); ++k) {
        out << (k ? "," : "") << "\"" << s.deltas[k].first << "\":" << s.deltas[k].second;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  return out.str();
}

namespace {

const std::vector<std::string>& windowCounters() {
  static const std::vector<std::string> names = {
      "sim.kernel.events_executed", "sim.process.wakes",         "net.packet.sent",
      "net.tcp.segments_sent",      "net.flow.share_recomputes", "net.flow.recompute_flow_visits",
      "vos.sched.quanta",           "vmpi.comm.messages_sent",   "econ.jobs.completed",
      "obs.span.begun",
  };
  return names;
}

}  // namespace

void stepWindows(sim::Simulator& sim, sim::SimTime window, Tracer& tr, WindowLog& log) {
  const auto& names = windowCounters();
  std::vector<std::int64_t> before(names.size(), 0);
  sim::SimTime t = sim.now();
  while (sim.pendingEventCount() > 0) {
    t += window;
    if (tr.enabled()) {
      for (std::size_t k = 0; k < names.size(); ++k) {
        before[k] = sim.metrics().counterValue(names[k]);
      }
    }
    const int id = tr.open("sim.window");
    const auto t0 = Clock::now();
    sim.runUntil(t);
    log.host_ms.push_back(secondsSince(t0) * 1e3);
    tr.close(id);
    log.pending_peak = std::max(log.pending_peak, sim.pendingEventCount());
    if (Span* s = tr.at(id)) {
      for (std::size_t k = 0; k < names.size(); ++k) {
        const std::int64_t d = sim.metrics().counterValue(names[k]) - before[k];
        if (d != 0) s->deltas.emplace_back(names[k], d);
      }
    }
  }
}

}  // namespace perfbench
