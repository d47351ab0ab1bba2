#include <algorithm>
#include <iostream>
#include <sstream>

#include "harness.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The per-layer metrics of BENCHMARK.json from one traced iteration. Every
/// name is printed for every workload; a layer a workload does not exercise
/// reads 0. `traced` and `drives` are the run ids of the traced iteration's
/// spans and of the traced-only drives' spans.
std::map<std::string, double> layerMetrics(const Iteration& t, const WindowLog& windows,
                                           const Tracer& tr, double untraced_run_s,
                                           const std::string& traced, const std::string& drives) {
  auto c = [&t](const std::string& name) {
    const auto it = t.counts.find(name);
    return it == t.counts.end() ? 0.0 : it->second;
  };
  auto iterSpan = [&](const std::string& name) { return tr.totalSeconds(name, traced); };
  auto driveSpan = [&](const std::string& name) { return tr.totalSeconds(name, drives); };
  const double events = c("sim.kernel.events_executed");
  const double sent = c("net.packet.sent");
  const double segments = c("net.tcp.segments_sent");
  const double recomputes = c("net.flow.share_recomputes");
  const double jobs = c("econ.jobs.submitted");
  std::map<std::string, double> m;
  m["sim.events"] = events;
  m["sim.ns_per_event"] = ratio(untraced_run_s * 1e9, events);
  m["sim.wakes"] = c("sim.process.wakes");
  m["sim.spawned"] = c("sim.process.spawned");
  m["sim.heap_fallback_ratio"] = ratio(c("sim.kernel.eventfn_heap_fallbacks"), events);
  m["sim.pending_peak"] = static_cast<double>(windows.pending_peak);
  m["sim.arena_slots"] = c("sim.arena_slots");
  m["net.packet.sent"] = sent;
  m["net.packet.drop_ratio"] = ratio(
      c("net.packet.dropped_queue") + c("net.packet.dropped_loss") + c("net.packet.dropped_down"),
      sent);
  m["net.tcp.segments"] = segments;
  m["net.tcp.retransmit_ratio"] = ratio(c("net.tcp.retransmits"), segments);
  m["net.flow.started"] = c("net.flow.started");
  m["net.flow.recomputes"] = recomputes;
  m["net.flow.visits_per_recompute"] = ratio(c("net.flow.recompute_flow_visits"), recomputes);
  m["net.route.columns"] = c("net.route.columns");
  m["net.route.cold_s"] = driveSpan("net.route.cold_s");
  m["vos.quanta"] = c("vos.sched.quanta");
  m["vos.tasks"] = c("vos.sched.tasks_added");
  m["vos.wire.frames"] = c("vos.wire.frames_sent");
  m["vmpi.messages"] = c("vmpi.comm.messages_sent");
  m["vmpi.bytes"] = c("vmpi.comm.bytes_sent");
  m["vmpi.collectives"] = c("vmpi.comm.collectives");
  m["grid.services_s"] = iterSpan("grid.services_s");
  m["gis.searches"] = c("gis.service.searches");
  m["gis.adds"] = c("gis.service.adds");
  m["econ.jobs"] = jobs;
  m["econ.backfill_starts"] = c("econ.queue.backfill_starts");
  m["econ.transfers"] = c("econ.data.transfers");
  m["econ.ns_per_job"] = ratio(untraced_run_s * 1e9, jobs);
  m["econ.grid_gen_s"] = iterSpan("econ.grid_gen_s");
  m["econ.gen_s"] = driveSpan("econ.gen_s");
  m["core.config_s"] = iterSpan("core.config_s");
  m["core.platform_s"] = iterSpan("core.platform_s");
  m["core.ref_s"] = tr.totalSeconds("core.ref_s");
  m["obs.spans"] = c("obs.spans");
  m["obs.timeline_samples"] = c("obs.timeline_samples");
  m["obs.trace_bytes"] = c("obs.trace_bytes");
  m["obs.run_s"] = driveSpan("obs.run_s");
  m["obs.export_s"] = driveSpan("obs.export_s");
  m["obs.snapshot_s"] = iterSpan("obs.snapshot_s");
  for (const char* b : {"bt", "mg", "is"}) {
    m[std::string("npb.virtual_s.") + b] = c(std::string("npb.virtual_s.") + b);
  }
  m["npb.err_pct"] = c("npb.err_pct");
  return m;
}

/// Summed counter deltas of the traced windows at or above the p99 window:
/// which layer's work the slowest stretches of the run were doing.
std::string attributeTail(const Tracer& tr, double threshold_ms) {
  std::map<std::string, std::int64_t> sum;
  int n = 0;
  for (const Span& s : tr.spans()) {
    if (s.name != "sim.window" || (s.end_s - s.start_s) * 1e3 < threshold_ms) continue;
    ++n;
    for (const auto& [k, d] : s.deltas) sum[k] += d;
  }
  std::ostringstream out;
  out << "{\"windows\":" << n << ",\"threshold_ms\":" << mg::obs::formatDouble(threshold_ms)
      << ",\"deltas\":{";
  bool first = true;
  for (const auto& [k, d] : sum) {
    out << (first ? "" : ",") << "\"" << k << "\":" << d;
    first = false;
  }
  out << "}}";
  return out.str();
}

void check(RunResult& r, const Iteration& it, const std::string& label) {
  r.attempted += it.attempted;
  r.failed += it.failed;
  for (const auto& p : it.problems) r.problems.push_back(label + ": " + p);
  const std::string d = digestOf(it.outputs);
  if (r.digest.empty()) {
    r.digest = d;
  } else if (d != r.digest) {
    r.problems.push_back(label + ": simulated-output digest " + d + " differs from " + r.digest);
  }
}

}  // namespace

double okFraction(std::int64_t attempted, std::int64_t failed) {
  return attempted > 0 ? static_cast<double>(attempted - failed) / static_cast<double>(attempted)
                       : 0;
}

RunResult runBenchmark(const RunOptions& opts, Workload& w) {
  RunResult r;
  Tracer tr(opts.trace);
  tr.setRun(opts.workload + "/reference");
  w.prepare(tr);
  tr.setEnabled(false);

  WindowLog windows;
  std::vector<double> run_s;
  std::vector<double> setup_s;
  std::vector<double> cpu_s;
  const auto t0 = Clock::now();
  while (run_s.empty() || secondsSince(t0) < opts.seconds) {
    const Iteration it = w.iterate(tr, &windows);
    check(r, it, "iteration " + std::to_string(run_s.size()));
    std::cout << "iteration " << run_s.size() << ": setup_s " << it.setup_s << " run_s "
              << it.run_s << " cpu_s " << it.cpu_s << std::endl;
    run_s.push_back(it.run_s);
    setup_s.push_back(it.setup_s);
    cpu_s.push_back(it.cpu_s);
    // Set-up-only repetitions are spread between iterations, a fifth of the
    // total at a time, so their median samples the whole run rather than
    // one burst of the host's other load at its end.
    const std::size_t batch = setup_s.size() + std::max(1, w.setupReps() / 5);
    while (!opts.trace && setup_s.size() < std::min<std::size_t>(batch, w.setupReps())) {
      setup_s.push_back(w.setupOnly());
    }
  }
  r.provenance["iterations"] = static_cast<double>(run_s.size());
  r.provenance["window_s"] = sim::toSeconds(w.window());

  if (!opts.trace) {
    while (static_cast<int>(setup_s.size()) < w.setupReps()) setup_s.push_back(w.setupOnly());
    // The tail is reported at p99; the percentile rule must allow it.
    const Tail tail = tailPercentile(windows.host_ms);
    if (!opts.cfg.smoke && tail.percentile < 99.0) {
      r.problems.push_back("window_ms_p99: " + std::to_string(tail.samples) +
                           " windows are too few for a p99 with ten samples beyond it");
    }
    r.metrics["run_s"] = median(run_s);
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["window_ms_p99"] = percentile(windows.host_ms, 99.0);
    r.metrics["cpu_s"] = median(cpu_s);
    r.metrics["peak_rss_mb"] = peakRssMb();
    r.metrics["ok_frac"] = okFraction(r.attempted, r.failed);
    r.provenance["setup_samples"] = static_cast<double>(setup_s.size());
    r.provenance["setup_s_p25"] = percentile(setup_s, 25);
    r.provenance["setup_s_p75"] = percentile(setup_s, 75);
    r.provenance["window_samples"] = static_cast<double>(tail.samples);
    r.provenance["window_ms_p50"] = median(windows.host_ms);
    r.provenance["window_tail_percentile"] = tail.percentile;
    r.provenance["window_ms_tail"] = tail.value;
  } else {
    const double untraced = median(run_s);
    const std::string traced_run = opts.workload + "/traced";
    const std::string drives_run = opts.workload + "/drives";
    tr.setEnabled(true);
    tr.setRun(traced_run);
    WindowLog traced_windows;
    Iteration traced = w.iterate(tr, &traced_windows);
    tr.setRun(drives_run);
    const Iteration drives = w.tracedDrives(tr);
    tr.setEnabled(false);
    check(r, traced, "traced iteration");
    r.attempted += drives.attempted;
    r.failed += drives.failed;
    for (const auto& p : drives.problems) r.problems.push_back("traced drives: " + p);
    for (const auto& [k, v] : drives.counts) traced.counts[k] += v;
    r.metrics = layerMetrics(traced, traced_windows, tr, untraced, traced_run, drives_run);
    r.metrics["bench.trace_overhead_pct"] = (traced.run_s / untraced - 1.0) * 100.0;
    r.attribution = attributeTail(tr, percentile(traced_windows.host_ms, 99.0));
    r.trace_json = tr.json();
    r.self_s = tr.selfSeconds();
    r.provenance["traced_windows"] = static_cast<double>(traced_windows.host_ms.size());

    // Windowed stepping must not change what is simulated.
    check(r, w.iterate(tr, nullptr), "plain Platform::run iteration");
  }
  r.correct = r.failed == 0 && r.problems.empty();
  return r;
}

std::string resultJson(const RunResult& r) {
  using mg::obs::formatDouble;
  using mg::obs::jsonEscape;
  std::ostringstream out;
  out << "{\"correct\":" << (r.correct ? "true" : "false") << ",\"attempted\":" << r.attempted
      << ",\"failed\":" << r.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : r.metrics) {
    out << (first ? "" : ",") << "\"" << k << "\":" << formatDouble(v);
    first = false;
  }
  out << "},\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    out << (i ? "," : "") << "\"" << jsonEscape(r.problems[i]) << "\"";
  }
  out << "],\"digest\":\"" << r.digest << "\",\"provenance\":{";
  first = true;
  for (const auto& [k, v] : r.provenance) {
    out << (first ? "" : ",") << "\"" << k << "\":" << formatDouble(v);
    first = false;
  }
  out << "},\"build\":{";
  first = true;
  for (const auto& [k, v] : r.build) {
    out << (first ? "" : ",") << "\"" << k << "\":\"" << jsonEscape(v) << "\"";
    first = false;
  }
  out << "}";
  if (!r.attribution.empty()) out << ",\"p99_window_attribution\":" << r.attribution;
  if (!r.self_s.empty()) {
    out << ",\"span_self_s\":{";
    first = true;
    for (const auto& [k, v] : r.self_s) {
      out << (first ? "" : ",") << "\"" << k << "\":" << formatDouble(v);
      first = false;
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace perfbench
