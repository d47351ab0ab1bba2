// The benchmark harness: statistics, the benchmark's own spans, windowed
// stepping of the simulation kernel, and the four workloads.
//
// Everything here drives the MicroGrid from outside, through the public API
// of core, sim, net, econ and obs. No probe lives in the program: the spans
// are opened by the harness around each call it makes into a layer, and the
// per-layer counts are read from the program's MetricsRegistry and
// accessors after (or, per window, during) the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace perfbench {

namespace sim = mg::sim;

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);
/// User + system CPU seconds of this process, all threads included.
double cpuSeconds();
/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

// --- statistics -----------------------------------------------------------

double median(std::vector<double> v);

/// Nearest-rank percentile (p in (0, 100]) of unsorted samples.
double percentile(std::vector<double> v, double p);

/// A timing tail reported by the benchmark's rule: the highest percentile
/// of the ladder 99.9, 99, 95, 90, 50 that still has at least ten samples
/// beyond it. `percentile` is 0 when there are too few samples for any rung.
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t samples = 0;
};
inline constexpr std::size_t kTailMinBeyond = 10;
Tail tailPercentile(std::vector<double> v);

// --- the benchmark's own spans ---------------------------------------------

struct Span {
  std::string run;   // iteration id: spans of one workload run share it
  std::string name;  // layer.metric, e.g. "core.platform_s" or "sim.window"
  double start_s = 0;
  double end_s = 0;
  int parent = -1;   // index into Tracer::spans(), -1 for a root
  /// Per-layer counter deltas over the span (window spans only).
  std::vector<std::pair<std::string, std::int64_t>> deltas;
};

/// In-memory span log. Disabled, open() returns -1 and nothing is recorded,
/// so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }
  void setRun(std::string run) { run_ = std::move(run); }

  int open(const std::string& name);
  void close(int id);
  Span* at(int id) { return id >= 0 ? &spans_[static_cast<std::size_t>(id)] : nullptr; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span with this name; with `run`, only the
  /// spans of that run id.
  double totalSeconds(const std::string& name, const std::string& run = "") const;
  /// Self time (duration minus the time covered by child spans), summed by
  /// span name.
  std::map<std::string, double> selfSeconds() const;
  /// {"spans":[{"run":..,"name":..,"start_s":..,"end_s":..,"parent":..,
  /// "deltas":{..}}]} — written once when the run ends.
  std::string json() const;

 private:
  bool enabled_;
  std::string run_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call into a layer.
class Scoped {
 public:
  Scoped(Tracer& t, const std::string& name) : t_(t), id_(t.open(name)) {}
  ~Scoped() { t_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// --- windowed stepping -----------------------------------------------------

/// Host time per emulation-time window, pooled over a run.
struct WindowLog {
  std::vector<double> host_ms;
  std::size_t pending_peak = 0;  // max pendingEventCount() at a boundary
};

/// Step `sim` with runUntil in fixed windows of `window` kernel time until
/// no event is pending, logging each window's host time. Traced, each
/// window is a "sim.window" span carrying the deltas of the kernel, net,
/// vos, vmpi, econ and obs registry counters over it. The clock ends on a
/// window boundary, not on the last event as after Simulator::run().
void stepWindows(sim::Simulator& sim, sim::SimTime window, Tracer& tr, WindowLog& log);

// --- workloads -------------------------------------------------------------

/// One execution of a workload: set up, run, check, digest.
struct Iteration {
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Canonical text of the simulated outputs (metrics snapshots, NPB
  /// virtual seconds, economy report, transferred bytes); its digest must
  /// not change under a speed-only change.
  std::string outputs;
  /// Raw per-layer numbers: registry counters summed over the workload's
  /// platforms, plus accessor values (route columns, arena slots, spans).
  std::map<std::string, double> counts;
  /// Output-check failures, one line each.
  std::vector<std::string> problems;
};

struct RunConfig {
  std::uint64_t seed = 2026;
  bool smoke = false;  // seconds-scale sizes for the harness tests
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Emulation-time window length for stepWindows.
  virtual sim::SimTime window() const = 0;
  /// Total set-ups a run performs (iterations count toward it); extra
  /// set-up-only repetitions make up the rest, so setup_s is a median.
  virtual int setupReps() const = 0;
  /// Run on one CPU. Workloads whose simulated processes hand off between
  /// OS threads pin: unpinned, each handoff is a cross-core futex wake whose
  /// latency follows the host's other load.
  virtual bool pinned() const { return false; }
  /// Once per process, outside run_s and setup_s (NPB reference runs).
  virtual void prepare(Tracer& tr) { (void)tr; }
  /// Set up and run once. With `windows`, the kernel is stepped in
  /// window() slices and logged there; with nullptr each platform runs to
  /// completion with one Simulator::run() (the equivalence reference).
  virtual Iteration iterate(Tracer& tr, WindowLog* windows) = 0;
  /// Build everything an iteration builds, run nothing; host seconds.
  virtual double setupOnly() = 0;
  /// Layer drives measured in the traced run only, under their own spans
  /// (a fresh routing table, workload generation alone, NPB jobs with
  /// recording on). The result carries the drives' checks and the layer
  /// counts only they produce; the caller adds nothing else of it. Throws
  /// when a drive does not reproduce what the workload used.
  virtual Iteration tracedDrives(Tracer& tr) {
    (void)tr;
    return {};
  }
};

std::vector<std::string> workloadNames();
/// nullptr for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name, const RunConfig& cfg);
/// NPB jobs ("bt", "mg", ...) on the Alpha cluster, one after another,
/// recording off; the named workload npb_a is one instance. Its traced run
/// also runs BT and MG with span recording, the telemetry sampler and the
/// exports on, as the obs layer's drive.
std::unique_ptr<Workload> makeNpbWorkload(std::vector<std::string> benches, const RunConfig& cfg);

// --- one benchmark run -----------------------------------------------------

struct RunOptions {
  std::string workload;
  RunConfig cfg;
  double seconds = 10;  // measure for this long (at least one iteration)
  bool trace = false;   // per-layer metrics from a separate traced iteration
};

struct RunResult {
  bool correct = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// End-to-end metrics untraced; per-layer metrics traced.
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;
  std::string digest;  // of the simulated outputs, equal across iterations
  /// Seed, window length, sample counts behind every median and percentile.
  std::map<std::string, double> provenance;
  std::map<std::string, std::string> build;  // build type, compiler, affinity
  std::string trace_json;   // traced runs: the benchmark's spans
  std::string attribution;  // traced runs: counter deltas of the p99 windows
  std::map<std::string, double> self_s;  // traced runs: span self time by name
};

/// Operations that succeeded over operations attempted; 0 when none ran.
double okFraction(std::int64_t attempted, std::int64_t failed);

/// Run `opts.workload` and check its outputs. Untraced: iterations for
/// opts.seconds, then set-up-only repetitions up to setupReps(). Traced: the
/// same untraced iterations as the baseline, one traced iteration, the
/// traced-only layer drives, and one plain Platform::run() iteration whose
/// output digest must equal the windowed one.
RunResult runBenchmark(const RunOptions& opts, Workload& w);

/// One JSON line: correct, attempted, failed, metrics, problems, digest,
/// provenance, build, and for traced runs the attribution and self times.
std::string resultJson(const RunResult& r);

/// FNV-1a 64 of the outputs text, as 16 hex digits.
std::string digestOf(const std::string& outputs);

}  // namespace perfbench
