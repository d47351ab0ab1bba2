// The three benchmark workloads. Each is a batch simulation on the classic
// sequential kernel (parallel_workers = 0); see perfbench/README.md for why
// each was chosen and which layer metrics it is predicted to move.
#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/launcher.h"
#include "core/microgrid_platform.h"
#include "core/reference_platform.h"
#include "core/topologies.h"
#include "econ/economy.h"
#include "harness.h"
#include "npb/npb.h"
#include "obs/sampler.h"
#include "obs/sim_profiler.h"
#include "obs/trace_export.h"
#include "sim/telemetry.h"
#include "util/rng.h"

namespace perfbench {

using namespace mg;

namespace {

/// Registry counters summed into Iteration::counts after every platform.
const std::vector<std::string> kCounters = {
    "sim.kernel.events_executed", "sim.kernel.eventfn_heap_fallbacks",
    "sim.process.spawned",        "sim.process.wakes",
    "net.packet.sent",            "net.packet.dropped_queue",
    "net.packet.dropped_loss",    "net.packet.dropped_down",
    "net.tcp.segments_sent",      "net.tcp.retransmits",
    "net.flow.started",           "net.flow.share_recomputes",
    "net.flow.recompute_flow_visits",
    "vos.sched.quanta",           "vos.sched.tasks_added",
    "vos.wire.frames_sent",       "vmpi.comm.messages_sent",
    "vmpi.comm.bytes_sent",       "vmpi.comm.collectives",
    "gis.service.searches",       "gis.service.adds",
    "econ.jobs.submitted",        "econ.queue.backfill_starts",
    "econ.data.transfers",        "obs.span.begun",
};

/// Fold one finished platform's registry and accessors into the counts.
void collectCounts(core::MicroGridPlatform& p, Iteration& it) {
  const obs::MetricsRegistry& m = p.simulator().metrics();
  for (const auto& name : kCounters) it.counts[name] += static_cast<double>(m.counterValue(name));
  it.counts["net.route.columns"] += p.network().routing().columnsBuilt();
  double& slots = it.counts["sim.arena_slots"];
  slots = std::max(slots, static_cast<double>(p.simulator().eventArenaSlots()));
}

/// The metrics snapshot is an output: span it so obs.snapshot_s is measured.
std::string snapshot(Tracer& tr, sim::Simulator& sim) {
  Scoped s(tr, "obs.snapshot_s");
  return sim.metrics().snapshotJson();
}

/// Windowed when `log` is given, else one plain Simulator::run().
void drive(sim::Simulator& sim, sim::SimTime window, Tracer& tr, WindowLog* log) {
  if (log != nullptr) {
    stepWindows(sim, window, tr, *log);
  } else {
    sim.run();
  }
}

// --- NPB on the Alpha cluster ---------------------------------------------

/// One rank per virtual host.
std::vector<grid::AllocationPart> onePerHost(const core::VirtualGridConfig& cfg) {
  std::vector<grid::AllocationPart> parts;
  for (const auto& h : cfg.mapper().hosts()) parts.push_back({h.hostname, 1});
  return parts;
}

/// Every part of one NPB job that exists before its first event.
struct NpbSetup {
  grid::ExecutableRegistry registry;
  npb::ResultSink sink;
  core::VirtualGridConfig cfg;
  std::unique_ptr<core::MicroGridPlatform> platform;
  std::unique_ptr<core::Launcher> launcher;
  std::unique_ptr<obs::TelemetrySampler> sampler;

  NpbSetup(Tracer& tr, bool observed) {
    npb::registerNpb(registry, sink);
    {
      Scoped s(tr, "core.config_s");
      cfg = core::topologies::alphaCluster();
    }
    {
      Scoped s(tr, "core.platform_s");
      core::MicroGridOptions opts;
      opts.quantum = 10 * sim::kMillisecond;
      opts.netmodel = net::NetModelKind::Packet;
      platform = std::make_unique<core::MicroGridPlatform>(cfg, opts);
    }
    launcher = std::make_unique<core::Launcher>(*platform, registry);
    {
      Scoped s(tr, "grid.services_s");
      launcher->startServices(&cfg, "perfbench");
    }
    if (observed) {
      // mgrun --trace-out --profile --timeline, with nothing written out.
      sim::Simulator& sim = platform->simulator();
      sim.spans().setEnabled(true);
      const sim::SimTime interval = sim::fromSeconds(0.1);
      sim.timeline().setBaseWidth(interval);
      obs::TelemetrySampler::Options sopts;
      sopts.interval_ns = interval;
      sampler =
          std::make_unique<obs::TelemetrySampler>(sim.timeline(), sim::telemetryHost(sim), sopts);
      platform->registerTelemetry(*sampler);
      sampler->start();
    }
  }
};

class NpbWorkload : public Workload {
 public:
  NpbWorkload(std::vector<std::string> benches, const RunConfig& cfg)
      : benches_(std::move(benches)), cfg_(cfg) {}

  // 100 ms of emulation time, ~5,800 windows per iteration. IS A's ~110
  // heavy windows (5-60 ms of host time each) are ~2% of them, so the p99
  // pooled over a run's iterations falls in their middle.
  sim::SimTime window() const override { return 100 * sim::kMillisecond; }
  // A set-up costs well under a millisecond: many make a steady median.
  int setupReps() const override { return 301; }
  bool pinned() const override { return true; }

  void prepare(Tracer& tr) override {
    for (const auto& b : benches_) {
      Scoped s(tr, "core.ref_s");
      grid::ExecutableRegistry registry;
      npb::ResultSink sink;
      npb::registerNpb(registry, sink);
      const core::VirtualGridConfig cfg = core::topologies::alphaCluster();
      core::ReferencePlatform ref(cfg);
      core::Launcher launcher(ref, registry);
      launcher.startServices(&cfg, "perfbench");
      const core::LaunchResult r = launcher.run("npb." + b, cls(), onePerHost(cfg));
      ref_ok_[b] = r.ok && sink.allVerified();
      ref_s_[b] = sink.maxSeconds();
    }
  }

  Iteration iterate(Tracer& tr, WindowLog* windows) override {
    Iteration it;
    for (const auto& b : benches_) runJob(b, false, tr, windows, it);
    return it;
  }

  double setupOnly() override {
    Tracer off;
    double setup = 0;
    for (std::size_t i = 0; i < benches_.size(); ++i) {
      const auto t0 = Clock::now();
      NpbSetup s(off, false);
      setup += secondsSince(t0);
    }
    return setup;
  }

  // The obs layer with recording on: BT and MG again, as mgrun --trace-out
  // --profile --timeline runs them, with the exports built in memory and
  // written nowhere. obs.run_s spans the whole of it.
  Iteration tracedDrives(Tracer& tr) override {
    Iteration observed;
    {
      Scoped s(tr, "obs.run_s");
      for (const char* b : {"bt", "mg"}) {
        // Only jobs this workload runs, so each has its reference time.
        if (ref_s_.count(b) != 0) runJob(b, true, tr, nullptr, observed);
      }
    }
    Iteration out;
    out.attempted = observed.attempted;
    out.failed = observed.failed;
    out.problems = observed.problems;
    for (const char* k : {"obs.spans", "obs.timeline_samples", "obs.trace_bytes"}) {
      out.counts[k] = observed.counts[k];
    }
    return out;
  }

 private:
  std::string cls() const { return cfg_.smoke ? "S" : "A"; }

  void runJob(const std::string& b, bool observed, Tracer& tr, WindowLog* windows,
              Iteration& it) {
    const double cpu0 = cpuSeconds();
    const auto s0 = Clock::now();
    auto owned = std::make_unique<NpbSetup>(tr, observed);
    NpbSetup& s = *owned;
    it.setup_s += secondsSince(s0);

    const auto r0 = Clock::now();
    sim::Simulator& sim = s.platform->simulator();
    const auto result = s.launcher->submitAsync("npb." + b, cls(), onePerHost(s.cfg));
    drive(sim, window(), tr, windows);
    if (s.sampler) {
      Scoped x(tr, "obs.export_s");
      // No sampler->finish(): after a plain run the clock sits on the
      // sampler's final tick (always the last event), where it adds nothing.
      const std::string trace = obs::chromeTraceJson(sim.spans(), &sim.timeline());
      const std::string profile = obs::SimProfiler(sim.spans()).json();
      const std::string timeline = sim.timeline().csv();
      it.counts["obs.spans"] += static_cast<double>(sim.spans().size());
      it.counts["obs.timeline_samples"] += static_cast<double>(sim.timeline().sampleCount());
      it.counts["obs.trace_bytes"] += static_cast<double>(trace.size());
    }
    const std::string snap = snapshot(tr, sim);
    it.run_s += secondsSince(r0);

    const bool ok = result->ok && result->completed_at > 0 && s.sink.allVerified() &&
                    s.sink.results().size() == s.cfg.mapper().hosts().size();
    const double vs = s.sink.maxSeconds();
    ++it.attempted;
    if (!ok) {
      ++it.failed;
      it.problems.push_back("npb." + b + " " + cls() + ": job failed or unverified (" +
                            result->error + ")");
    }
    it.counts["npb.virtual_s." + b] = vs;
    if (!ref_ok_[b] || ref_s_[b] <= 0) {
      it.problems.push_back("npb." + b + ": reference-platform run failed");
    } else {
      const double err = std::abs(vs - ref_s_[b]) / ref_s_[b] * 100.0;
      double& worst = it.counts["npb.err_pct"];
      worst = std::max(worst, err);
      // bench_fig10_npb's shape check, a class A claim: the MicroGrid
      // tracks the reference within 10% on every benchmark.
      if (!cfg_.smoke && err > 10.0) it.problems.push_back("npb." + b + ": error vs reference above 10%");
    }
    collectCounts(*s.platform, it);
    it.outputs += "npb." + b + " " + cls() + "\nvirtual_s " + obs::formatDouble(vs) +
                  "\nverified " + (ok ? "1" : "0") + "\nmetrics " + snap + "\n";
    owned.reset();
    it.cpu_s += cpuSeconds() - cpu0;  // teardown (daemon unwinding) included
  }

  std::vector<std::string> benches_;
  RunConfig cfg_;
  std::map<std::string, double> ref_s_;
  std::map<std::string, bool> ref_ok_;
};

// --- flow_tree_100k ---------------------------------------------------------

constexpr int kFanout = 64;  // hosts per edge switch

std::string hostName(int h) {
  std::string name = "h";  // appended, not "h" + ...: gcc 12 -Wrestrict false positive
  name += std::to_string(h);
  return name;
}

/// flow_smoke's generated tree: hosts under 64-port edge switches under one
/// core router.
core::VirtualGridConfig makeTree(int hosts) {
  constexpr double kHostOps = 500e6;
  core::VirtualGridConfig cfg;
  cfg.addRouter("core");
  const int switches = (hosts + kFanout - 1) / kFanout;
  for (int s = 0; s < switches; ++s) {
    const std::string sw = "sw" + std::to_string(s);
    cfg.addRouter(sw);
    cfg.addLink("up" + std::to_string(s), sw, "core", 1e9, 200e-6);
    cfg.addPhysical("pm" + std::to_string(s), kFanout * kHostOps);
  }
  for (int h = 0; h < hosts; ++h) {
    const std::string name = hostName(h);
    const std::string ip = "10." + std::to_string(h / 65536) + "." +
                           std::to_string((h / 256) % 256) + "." + std::to_string(h % 256);
    cfg.addHost(name, ip, kHostOps, 1 << 28, "pm" + std::to_string(h / kFanout));
    cfg.addLink("eth" + std::to_string(h), name, "sw" + std::to_string(h / kFanout), 100e6,
                50e-6);
  }
  return cfg;
}

class FlowTreeWorkload : public Workload {
 public:
  explicit FlowTreeWorkload(const RunConfig& cfg)
      : hosts_(cfg.smoke ? 1000 : 100000), pairs_(cfg.smoke ? 8 : 64) {
    // 2 x pairs distinct edge switches (a partial Fisher-Yates draw), one
    // host on each: every pair crosses the core.
    util::Rng rng(cfg.seed);
    const auto switches = static_cast<std::size_t>((hosts_ + kFanout - 1) / kFanout);
    std::vector<int> sw(switches);
    std::iota(sw.begin(), sw.end(), 0);
    std::vector<std::string> picked;
    for (std::size_t i = 0; i < 2 * static_cast<std::size_t>(pairs_); ++i) {
      std::swap(sw[i], sw[i + rng.below(switches - i)]);
      const int base = sw[i] * kFanout;
      const auto width = static_cast<std::uint64_t>(std::min(kFanout, hosts_ - base));
      picked.push_back(hostName(base + static_cast<int>(rng.below(width))));
    }
    for (std::size_t i = 0; i < picked.size(); i += 2) {
      pairs_hosts_.emplace_back(picked[i], picked[i + 1]);
    }
  }

  // The transfers span ~0.19 s of emulation time.
  sim::SimTime window() const override { return 150 * sim::kMicrosecond; }
  int setupReps() const override { return 5; }
  // 128 sender and receiver processes, ~830 handoffs per iteration.
  bool pinned() const override { return true; }

  Iteration iterate(Tracer& tr, WindowLog* windows) override {
    Iteration it;
    const double cpu0 = cpuSeconds();
    const auto s0 = Clock::now();
    Setup s = build(tr);
    it.setup_s = secondsSince(s0);

    const auto r0 = Clock::now();
    sim::Simulator& sim = s.platform->simulator();
    drive(sim, window(), tr, windows);
    const std::string snap = snapshot(tr, sim);
    it.run_s = secondsSince(r0);

    const std::int64_t want = kMessages * kBytes;
    std::int64_t total = 0;
    it.outputs = "flow_tree hosts " + std::to_string(hosts_) + "\n";
    for (int p = 0; p < pairs_; ++p) {
      const auto i = static_cast<std::size_t>(p);
      const std::int64_t got = (*s.received)[i];
      total += got;
      ++it.attempted;
      if (got != want) {
        ++it.failed;
        it.problems.push_back("pair " + std::to_string(p) + ": received " +
                              std::to_string(got) + " of " + std::to_string(want) + " bytes");
      }
      it.outputs += pairs_hosts_[i].first + "->" + pairs_hosts_[i].second + " " +
                    std::to_string(got) + " " + obs::formatDouble((*s.done_at)[i]) + "\n";
    }
    if (total != static_cast<std::int64_t>(pairs_) * want) {
      it.problems.push_back("bytes received " + std::to_string(total) + " != pairs x messages x bytes");
    }
    collectCounts(*s.platform, it);
    it.outputs += "bytes " + std::to_string(total) + "\nmetrics " + snap + "\n";
    s.platform.reset();
    it.cpu_s = cpuSeconds() - cpu0;
    return it;
  }

  double setupOnly() override {
    Tracer off;
    const auto t0 = Clock::now();
    Setup s = build(off);
    return secondsSince(t0);
  }

  Iteration tracedDrives(Tracer& tr) override {
    const core::VirtualGridConfig cfg = makeTree(hosts_);
    Scoped s(tr, "net.route.cold_s");
    const net::RoutingTable rt(cfg.topology());
    for (const auto& [src, dst] : pairs_hosts_) {
      const net::NodeId a = cfg.topology().findNode(src);
      const net::NodeId b = cfg.topology().findNode(dst);
      if (rt.path(a, b).empty() || rt.path(b, a).empty()) {
        throw mg::Error("route drive: no path between " + src + " and " + dst);
      }
    }
    return {};
  }

 private:
  static constexpr int kMessages = 8;
  static constexpr std::int64_t kBytes = 262144;

  struct Setup {
    core::VirtualGridConfig cfg;
    std::unique_ptr<core::MicroGridPlatform> platform;
    std::shared_ptr<std::vector<std::int64_t>> received;
    std::shared_ptr<std::vector<double>> done_at;  // virtual time of the close
  };

  Setup build(Tracer& tr) {
    Setup s;
    {
      Scoped x(tr, "core.config_s");
      s.cfg = makeTree(hosts_);
    }
    {
      Scoped x(tr, "core.platform_s");
      core::MicroGridOptions opts;
      opts.netmodel = net::NetModelKind::Flow;
      s.platform = std::make_unique<core::MicroGridPlatform>(s.cfg, opts);
    }
    s.received = std::make_shared<std::vector<std::int64_t>>(pairs_, 0);
    s.done_at = std::make_shared<std::vector<double>>(pairs_, 0.0);
    for (int p = 0; p < pairs_; ++p) {
      const auto& [src, dst] = pairs_hosts_[static_cast<std::size_t>(p)];
      const auto port = static_cast<std::uint16_t>(7000 + p);
      auto received = s.received;
      auto done_at = s.done_at;
      s.platform->spawnOn(dst, "rx." + std::to_string(p),
                          [port, p, received, done_at](vos::HostContext& ctx) {
                            auto listener = ctx.listen(port);
                            auto sock = listener->accept();
                            std::vector<std::uint8_t> buf(1 << 16);
                            for (;;) {
                              const std::size_t n = sock->recv(buf.data(), buf.size());
                              if (n == 0) break;
                              (*received)[static_cast<std::size_t>(p)] +=
                                  static_cast<std::int64_t>(n);
                            }
                            sock->close();
                            (*done_at)[static_cast<std::size_t>(p)] = ctx.wallTime();
                          });
      s.platform->spawnOn(src, "tx." + std::to_string(p), [port, dst](vos::HostContext& ctx) {
        ctx.sleep(1e-3);  // keeps connect() past every listen()
        auto sock = ctx.connect(dst, port);
        std::vector<std::uint8_t> msg(static_cast<std::size_t>(kBytes));
        for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i * 131 % 251);
        for (int m = 0; m < kMessages; ++m) sock->send(msg.data(), msg.size());
        sock->close();
      });
    }
    return s;
  }

  int hosts_;
  int pairs_;
  std::vector<std::pair<std::string, std::string>> pairs_hosts_;
};

// --- econ_day ---------------------------------------------------------------

class EconWorkload : public Workload {
 public:
  explicit EconWorkload(const RunConfig& cfg) {
    // examples/workloads/million_day.ini, with the benchmark's seed.
    econ::WorkloadSpec& w = opts_.workload;
    w.jobs = cfg.smoke ? 10000 : 1000000;
    w.users = 1000000;
    w.seed = cfg.seed;
    w.arrival = econ::ArrivalProcess::Poisson;
    w.rate = 25.0;
    w.day_amplitude = 0.6;
    w.day_period_s = 86400;
    w.runtime_mu = 3.5;
    w.runtime_sigma = 1.2;
    w.max_cpus = 64;
    w.data_fraction = 0.3;
    w.data_mu = 16.5;
    w.data_sigma = 1.0;
    opts_.policy = econ::BrokerPolicy::Deadline;
    grid_.clusters = 16;
    grid_.hosts_per_cluster = 64;
    grid_.cores_per_host = 8;
    grid_.timeshared_every = 4;
  }

  // Rate 1, so a window is 20 virtual seconds; the million-job day spans
  // ~36,000 s, ~1,800 windows per iteration.
  sim::SimTime window() const override { return 20 * sim::kSecond; }
  int setupReps() const override { return 101; }

  Iteration iterate(Tracer& tr, WindowLog* windows) override {
    Iteration it;
    const double cpu0 = cpuSeconds();
    const auto s0 = Clock::now();
    Setup s = build(tr);
    it.setup_s = secondsSince(s0);

    const auto r0 = Clock::now();
    sim::Simulator& sim = s.platform->simulator();
    drive(sim, window(), tr, windows);
    const econ::EconReport rpt = s.economy->report();
    const std::string report = rpt.render();
    const std::string snap = snapshot(tr, sim);
    it.run_s = secondsSince(r0);

    // Conservation: every generated job is accounted for exactly once.
    const std::int64_t rejected = rpt.rejected_budget + rpt.rejected_unplaceable;
    const std::int64_t lost = rpt.submitted - rpt.completed - rpt.failed - rejected;
    it.attempted = opts_.workload.jobs;
    it.failed = rpt.failed + std::abs(lost) + std::abs(opts_.workload.jobs - rpt.submitted);
    if (rpt.submitted != opts_.workload.jobs) {
      it.problems.push_back("econ: submitted " + std::to_string(rpt.submitted) + " of " +
                            std::to_string(opts_.workload.jobs) + " jobs");
    }
    if (lost != 0) {
      it.problems.push_back("econ: submitted != completed + failed + rejected (" +
                            std::to_string(lost) + " unaccounted)");
    }
    if (rpt.failed != 0) it.problems.push_back("econ: " + std::to_string(rpt.failed) + " job(s) failed");
    collectCounts(*s.platform, it);
    it.outputs = "econ seed " + std::to_string(opts_.workload.seed) + "\n" + report + "metrics " + snap + "\n";
    s.economy.reset();
    s.platform.reset();
    it.cpu_s = cpuSeconds() - cpu0;
    return it;
  }

  double setupOnly() override {
    Tracer off;
    const auto t0 = Clock::now();
    Setup s = build(off);
    return secondsSince(t0);
  }

  Iteration tracedDrives(Tracer& tr) override {
    Scoped s(tr, "econ.gen_s");
    econ::WorkloadGenerator gen(opts_.workload, grid_.clusters);
    econ::Job job;
    std::int64_t n = 0;
    while (gen.next(job)) ++n;
    if (n != opts_.workload.jobs) throw mg::Error("generator drive: " + std::to_string(n) + " jobs");
    return {};
  }

 private:
  struct Setup {
    econ::EconGrid grid;
    std::unique_ptr<core::MicroGridPlatform> platform;
    std::unique_ptr<econ::GridEconomy> economy;  // declared last: destroyed first
  };

  Setup build(Tracer& tr) {
    Setup s;
    {
      Scoped x(tr, "econ.grid_gen_s");
      s.grid = econ::makeEconGrid(grid_);
    }
    {
      Scoped x(tr, "core.platform_s");
      core::MicroGridOptions mopts;
      mopts.netmodel = net::NetModelKind::Flow;
      mopts.rate_override = 1.0;  // kernel time == virtual time
      s.platform = std::make_unique<core::MicroGridPlatform>(s.grid.grid, mopts);
    }
    {
      Scoped x(tr, "econ.arm_s");
      s.economy = std::make_unique<econ::GridEconomy>(*s.platform, s.grid, opts_);
      s.economy->arm();
    }
    return s;
  }

  econ::EconOptions opts_;
  econ::EconGridSpec grid_;
};

}  // namespace

std::vector<std::string> workloadNames() {
  return {"npb_a", "econ_day", "flow_tree_100k"};
}

std::unique_ptr<Workload> makeNpbWorkload(std::vector<std::string> benches, const RunConfig& cfg) {
  return std::make_unique<NpbWorkload>(std::move(benches), cfg);
}

std::unique_ptr<Workload> makeWorkload(const std::string& name, const RunConfig& cfg) {
  if (name == "npb_a") return makeNpbWorkload({"bt", "mg", "is"}, cfg);
  if (name == "flow_tree_100k") return std::make_unique<FlowTreeWorkload>(cfg);
  if (name == "econ_day") return std::make_unique<EconWorkload>(cfg);
  return nullptr;
}

}  // namespace perfbench
