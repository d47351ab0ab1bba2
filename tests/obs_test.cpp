// Tests for the observability subsystem: the metrics registry, causal span
// tracing, the timeline and the inspect() sampler, and their end-to-end
// wiring through the MicroGrid platform (every layer's accounting flows into
// one snapshot, and same-seed runs produce byte-identical observability
// output).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "core/launcher.h"
#include "core/microgrid_platform.h"
#include "core/topologies.h"
#include "core/virtual_grid.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "gis/service.h"
#include "net/packet_network.h"
#include "npb/npb.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/sampler.h"
#include "obs/sim_profiler.h"
#include "obs/span.h"
#include "obs/timeline.h"
#include "obs/trace_export.h"
#include "sim/telemetry.h"
#include "util/error.h"
#include "util/strings.h"
#include "vmpi/comm.h"

#include "test_scenarios.h"

namespace mo = mg::obs;

// --------------------------------------------------------------- registry --

TEST(Metrics, CounterCreateOrGetAndIncrement) {
  mo::MetricsRegistry reg;
  mo::Counter& a = reg.counter("layer.comp.hits");
  mo::Counter& b = reg.counter("layer.comp.hits");
  EXPECT_EQ(&a, &b);  // create-or-get returns the same instrument
  a.inc();
  b.inc(41);
  EXPECT_EQ(a.value(), 42);
  EXPECT_EQ(reg.counterValue("layer.comp.hits"), 42);
  EXPECT_EQ(reg.counterValue("no.such.counter"), 0);
}

TEST(Metrics, HandlesStayValidAcrossManyRegistrations) {
  // Instruments live in a deque: a handle resolved early must survive any
  // number of later registrations (this is the hot-path contract).
  mo::MetricsRegistry reg;
  mo::Counter& first = reg.counter("first");
  for (int i = 0; i < 1000; ++i) reg.counter(std::string("c").append(std::to_string(i)));
  first.inc(7);
  EXPECT_EQ(reg.counterValue("first"), 7);
}

TEST(Metrics, GaugeSetAndAdd) {
  mo::MetricsRegistry reg;
  mo::Gauge& g = reg.gauge("layer.comp.level");
  g.set(1.5);
  g.add(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  EXPECT_DOUBLE_EQ(reg.gaugeValue("layer.comp.level"), 3.5);
  EXPECT_DOUBLE_EQ(reg.gaugeValue("absent"), 0.0);
}

TEST(Metrics, HistogramBoundsApplyOnlyOnCreation) {
  mo::MetricsRegistry reg;
  auto& h1 = reg.histogram("h", 0.0, 10.0, 10);
  auto& h2 = reg.histogram("h", -5.0, 5.0, 99);  // ignored: already exists
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bins(), 10);
  EXPECT_DOUBLE_EQ(h2.lo(), 0.0);
  EXPECT_EQ(reg.findHistogram("absent"), nullptr);
  ASSERT_NE(reg.findHistogram("h"), nullptr);
}

TEST(Metrics, SnapshotTableIsNameSorted) {
  mo::MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.gauge("a.level").set(0.5);
  reg.counter("a.count").inc(1);
  reg.histogram("c.hist", 0.0, 1.0, 4).add(0.3);
  const std::string csv = reg.snapshotTable().renderCsv();
  // Registration order was b, a-gauge, a-counter, c; the table merges all
  // three instrument kinds into one name-sorted view.
  EXPECT_EQ(csv,
            "metric,type,value\n"
            "a.count,counter,1\n"
            "a.level,gauge,0.5\n"
            "b.count,counter,2\n"
            "c.hist,histogram,1 samples\n");
}

TEST(Metrics, SnapshotJsonIsByteStable) {
  mo::MetricsRegistry reg;
  reg.counter("z.count").inc(3);
  reg.gauge("g.level").set(0.25);
  reg.histogram("h.hist", 0.0, 2.0, 2).add(1.5);
  const std::string expected =
      "{\"counters\":{\"z.count\":3},"
      "\"gauges\":{\"g.level\":0.25},"
      "\"histograms\":{\"h.hist\":{\"lo\":0,\"hi\":2,\"total\":1,\"bins\":[0,1]}}}";
  EXPECT_EQ(reg.snapshotJson(), expected);
  EXPECT_EQ(reg.snapshotJson(), expected);  // stable across repeated calls
}

TEST(Metrics, SnapshotCsvIsNameSortedAndStable) {
  mo::MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.gauge("a.level").set(0.5);
  reg.histogram("c.hist", 0.0, 1.0, 4).add(0.3);
  reg.histogram("c.hist", 0.0, 1.0, 4).add(0.9);
  const std::string expected =
      "metric,type,value\n"
      "a.level,gauge,0.5\n"
      "b.count,counter,2\n"
      "c.hist,histogram,2\n";
  EXPECT_EQ(reg.snapshotCsv(), expected);
  EXPECT_EQ(reg.snapshotCsv(), expected);
}

// ------------------------------------------------------------------ spans --

TEST(Spans, DisabledRecorderIsInert) {
  mo::SpanRecorder rec;
  EXPECT_EQ(rec.begin("a", "b"), 0u);
  EXPECT_EQ(rec.instant("a", "b"), 0u);
  mo::ScopedSpan s(rec, "a", "b");
  EXPECT_FALSE(s.active());
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.current(), 0u);
}

TEST(Spans, SequentialIdsAndScopedNesting) {
  mo::SpanRecorder rec;
  std::int64_t now = 100;
  rec.setTimeSource([&now] { return now; });
  rec.setEnabled(true);
  {
    mo::ScopedSpan outer(rec, "test", "outer", "hostA");
    EXPECT_EQ(outer.id(), 1u);
    EXPECT_EQ(rec.current(), 1u);
    now = 200;
    {
      mo::ScopedSpan inner(rec, "test", "inner", "hostA");
      EXPECT_EQ(inner.id(), 2u);
      EXPECT_EQ(rec.find(2)->parent, 1u);
      now = 300;
    }
    EXPECT_EQ(rec.current(), 1u);  // restored after inner closes
    EXPECT_EQ(rec.find(2)->end, 300);
  }
  EXPECT_EQ(rec.current(), 0u);
  EXPECT_EQ(rec.find(1)->parent, 0u);
  EXPECT_EQ(rec.find(1)->start, 100);
  EXPECT_EQ(rec.serializeTree(),
            "#1 parent=0 test.outer track=hostA start=100 end=300\n"
            "#2 parent=1 test.inner track=hostA start=200 end=300\n");
}

TEST(Spans, EndIsIdempotentAndAbortTrackMarksOpenSpans) {
  mo::SpanRecorder rec;
  std::int64_t now = 10;
  rec.setTimeSource([&now] { return now; });
  rec.setEnabled(true);
  const mo::SpanId done = rec.begin("test", "done", "h0");
  rec.end(done);
  const mo::SpanId doomed = rec.begin("test", "doomed", "h0");
  const mo::SpanId other = rec.begin("test", "other", "h1");
  now = 20;
  rec.abortTrack("h0", "host_crash");
  // The already-closed span keeps its original end and gains no attr; the
  // open one on h0 is closed with the aborted mark; h1 is untouched.
  EXPECT_TRUE(rec.find(done)->attrs.empty());
  EXPECT_EQ(rec.find(doomed)->end, 20);
  ASSERT_EQ(rec.find(doomed)->attrs.size(), 1u);
  EXPECT_EQ(rec.find(doomed)->attrs[0].first, "aborted");
  EXPECT_EQ(rec.find(doomed)->attrs[0].second, "host_crash");
  EXPECT_TRUE(rec.find(other)->open());
  // The RAII unwind's end() after the abort is a no-op.
  now = 30;
  rec.end(doomed);
  EXPECT_EQ(rec.find(doomed)->end, 20);
}

// ------------------------------------------------------------- end to end --

namespace {

using namespace mg;

core::VirtualGridConfig smallGrid() {
  core::VirtualGridConfig cfg;
  cfg.addPhysical("workstation", 533e6);
  cfg.addHost("vm0.example.org", "1.11.11.1", 266e6, 1ll << 30, "workstation");
  cfg.addHost("vm1.example.org", "1.11.11.2", 266e6, 1ll << 30, "workstation");
  cfg.addRouter("switch0");
  cfg.addLink("eth0", "vm0.example.org", "switch0", 100e6, 50e-6);
  cfg.addLink("eth1", "vm1.example.org", "switch0", 100e6, 50e-6);
  return cfg;
}

// Run a tiny two-rank vmpi job through the full Launcher path (GIS,
// gatekeepers, co-allocation) and return the platform for inspection.
struct RunResult {
  std::unique_ptr<core::MicroGridPlatform> platform;
  std::string trace;
  std::string metrics_json;
  std::uint64_t events_executed = 0;
};

RunResult runObservedWorkload(bool enable_tracing) {
  RunResult out;
  core::VirtualGridConfig cfg = smallGrid();
  out.platform = std::make_unique<core::MicroGridPlatform>(cfg);
  if (enable_tracing) out.platform->simulator().spans().setEnabled(true);

  grid::ExecutableRegistry registry;
  registry.add("obs.job", [](grid::JobContext& jc) {
    auto comm = vmpi::Comm::init(jc);
    jc.os.allocateMemory(1 << 20);
    jc.os.compute(10e6);
    double ranks = comm->rank();
    comm->allreduce(&ranks, 1, vmpi::Op::Sum);
    if (comm->rank() == 0) {
      // Resource discovery, so the gis.service.* counters see traffic.
      gis::GisClient client(jc.os, "vm0.example.org");
      auto recs = client.search("ou=MicroGrid, o=Grid", gis::Scope::Subtree,
                                "(Is_Virtual_Resource=Yes)");
      EXPECT_FALSE(recs.empty());
      client.close();
    }
    jc.os.freeMemory(1 << 20);
    comm->finalize();
    return 0;
  });
  core::Launcher launcher(*out.platform, registry);
  launcher.startServices(&cfg, "ObsGrid");
  auto result =
      launcher.run("obs.job", "", {{"vm0.example.org", 1}, {"vm1.example.org", 1}});
  EXPECT_TRUE(result.ok) << result.error;

  sim::Simulator& sim = out.platform->simulator();
  out.trace = sim.spans().serializeTree();
  out.metrics_json = sim.metrics().snapshotJson();
  out.events_executed = sim.eventsExecuted();
  return out;
}

// NPB EP across both hosts with span recording on: the acceptance workload
// for the causal-trace determinism and parentage checks.
struct TracedRun {
  std::unique_ptr<core::MicroGridPlatform> platform;
  std::string tree;     // SpanRecorder::serializeTree()
  std::string chrome;   // obs::chromeTraceJson()
  std::string profile;  // obs::SimProfiler::json()
};

TracedRun runTracedEp() {
  TracedRun out;
  core::VirtualGridConfig cfg = smallGrid();
  out.platform = std::make_unique<core::MicroGridPlatform>(cfg);
  sim::Simulator& sim = out.platform->simulator();
  sim.spans().setEnabled(true);

  grid::ExecutableRegistry registry;
  npb::ResultSink sink;
  npb::registerNpb(registry, sink);
  core::Launcher launcher(*out.platform, registry);
  launcher.startServices(&cfg, "ObsGrid");
  auto result =
      launcher.run("npb.ep", "S", {{"vm0.example.org", 1}, {"vm1.example.org", 1}});
  EXPECT_TRUE(result.ok) << result.error;

  out.tree = sim.spans().serializeTree();
  out.chrome = obs::chromeTraceJson(sim.spans());
  out.profile = obs::SimProfiler(sim.spans()).json();
  return out;
}

// Does following parent links from `id` reach `root`?
bool reaches(const mo::SpanRecorder& rec, mo::SpanId id, mo::SpanId root) {
  for (const mo::SpanRecorder::Span* s = rec.find(id); s != nullptr; s = rec.find(s->parent)) {
    if (s->id == root) return true;
  }
  return false;
}

// Minimal parser for the snapshot's counters section: returns the integer
// value of `name`, or -1 when the counter is absent.
long long jsonCounter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const auto pos = json.find(key);
  if (pos == std::string::npos) return -1;
  return std::stoll(json.substr(pos + key.size()));
}

}  // namespace

TEST(ObsEndToEnd, SnapshotCoversEveryLayer) {
  RunResult r = runObservedWorkload(/*enable_tracing=*/false);
  const std::string& j = r.metrics_json;
  // One counter per refactored layer must be present and non-zero: the
  // kernel, the packet network, TCP, the scheduler, the memory manager,
  // vmpi, the control-plane framing, and the GIS.
  EXPECT_GT(jsonCounter(j, "sim.kernel.events_executed"), 0) << j;
  EXPECT_GT(jsonCounter(j, "net.packet.delivered"), 0) << j;
  EXPECT_GT(jsonCounter(j, "net.tcp.segments_sent"), 0) << j;
  EXPECT_GT(jsonCounter(j, "vos.sched.quanta"), 0) << j;
  EXPECT_GT(jsonCounter(j, "vos.mem.allocations"), 0) << j;
  EXPECT_GT(jsonCounter(j, "vmpi.comm.messages_sent"), 0) << j;
  EXPECT_GT(jsonCounter(j, "vmpi.comm.collectives"), 0) << j;
  EXPECT_GT(jsonCounter(j, "vos.wire.frames_sent"), 0) << j;
  EXPECT_GT(jsonCounter(j, "gis.service.searches"), 0) << j;
  // The registry view and the kernel's own accessor agree.
  EXPECT_EQ(static_cast<std::uint64_t>(jsonCounter(j, "sim.kernel.events_executed")),
            r.events_executed);
}

TEST(ObsEndToEnd, SameSeedRunsAreByteIdentical) {
  // The determinism acceptance test: two identically configured runs must
  // produce byte-identical span trees and metrics snapshots.
  RunResult a = runObservedWorkload(/*enable_tracing=*/true);
  RunResult b = runObservedWorkload(/*enable_tracing=*/true);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(SpansEndToEnd, SameSeedEpRunsProduceByteIdenticalSpanTrees) {
  // ISSUE acceptance: same-seed NPB EP runs yield byte-identical span trees,
  // Chrome traces, and profiles.
  TracedRun a = runTracedEp();
  TracedRun b = runTracedEp();
  EXPECT_FALSE(a.tree.empty());
  EXPECT_EQ(a.tree, b.tree);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.profile, b.profile);
}

TEST(SpansEndToEnd, NetSpansHaveLiveParents) {
  // Every network-layer span must hang off a live causal chain: a TCP
  // segment or packet hop with parent 0 would mean causality got dropped at
  // a layer boundary.
  TracedRun r = runTracedEp();
  const mo::SpanRecorder& rec = r.platform->simulator().spans();
  int checked = 0;
  for (const auto& s : rec.spans()) {
    if (s.component.rfind("net.", 0) != 0) continue;
    EXPECT_NE(s.parent, 0u) << "orphan " << s.component << "." << s.name << " #" << s.id;
    EXPECT_NE(rec.find(s.parent), nullptr) << "dangling parent on #" << s.id;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(SpansEndToEnd, JobSpanTransitivelyParentsEveryLayer) {
  // The headline acceptance criterion: one "core.launcher job" root span
  // transitively parents GRAM requests, the jobmanager, vmpi traffic, TCP
  // segments, per-hop packet forwarding, and scheduler quanta.
  TracedRun r = runTracedEp();
  const mo::SpanRecorder& rec = r.platform->simulator().spans();

  mo::SpanId root = 0;
  for (const auto& s : rec.spans()) {
    if (s.component == "core.launcher" && s.name == "job") {
      EXPECT_EQ(root, 0u) << "more than one job root span";
      root = s.id;
    }
  }
  ASSERT_NE(root, 0u);

  std::map<std::string, int> descendants;  // component -> spans under root
  for (const auto& s : rec.spans()) {
    if (s.id != root && reaches(rec, s.id, root)) ++descendants[s.component];
  }
  for (const char* comp : {"grid.gram", "grid.job", "vmpi.comm", "vmpi.coll", "net.tcp",
                           "net.packet", "vos.sched"}) {
    EXPECT_GT(descendants[comp], 0) << "no " << comp << " span descends from the job root";
  }
}

TEST(SpansEndToEnd, ProfilerAggregatesPerHostPerLayer) {
  TracedRun r = runTracedEp();
  const obs::SimProfiler prof(r.platform->simulator().spans());
  ASSERT_FALSE(prof.buckets().empty());
  bool saw_quantum = false, saw_tcp = false;
  for (const auto& b : prof.buckets()) {
    EXPECT_GT(b.count, 0);
    EXPECT_GE(b.p99_ns, b.p50_ns);
    if (b.span == "vos.sched.quantum") saw_quantum = true;
    if (b.span == "net.tcp.segment") saw_tcp = true;
  }
  EXPECT_TRUE(saw_quantum);
  EXPECT_TRUE(saw_tcp);
  // Both renderings exist and the table carries one row per bucket.
  EXPECT_EQ(prof.table().rowCount(), prof.buckets().size());
}

TEST(SpansEndToEnd, ChromeTraceIsWellFormedJson) {
  // Cheap structural checks (CI runs the real validator, python3 -m
  // json.tool, on an mgrun-produced trace).
  TracedRun r = runTracedEp();
  EXPECT_EQ(r.chrome.rfind("{\"traceEvents\":[", 0), 0u) << r.chrome.substr(0, 80);
  EXPECT_EQ(r.chrome.substr(r.chrome.size() - 4), "\n]}\n");
  EXPECT_NE(r.chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(r.chrome.find("\"name\":\"thread_name\""), std::string::npos);
}

TEST(SpansEndToEnd, EveryCountedPacketDropClosesItsTransitSpan) {
  // Spans are the event record of packet drops; the registry holds the
  // counts. When every packet carries a transit span, the drop reasons on
  // the spans partition the drop counters exactly.
  sim::Simulator sim;
  sim.spans().setEnabled(true);
  net::Topology topo;
  const net::NodeId a = topo.addHost("a");
  const net::NodeId r = topo.addRouter("r");
  const net::NodeId b = topo.addHost("b");
  topo.addLink("lossy", a, r, 10e6, sim::fromSeconds(1e-3), 1 << 20, 0.2);
  const net::LinkId last = topo.addLink("last", r, b, 1e6, sim::fromSeconds(1e-3), 4096);
  net::PacketNetwork net(sim, std::move(topo), {});
  net.attachHost(b, [](net::Packet&&) {});
  for (int i = 0; i < 400; ++i) {
    sim.scheduleAt(i * sim::kMillisecond, [&] {
      net::Packet p;
      p.src = a;
      p.dst = b;
      p.protocol = net::Protocol::Udp;
      p.payload.resize(200);
      p.span = sim.spans().begin("test", "transit");
      net.send(std::move(p));
    });
  }
  // An outage mid-stream: the packet on the wire dies as link_down, the ones
  // queued behind it are purged, later ones find no route.
  sim.scheduleAt(100 * sim::kMillisecond, [&] { net.setLinkUp(last, false); });
  sim.scheduleAt(200 * sim::kMillisecond, [&] { net.setLinkUp(last, true); });
  sim.run();

  std::map<std::string, std::int64_t> reasons;
  for (const auto& s : sim.spans().spans()) {
    if (s.component != "test") continue;
    EXPECT_FALSE(s.open()) << "transit span #" << s.id << " never closed";
    for (const auto& [k, v] : s.attrs) {
      if (k == "dropped") ++reasons[v];
    }
  }
  const auto& m = sim.metrics();
  EXPECT_GT(reasons["loss"], 0);
  EXPECT_GT(reasons["queue"], 0);
  EXPECT_GT(reasons["link_down"], 0);
  EXPECT_GT(reasons["purged"], 0);
  EXPECT_GT(reasons["no_route"], 0);
  EXPECT_EQ(reasons["loss"], m.counterValue("net.packet.dropped_loss"));
  EXPECT_EQ(reasons["queue"], m.counterValue("net.packet.dropped_queue"));
  EXPECT_EQ(reasons["link_down"] + reasons["purged"], m.counterValue("net.packet.drop_link_down"));
  EXPECT_EQ(reasons["link_down"] + reasons["purged"] + reasons["no_route"],
            m.counterValue("net.packet.dropped_down"));
}

TEST(SpansEndToEnd, EpUnderFaultsShowsDropReasonsOnTransitSpans) {
  // NPB EP under a lossy eth1 plus an eth2 outage that covers EP's final
  // reduction (~6.9 s). Data segments carry transit spans; pure ACKs and
  // connection control packets are counted but untraced by design, so the
  // spans are a subset of the counts.
  fault::FaultPlan plan;
  plan.add(mgtest::lossyEth1(0.05, 60.0));
  plan.add(mgtest::simpleEvent(fault::FaultKind::LinkDown, "eth2", 1.0, 7.0));
  const auto run = mgtest::runEpUnderFaults(plan, 42, /*trace=*/true);

  long long loss_spans = 0, outage_spans = 0;
  std::istringstream in(run.trace);
  std::string line;
  while (std::getline(in, line)) {
    const auto fields = mg::util::splitWhitespace(line);
    ASSERT_GE(fields.size(), 3u) << line;
    if (fields[2] != "net.tcp.segment") continue;  // hop children repeat the reason
    for (const auto& f : fields) {
      if (f == "dropped=loss") ++loss_spans;
      if (f == "dropped=link_down" || f == "dropped=no_route") ++outage_spans;
    }
  }
  EXPECT_GT(loss_spans, 0);
  EXPECT_LE(loss_spans, jsonCounter(run.metrics, "net.packet.dropped_loss"));
  EXPECT_GT(outage_spans, 0);
  EXPECT_LE(outage_spans, jsonCounter(run.metrics, "net.packet.dropped_down"));
}

// ------------------------------------------- same-seed golden (faulted EP) --

namespace {

/// The golden workload: NPB EP through the full launcher path on the Alpha
/// cluster with a fault plan (vm3 crashes mid-run and restarts, eth1 runs at
/// 5% loss throughout). Every observable stream is captured; the tests below
/// require two same-seed runs to agree byte for byte.
struct GoldenRun {
  std::string metrics;   // MetricsRegistry::snapshotJson()
  std::string spans;     // SpanRecorder::serializeTree()
  std::string profile;   // SimProfiler::json()
  std::string report;    // fault availability report
  std::string timeline;  // TimeSeriesRecorder::csv() (sampled at 50 ms)
  double virtual_seconds = 0;
  int resubmits = 0;
};

GoldenRun runGoldenEpWithFaults() {
  mgtest::HarnessOptions hopts;
  hopts.spans = true;
  mgtest::LauncherHarness h(hopts);
  sim::Simulator& sim = h.platform.simulator();

  npb::ResultSink sink;
  npb::registerNpb(h.registry, sink);

  fault::FaultPlan plan;
  plan.add(mgtest::crashVm3(1.0, 3.0));
  plan.add(mgtest::lossyEth1(0.05, 60.0));
  fault::FaultInjector& injector = h.armFaults(std::move(plan));

  // Sample the full probe set during the run: the timeline CSV below is one
  // of the streams the same-seed test compares.
  sim.timeline().setBaseWidth(50 * sim::kMillisecond);
  obs::TelemetrySampler::Options sopts;
  sopts.interval_ns = 50 * sim::kMillisecond;
  obs::TelemetrySampler sampler(sim.timeline(), sim::telemetryHost(sim), sopts);
  h.platform.registerTelemetry(sampler);
  sampler.start();

  auto result = h.launcher.run("npb.ep", "S", mgtest::LauncherHarness::fourRanks());
  EXPECT_TRUE(result.ok) << result.error;

  sampler.finish();

  GoldenRun out;
  out.metrics = sim.metrics().snapshotJson();
  out.spans = sim.spans().serializeTree();
  out.profile = obs::SimProfiler(sim.spans()).json();
  out.report = injector.renderReport();
  out.timeline = sim.timeline().csv();
  out.virtual_seconds = result.virtual_seconds;
  out.resubmits = result.resubmits;
  return out;
}

}  // namespace

TEST(FaultedEpGolden, SameSeedRunsAreByteIdenticalInEveryStream) {
  // Same seed => same bytes, under crash + resubmission + stochastic loss:
  // metrics snapshot, span tree, profiler output, the fault availability
  // report, the timeline, and job-level results.
  const GoldenRun first = runGoldenEpWithFaults();
  EXPECT_GT(jsonCounter(first.metrics, "fault.host_crash"), 0);
  EXPECT_GE(first.resubmits, 1);  // the crash really failed the first attempt
  EXPECT_FALSE(first.spans.empty());

  const GoldenRun second = runGoldenEpWithFaults();
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.spans, second.spans);
  EXPECT_EQ(first.profile, second.profile);
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.timeline, second.timeline);
  EXPECT_DOUBLE_EQ(first.virtual_seconds, second.virtual_seconds);
  EXPECT_EQ(first.resubmits, second.resubmits);
}

// The golden timeline really carries the interesting series (not just
// headers): per-link utilization, CPU occupancy, and kernel rates all
// sampled during the faulted EP run.
TEST(FaultedEpGolden, TimelineCoversNetVosAndKernelSeries) {
  const GoldenRun run = runGoldenEpWithFaults();
  EXPECT_EQ(run.timeline.rfind("series,bucket_start_ns,bucket_end_ns,samples,min,max,mean,last",
                               0),
            0u);
  EXPECT_NE(run.timeline.find("net.packet.link_util.eth0,"), std::string::npos);
  EXPECT_NE(run.timeline.find("vos.cpu.util.alpha0,"), std::string::npos);
  EXPECT_NE(run.timeline.find("vos.runq.alpha0,"), std::string::npos);
  EXPECT_NE(run.timeline.find("sim.events_per_s,"), std::string::npos);
  EXPECT_NE(run.timeline.find("sim.pending_events,"), std::string::npos);
}

// ------------------------------------ time-resolved telemetry (DESIGN §9) --

namespace {

mo::TimeSeriesRecorder::Options tinyRecorder(std::size_t capacity, std::int64_t width_ns,
                                             std::size_t max_series = 64) {
  mo::TimeSeriesRecorder::Options o;
  o.capacity = capacity;
  o.base_width_ns = width_ns;
  o.max_series = max_series;
  return o;
}

}  // namespace

TEST(Timeline, BucketsAggregateMinMaxMeanLast) {
  mo::TimeSeriesRecorder rec(tinyRecorder(8, 100));
  rec.add("s", 0, 1.0);
  rec.add("s", 50, 3.0);   // same bucket
  rec.add("s", 120, 2.0);  // next bucket
  const auto* s = rec.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->origin, 0);
  EXPECT_EQ(s->width, 100);
  ASSERT_EQ(s->buckets.size(), 2u);
  EXPECT_EQ(s->buckets[0].count, 2);
  EXPECT_DOUBLE_EQ(s->buckets[0].min, 1.0);
  EXPECT_DOUBLE_EQ(s->buckets[0].max, 3.0);
  EXPECT_DOUBLE_EQ(s->buckets[0].sum, 4.0);
  EXPECT_DOUBLE_EQ(s->buckets[0].last, 3.0);
  EXPECT_EQ(s->buckets[1].count, 1);
  EXPECT_DOUBLE_EQ(s->buckets[1].last, 2.0);
  EXPECT_EQ(rec.sampleCount(), 3);
  EXPECT_EQ(rec.seriesCount(), 1u);
}

TEST(Timeline, OriginAlignsDownToTheWidthGrid) {
  mo::TimeSeriesRecorder rec(tinyRecorder(8, 100));
  rec.add("s", 250, 1.0);  // first sample anchors origin at 200
  const auto* s = rec.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->origin, 200);
  EXPECT_EQ(s->buckets[0].count, 1);
}

TEST(Timeline, WideningDoublesWidthAndMergesPairs) {
  mo::TimeSeriesRecorder rec(tinyRecorder(2, 100));
  rec.add("s", 0, 1.0);
  rec.add("s", 100, 2.0);
  rec.add("s", 200, 3.0);  // index 2 >= capacity 2 -> widen once
  const auto* s = rec.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->width, 200);
  EXPECT_EQ(s->widenings, 1);
  ASSERT_EQ(s->buckets.size(), 2u);
  // Old buckets 0+1 merged into the new [0, 200) window.
  EXPECT_EQ(s->buckets[0].count, 2);
  EXPECT_DOUBLE_EQ(s->buckets[0].min, 1.0);
  EXPECT_DOUBLE_EQ(s->buckets[0].max, 2.0);
  EXPECT_DOUBLE_EQ(s->buckets[0].last, 2.0);
  EXPECT_EQ(s->buckets[1].count, 1);
  EXPECT_DOUBLE_EQ(s->buckets[1].last, 3.0);
}

TEST(Timeline, WideningMatchesAnUnboundedReference) {
  // Oracle check for the downsampling path: after many widenings, every
  // bucket must hold exactly the aggregate an unbounded recorder would
  // compute for the same window at the final resolution.
  mo::TimeSeriesRecorder rec(tinyRecorder(16, 100));
  std::vector<std::pair<std::int64_t, double>> raw;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t t = static_cast<std::int64_t>(i) * 137;
    const double v = static_cast<double>((i * 7919) % 1000) / 10.0;
    rec.add("s", t, v);
    raw.emplace_back(t, v);
  }
  const auto* s = rec.find("s");
  ASSERT_NE(s, nullptr);
  ASSERT_GT(s->widenings, 0);
  ASSERT_LE(s->buckets.size(), 16u);

  std::map<std::int64_t, mo::TimeSeriesRecorder::Bucket> expect;
  for (const auto& [t, v] : raw) {
    const std::int64_t idx = (t - s->origin) / s->width;
    auto& b = expect[idx];
    if (b.count == 0) {
      b.min = b.max = b.sum = v;
    } else {
      b.min = std::min(b.min, v);
      b.max = std::max(b.max, v);
      b.sum += v;
    }
    ++b.count;
    b.last = v;
  }
  for (std::size_t i = 0; i < s->buckets.size(); ++i) {
    const auto& got = s->buckets[i];
    const auto it = expect.find(static_cast<std::int64_t>(i));
    if (it == expect.end()) {
      EXPECT_EQ(got.count, 0) << "bucket " << i;
      continue;
    }
    EXPECT_EQ(got.count, it->second.count) << "bucket " << i;
    EXPECT_DOUBLE_EQ(got.min, it->second.min) << "bucket " << i;
    EXPECT_DOUBLE_EQ(got.max, it->second.max) << "bucket " << i;
    EXPECT_DOUBLE_EQ(got.sum, it->second.sum) << "bucket " << i;
    EXPECT_DOUBLE_EQ(got.last, it->second.last) << "bucket " << i;
  }
}

TEST(Timeline, MaxSeriesCapDropsNewSeriesNotSamples) {
  mo::TimeSeriesRecorder rec(tinyRecorder(8, 100, /*max_series=*/2));
  rec.add("a", 0, 1.0);
  rec.add("b", 0, 1.0);
  rec.add("c", 0, 1.0);  // dropped: cap reached
  rec.add("a", 50, 2.0); // existing series still records
  EXPECT_EQ(rec.seriesCount(), 2u);
  EXPECT_EQ(rec.droppedSeries(), 1);
  EXPECT_EQ(rec.sampleCount(), 3);
  EXPECT_EQ(rec.find("c"), nullptr);
}

TEST(Timeline, CsvAndJsonAreByteStable) {
  mo::TimeSeriesRecorder rec(tinyRecorder(8, 100));
  rec.add("z.late", 0, 1.5);
  rec.add("a.early", 250, 0.25);
  rec.add("a.early", 260, 0.75);
  const std::string csv =
      "series,bucket_start_ns,bucket_end_ns,samples,min,max,mean,last\n"
      "a.early,200,300,2,0.25,0.75,0.5,0.75\n"
      "z.late,0,100,1,1.5,1.5,1.5,1.5\n";
  EXPECT_EQ(rec.csv(), csv);
  EXPECT_EQ(rec.csv(), csv);
  const std::string json =
      "{\"series\":["
      "{\"name\":\"a.early\",\"origin_ns\":200,\"width_ns\":100,\"widenings\":0,"
      "\"buckets\":[[200,2,0.25,0.75,0.5,0.75]]},"
      "{\"name\":\"z.late\",\"origin_ns\":0,\"width_ns\":100,\"widenings\":0,"
      "\"buckets\":[[0,1,1.5,1.5,1.5,1.5]]}"
      "]}";
  EXPECT_EQ(rec.json(), json);
}

namespace {

/// A hand-written inspect() subject: one total "r" and one level "l", plus a
/// field the sampler must ignore.
struct Gauges {
  double cum = 0;
  double level = 0;
  void inspect(mo::Inspector& in) const {
    in.total("r", cum);
    in.level("l", level);
    in.u64("ignored", 1);
  }
};

}  // namespace

TEST(Sampler, LevelsAndRatesOverSimulatorTicks) {
  sim::Simulator sim;
  sim.timeline().setBaseWidth(sim::kSecond);
  mo::TelemetrySampler::Options so;
  so.interval_ns = sim::kSecond;
  mo::TelemetrySampler sampler(sim.timeline(), sim::telemetryHost(sim), so);

  Gauges g;
  sampler.watch(g);
  sim.scheduleAt(sim::fromSeconds(0.25), [&] { g.cum += 2.0; g.level = 7; });
  sim.scheduleAt(sim::fromSeconds(1.5), [&] { g.cum += 3.0; g.level = 9; });
  sim.scheduleAt(sim::fromSeconds(3.0), [] {});

  sampler.start();
  sim.run();
  sampler.finish();

  // Ticks at 0/1/2/3 s; the sampler must not keep the run alive past the
  // last real event.
  EXPECT_EQ(sim.now(), sim::fromSeconds(3.0));
  EXPECT_EQ(sampler.ticks(), 4);
  EXPECT_EQ(sim.timeline().seriesCount(), 2u);  // fields are not series

  const auto* r = sim.timeline().find("r");
  ASSERT_NE(r, nullptr);
  // The t=0 baseline only primes the total, so the first rate sample —
  // and the series origin — land at the 1 s tick.
  EXPECT_EQ(r->origin, sim::kSecond);
  ASSERT_EQ(r->buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(r->buckets[0].last, 2.0);  // (2-0)/1s over [0,1]
  EXPECT_DOUBLE_EQ(r->buckets[1].last, 3.0);  // (5-2)/1s over [1,2]
  EXPECT_DOUBLE_EQ(r->buckets[2].last, 0.0);  // idle tail

  const auto* l = sim.timeline().find("l");
  ASSERT_NE(l, nullptr);
  ASSERT_EQ(l->buckets.size(), 4u);
  EXPECT_DOUBLE_EQ(l->buckets[0].last, 0.0);
  EXPECT_DOUBLE_EQ(l->buckets[1].last, 7.0);
  EXPECT_DOUBLE_EQ(l->buckets[2].last, 9.0);
  EXPECT_DOUBLE_EQ(l->buckets[3].last, 9.0);
}

TEST(Sampler, CounterRateAndKernelProbes) {
  sim::Simulator sim;
  sim.timeline().setBaseWidth(100 * sim::kMillisecond);
  mo::TelemetrySampler::Options so;
  so.interval_ns = 100 * sim::kMillisecond;
  mo::TelemetrySampler sampler(sim.timeline(), sim::telemetryHost(sim), so);
  sampler.watch(sim);  // the kernel's own inspect(): sim.* series

  for (int i = 1; i <= 20; ++i) {
    sim.scheduleAt(i * 25 * sim::kMillisecond, [] {});
  }
  sampler.start();
  sim.run();
  sampler.finish();

  const auto* ev = sim.timeline().find("sim.events_per_s");
  ASSERT_NE(ev, nullptr);
  double max_rate = 0;
  for (const auto& b : ev->buckets) max_rate = std::max(max_rate, b.max);
  EXPECT_GT(max_rate, 0.0);  // events really flowed through the total
  EXPECT_NE(sim.timeline().find("sim.pending_events"), nullptr);
  EXPECT_NE(sim.timeline().find("sim.arena_slots"), nullptr);
}

TEST(Sampler, ProbesAfterStartThrowAndFinishIsIdempotent) {
  sim::Simulator sim;
  mo::TelemetrySampler sampler(sim.timeline(), sim::telemetryHost(sim));
  Gauges g;
  g.level = 1;
  sampler.watch(g);
  sampler.start();
  EXPECT_THROW(sampler.watch(g), mg::UsageError);
  EXPECT_THROW(sampler.start(), mg::UsageError);
  sampler.finish();
  sampler.finish();  // same-timestamp collect is skipped, not double-counted
  EXPECT_EQ(sim.timeline().sampleCount(), 1);  // the level's baseline only
}

TEST(Sampler, KeepsTheFirstMaxSeriesOfTheWalk) {
  // Totals record nothing at the baseline tick, so a recorder-side cap alone
  // would let a later level claim a slot at t0; the sampler's cap counts the
  // walk's series in order instead.
  struct Walk {
    void inspect(mo::Inspector& in) const {
      in.total("a", 1.0 * sim::toSeconds(in.now()));
      in.total("b", 2.0 * sim::toSeconds(in.now()));
      in.level("c", 3.0);
    }
  };
  sim::Simulator sim;
  mo::TimeSeriesRecorder rec(tinyRecorder(16, sim::kSecond, /*max_series=*/2));
  mo::TelemetrySampler::Options so;
  so.interval_ns = sim::kSecond;
  mo::TelemetrySampler sampler(rec, sim::telemetryHost(sim), so);
  Walk walk;
  sampler.watch(walk);
  sim.scheduleAt(sim::fromSeconds(2.0), [] {});
  sampler.start();
  sim.run();
  sampler.finish();
  EXPECT_EQ(rec.seriesCount(), 2u);
  ASSERT_NE(rec.find("a"), nullptr);
  ASSERT_NE(rec.find("b"), nullptr);
  EXPECT_EQ(rec.find("c"), nullptr);
  EXPECT_DOUBLE_EQ(rec.find("b")->buckets.back().last, 2.0);  // a rate, not the total
  EXPECT_EQ(rec.droppedSeries(), 0);
}

TEST(Inspector, StateWriterFoldsSeriesAndFields) {
  auto digestOf = [](const Gauges& g, std::int64_t now) {
    mo::StateWriter w(now);
    g.inspect(w);
    return w.digest();
  };
  Gauges g;
  const std::uint64_t base = digestOf(g, 0);
  EXPECT_EQ(digestOf(g, 0), base);  // deterministic
  Gauges moved = g;
  moved.level = 1;  // a level is folded
  EXPECT_NE(digestOf(moved, 0), base);
  moved = g;
  moved.cum = 1;  // so is a total
  EXPECT_NE(digestOf(moved, 0), base);

  // Keys are folded with a separator: ("ab","c") differs from ("a","bc").
  mo::StateWriter x(0), y(0);
  x.str("ab", "c");
  y.str("a", "bc");
  EXPECT_NE(x.digest(), y.digest());
  // A prefix + suffix name folds exactly like the joined name.
  mo::StateWriter joined(0), split(0);
  joined.level("net.link_util.eth0", 0.5);
  split.level("net.link_util.", "eth0", 0.5);
  EXPECT_EQ(joined.digest(), split.digest());
}

namespace {

/// Sorted series names of an EP run on the Alpha cluster under `kind`,
/// sampled at 50 ms.
std::vector<std::string> alphaSeries(net::NetModelKind kind,
                                     std::vector<std::string> detail = {}) {
  mgtest::HarnessOptions hopts;
  hopts.platform.netmodel = kind;
  hopts.platform.netmodel_detail = std::move(detail);
  mgtest::LauncherHarness h(hopts);
  sim::Simulator& sim = h.platform.simulator();
  npb::ResultSink sink;
  npb::registerNpb(h.registry, sink);
  sim.timeline().setBaseWidth(50 * sim::kMillisecond);
  obs::TelemetrySampler::Options sopts;
  sopts.interval_ns = 50 * sim::kMillisecond;
  obs::TelemetrySampler sampler(sim.timeline(), sim::telemetryHost(sim), sopts);
  h.platform.registerTelemetry(sampler);
  sampler.start();
  const auto result = h.launcher.run("npb.ep", "S", mgtest::LauncherHarness::fourRanks());
  EXPECT_TRUE(result.ok) << result.error;
  sampler.finish();
  std::vector<std::string> names;
  for (const auto* s : sim.timeline().seriesSorted()) names.push_back(s->name);
  return names;
}

}  // namespace

// Each network model's inspect() walk yields a fixed series set; hybrid
// carries both halves (net.packet.* for escalated traffic, net.flow.* for
// the fluid rest).
TEST(SamplerSeries, AlphaClusterSeriesPerNetworkModel) {
  const std::vector<std::string> common = {
      "grid.batch.depth", "sim.arena_slots", "sim.events_per_s", "sim.pending_events",
      "vos.cpu.util.alpha0", "vos.cpu.util.alpha1", "vos.cpu.util.alpha2",
      "vos.cpu.util.alpha3", "vos.runq.alpha0", "vos.runq.alpha1", "vos.runq.alpha2",
      "vos.runq.alpha3"};
  auto with = [&common](std::vector<std::string> net) {
    net.insert(net.end(), common.begin(), common.end());
    std::sort(net.begin(), net.end());
    return net;
  };
  const std::vector<std::string> packet = {
      "net.packet.delivered_per_s", "net.packet.link_util.eth0", "net.packet.link_util.eth1",
      "net.packet.link_util.eth2", "net.packet.link_util.eth3", "net.packet.wire_bytes_per_s"};
  const std::vector<std::string> flow = {
      "net.flow.active", "net.flow.bytes_per_s", "net.flow.completed_per_s",
      "net.flow.link_util.eth0", "net.flow.link_util.eth1", "net.flow.link_util.eth2",
      "net.flow.link_util.eth3"};
  std::vector<std::string> hybrid = packet;
  hybrid.insert(hybrid.end(), flow.begin(), flow.end());

  EXPECT_EQ(alphaSeries(net::NetModelKind::Packet), with(packet));
  EXPECT_EQ(alphaSeries(net::NetModelKind::Flow), with(flow));
  EXPECT_EQ(alphaSeries(net::NetModelKind::Hybrid, {"host:vm0*"}), with(hybrid));
}

TEST(TraceExport, TimelineSeriesBecomeCounterTracks) {
  mo::SpanRecorder spans;
  std::int64_t now = 0;
  spans.setTimeSource([&now] { return now; });
  spans.setEnabled(true);
  const auto id = spans.begin("layer", "op", "track");
  now = 1000;
  spans.end(id);

  mo::TimeSeriesRecorder rec(tinyRecorder(8, 1000));
  rec.add("net.link_util.eth0", 0, 0.5);
  rec.add("net.link_util.eth0", 1500, 0.75);

  const std::string with = mo::chromeTraceJson(spans, &rec);
  EXPECT_NE(with.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(with.find("\"name\":\"net.link_util.eth0\""), std::string::npos);
  EXPECT_NE(with.find("\"args\":{\"value\":0.5}"), std::string::npos);
  EXPECT_NE(with.find("\"args\":{\"value\":0.75}"), std::string::npos);
  // Without a timeline the export is unchanged legacy output.
  EXPECT_EQ(mo::chromeTraceJson(spans).find("\"ph\":\"C\""), std::string::npos);
}

// ------------------------------------------------- live progress monitor --

TEST(Progress, PulseTracksClockPendingAndCommits) {
  mo::RunPulse pulse;
  EXPECT_FALSE(pulse.enabled());
  pulse.enable(true);
  pulse.beat(1000, 5);
  pulse.beat(2000, 0);
  pulse.beat(3000, 7);
  EXPECT_EQ(pulse.commits(), 3u);
  EXPECT_EQ(pulse.simNow(), 3000);
  EXPECT_EQ(pulse.pending(), 7);
}

TEST(Progress, MonitorHeartbeatsToSinkAndCountsThem) {
  mo::RunPulse pulse;
  pulse.enable(true);
  pulse.beat(2'500'000'000, 3);

  std::ostringstream sink;
  mo::ProgressOptions popts;
  popts.interval_s = 0.02;
  popts.stall_s = 3600;  // watchdog out of the way
  popts.sink = &sink;
  popts.label = "t-progress";
  popts.fraction = [] { return 0.5; };
  mo::ProgressMonitor monitor(pulse, popts);
  monitor.start();
  for (int i = 0; i < 100 && monitor.heartbeats() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  monitor.stop();

  EXPECT_GE(monitor.heartbeats(), 2);
  const std::string out = sink.str();
  EXPECT_NE(out.find("t-progress: sim 2.500s"), std::string::npos) << out;
  EXPECT_NE(out.find("pending 3"), std::string::npos) << out;
  EXPECT_NE(out.find("eta"), std::string::npos) << out;
}

TEST(Progress, StallWatchdogDumpsKernelStateOnce) {
  mo::RunPulse pulse;
  pulse.enable(true);
  pulse.beat(1'000'000'000, 4);
  pulse.beat(2'000'000'000, 6);

  std::ostringstream sink;
  mo::ProgressOptions popts;
  popts.interval_s = 0.01;
  popts.stall_s = 0.03;  // no commits will arrive: stall fires fast
  popts.sink = &sink;
  mo::ProgressMonitor monitor(pulse, popts);
  monitor.start();
  for (int i = 0; i < 100 && monitor.stallDumps() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  monitor.stop();

  EXPECT_GE(monitor.stallDumps(), 1);
  // One dump per quiet episode, not one per poll while quiet.
  EXPECT_LE(monitor.stallDumps(), 1 + 1);
  const std::string out = sink.str();
  EXPECT_NE(out.find("STALL"), std::string::npos) << out;
  EXPECT_NE(out.find("t=2.000000s pending=6 commits=2"), std::string::npos) << out;
}
