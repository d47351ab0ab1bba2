// Tests for the grid-economy subsystem: workload synthesis, batch-queue
// policies, broker placement, and the end-to-end event-driven economy.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/microgrid_platform.h"
#include "econ/batch_queue.h"
#include "econ/broker.h"
#include "econ/economy.h"
#include "econ/grid_gen.h"
#include "econ/workload.h"
#include "gis/directory.h"
#include "obs/sampler.h"
#include "sim/telemetry.h"
#include "util/config.h"

#include "test_scenarios.h"

using namespace mg;

// --------------------------------------------------------------- workload --

TEST(Workload, DeterministicForSameSeed) {
  econ::WorkloadSpec spec;
  spec.jobs = 500;
  econ::WorkloadGenerator a(spec, 4), b(spec, 4);
  econ::Job ja, jb;
  while (a.next(ja)) {
    ASSERT_TRUE(b.next(jb));
    EXPECT_EQ(ja.id, jb.id);
    EXPECT_EQ(ja.user, jb.user);
    EXPECT_EQ(ja.submit_s, jb.submit_s);
    EXPECT_EQ(ja.runtime_s, jb.runtime_s);
    EXPECT_EQ(ja.cpus, jb.cpus);
    EXPECT_EQ(ja.deadline_s, jb.deadline_s);
    EXPECT_EQ(ja.budget, jb.budget);
    EXPECT_EQ(ja.input_bytes, jb.input_bytes);
  }
  EXPECT_FALSE(b.next(jb));
}

TEST(Workload, ArrivalsMonotoneAndAttributesSane) {
  econ::WorkloadSpec spec;
  spec.jobs = 2000;
  spec.max_cpus = 16;
  econ::WorkloadGenerator gen(spec, 4);
  econ::Job j;
  double last = 0;
  std::set<std::uint32_t> users;
  while (gen.next(j)) {
    EXPECT_GT(j.submit_s, last);  // strictly increasing arrival clock
    last = j.submit_s;
    EXPECT_GE(j.cpus, 1);
    EXPECT_LE(j.cpus, spec.max_cpus);
    EXPECT_EQ(j.cpus & (j.cpus - 1), 0);  // power of two
    EXPECT_GE(j.runtime_s, 1.0);
    EXPECT_GE(j.est_runtime_s, j.runtime_s);  // user estimates overestimate
    EXPECT_GT(j.deadline_s, j.submit_s);
    EXPECT_GT(j.budget, 0.0);
    if (j.input_bytes > 0) {
      EXPECT_GE(j.data_site, 0);
      EXPECT_LT(j.data_site, 4);
    }
    users.insert(j.user);
  }
  EXPECT_GT(users.size(), 100u);  // many distinct submitting users
}

TEST(Workload, SpecFromConfigAndValidation) {
  const util::Config cfg = util::Config::parse(
      "[workload]\n"
      "jobs = 77\n"
      "seed = 9\n"
      "arrival = pareto\n"
      "rate = 3.5\n"
      "max_cpus = 8\n");
  const econ::WorkloadSpec spec = econ::WorkloadSpec::fromConfig(cfg);
  EXPECT_EQ(spec.jobs, 77);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.arrival, econ::ArrivalProcess::Pareto);
  EXPECT_EQ(spec.rate, 3.5);
  EXPECT_EQ(spec.max_cpus, 8);

  econ::WorkloadSpec bad;
  bad.pareto_alpha = 0.9;  // infinite-mean interarrivals
  EXPECT_THROW(bad.validate(), mg::ConfigError);
}

// ------------------------------------------------------------ batch queue --

namespace {

econ::QueuedJob qj(std::int64_t id, int cpus, double est, double submit = 0) {
  return econ::QueuedJob{id, cpus, est, submit};
}

std::vector<std::int64_t> ids(const std::vector<econ::StartedJob>& started) {
  std::vector<std::int64_t> out;
  for (const auto& s : started) out.push_back(s.job.id);
  return out;
}

}  // namespace

TEST(BatchQueue, FcfsBlocksBehindWideHead) {
  econ::BatchQueue::Options opt;
  opt.slots = 4;
  opt.policy = econ::QueuePolicy::Fcfs;
  econ::BatchQueue q(opt);
  q.submit(qj(1, 2, 10), 0);
  EXPECT_EQ(ids(q.dispatch(0)), (std::vector<std::int64_t>{1}));
  q.submit(qj(2, 4, 10), 0);  // cannot fit while 1 runs
  q.submit(qj(3, 1, 1), 0);   // could fit, but FCFS never jumps
  EXPECT_TRUE(q.dispatch(0).empty());
  EXPECT_EQ(q.depth(), 2);
  EXPECT_TRUE(q.finish(1));
  EXPECT_FALSE(q.finish(1));  // already released
  EXPECT_EQ(ids(q.dispatch(10)), (std::vector<std::int64_t>{2}));
}

TEST(BatchQueue, EasyBackfillRespectsShadowReservation) {
  econ::BatchQueue::Options opt;
  opt.slots = 4;
  opt.policy = econ::QueuePolicy::EasyBackfill;
  econ::BatchQueue q(opt);
  q.submit(qj(1, 2, 10), 0);  // runs, ends at t=10 by its estimate
  ASSERT_EQ(ids(q.dispatch(0)), (std::vector<std::int64_t>{1}));
  q.submit(qj(2, 4, 10), 0);  // head: needs all 4 slots, shadow time t=10
  q.submit(qj(3, 2, 5), 0);   // fits now, ends t=5 <= shadow: backfills
  q.submit(qj(4, 2, 20), 0);  // would end t=20 > shadow and no extra: waits
  const auto started = q.dispatch(0);
  ASSERT_EQ(ids(started), (std::vector<std::int64_t>{3}));
  EXPECT_TRUE(started[0].backfilled);
  // Head starts only once both running jobs have released their cores.
  EXPECT_TRUE(q.finish(1));
  EXPECT_TRUE(q.dispatch(10).empty());
  EXPECT_TRUE(q.finish(3));
  EXPECT_EQ(ids(q.dispatch(10)), (std::vector<std::int64_t>{2}));
  EXPECT_TRUE(q.finish(2));
  EXPECT_EQ(ids(q.dispatch(20)), (std::vector<std::int64_t>{4}));
}

TEST(BatchQueue, CancelRemovesQueuedButNotRunning) {
  econ::BatchQueue q({});
  q.submit(qj(1, 8, 10), 0);
  q.dispatch(0);
  q.submit(qj(2, 1, 1), 0);
  EXPECT_TRUE(q.cancel(2));
  EXPECT_FALSE(q.cancel(2));  // gone
  EXPECT_FALSE(q.cancel(1));  // running jobs are not cancellable here
  EXPECT_EQ(q.depth(), 0);
}

TEST(BatchQueue, TimeSharedAdmitsOversubscribed) {
  econ::BatchQueue::Options opt;
  opt.slots = 2;
  opt.policy = econ::QueuePolicy::TimeShared;
  opt.oversubscribe = 2;
  econ::BatchQueue q(opt);
  EXPECT_EQ(q.maxWidth(), 4);
  q.submit(qj(1, 2, 10), 0);
  q.submit(qj(2, 2, 10), 0);  // 4 cores on 2 slots: admitted (stretched)
  q.submit(qj(3, 1, 10), 0);  // past the admission cap: queues
  EXPECT_EQ(ids(q.dispatch(0)), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(q.depth(), 1);
  EXPECT_TRUE(q.finish(1));
  EXPECT_EQ(ids(q.dispatch(5)), (std::vector<std::int64_t>{3}));
}

TEST(BatchQueue, PolicyNamesParse) {
  EXPECT_EQ(econ::parseQueuePolicy("fcfs"), econ::QueuePolicy::Fcfs);
  EXPECT_EQ(econ::parseQueuePolicy("easy"), econ::QueuePolicy::EasyBackfill);
  EXPECT_EQ(econ::parseQueuePolicy("timeshared"), econ::QueuePolicy::TimeShared);
  EXPECT_THROW(econ::parseQueuePolicy("sjf"), mg::ConfigError);
}

// ----------------------------------------------------------------- broker --

namespace {

econ::ClusterView view(const std::string& name, int site, double price, double core_ops) {
  econ::ClusterView v;
  v.name = name;
  v.head_host = name + "-head";
  v.site = site;
  v.slots = 64;
  v.free_slots = 64;
  v.price_per_cpu_s = price;
  v.core_ops = core_ops;
  return v;
}

econ::Job brokeredJob() {
  econ::Job j;
  j.id = 1;
  j.cpus = 1;
  j.runtime_s = 100;  // at the 1e9 reference core
  j.est_runtime_s = 100;
  j.budget = 1e9;
  j.deadline_s = 1e9;
  return j;
}

}  // namespace

TEST(Broker, PoliciesPickDifferentClusters) {
  econ::Broker::Options opt;
  econ::Job job = brokeredJob();
  job.input_bytes = 1 << 20;
  job.data_site = 0;

  // "cheap" is slow but inexpensive; "fast" is 4x quicker at 10x the price.
  for (auto [policy, expect] :
       {std::pair{econ::BrokerPolicy::Cost, "cheap"},
        std::pair{econ::BrokerPolicy::Deadline, "fast"},
        std::pair{econ::BrokerPolicy::Locality, "cheap"}}) {
    opt.policy = policy;
    econ::Broker broker(opt);
    broker.updateView({view("cheap", 0, 0.1, 1e9), view("fast", 1, 1.0, 4e9)});
    const econ::Placement p = broker.place(job, 0);
    ASSERT_TRUE(p.placed) << econ::brokerPolicyName(policy);
    EXPECT_EQ(p.cluster, expect) << econ::brokerPolicyName(policy);
  }
}

TEST(Broker, BudgetInfeasibleJobsRejected) {
  econ::Broker broker({});
  broker.updateView({view("a", 0, 1.0, 1e9)});
  econ::Job job = brokeredJob();
  job.budget = 50;  // cheapest run costs 100
  const econ::Placement p = broker.place(job, 0);
  EXPECT_FALSE(p.placed);
  EXPECT_STREQ(p.reject_reason, "budget");

  econ::Job wide = brokeredJob();
  wide.cpus = 128;  // wider than any cluster
  const econ::Placement q = broker.place(wide, 0);
  EXPECT_FALSE(q.placed);
  EXPECT_STREQ(q.reject_reason, "no_fit");
}

TEST(Broker, GisRecordRoundTripAndTtlExpiry) {
  const gis::Dn base = gis::Dn::parse("ou=MicroGrid, o=Grid");
  gis::Directory dir;
  econ::ClusterView a = view("alpha", 2, 0.25, 2e9);
  a.free_slots = 17;
  a.queue_depth = 3;
  a.backlog_s = 12.5;
  dir.upsert(econ::makeQueueRecord(base, a));
  gis::Record dying = econ::makeQueueRecord(base, view("beta", 0, 1.0, 1e9));
  dying.set(gis::kAttrExpires, "5.0");
  dir.upsert(std::move(dying));

  econ::Broker broker({});
  broker.refreshFromGis(dir, base, 1.0);  // both records young
  ASSERT_EQ(broker.views().size(), 2u);
  const econ::ClusterView& round = broker.views().at("alpha");
  EXPECT_EQ(round.site, 2);
  EXPECT_EQ(round.slots, 64);
  EXPECT_EQ(round.free_slots, 17);
  EXPECT_EQ(round.queue_depth, 3);
  EXPECT_EQ(round.backlog_s, 12.5);
  EXPECT_EQ(round.price_per_cpu_s, 0.25);
  EXPECT_EQ(round.core_ops, 2e9);

  broker.refreshFromGis(dir, base, 6.0);  // beta's TTL has passed
  EXPECT_EQ(broker.views().size(), 1u);
  EXPECT_EQ(broker.views().count("beta"), 0u);
}

TEST(Broker, NoteScheduledDebitsTheCachedView) {
  econ::Broker broker({});
  broker.updateView({view("a", 0, 1.0, 1e9)});
  broker.noteScheduled("a", 10, 640);
  EXPECT_EQ(broker.views().at("a").free_slots, 54);
  EXPECT_GT(broker.views().at("a").backlog_s, 0);
  broker.noteDown("a");
  EXPECT_FALSE(broker.views().at("a").alive);
  EXPECT_FALSE(broker.place(brokeredJob(), 0).placed);  // dead views never place
}

// ------------------------------------------------------------- end-to-end --
// The small-economy fixture lives in test_scenarios.h, shared with the
// model-checking and determinism suites.

using mgtest::runEconomy;
using mgtest::smallGrid;
using mgtest::smallWorkload;

TEST(Economy, SmallRunCompletesEveryJobDeterministically) {
  const econ::EconReport a = runEconomy(smallGrid(), smallWorkload(400),
                                        econ::BrokerPolicy::Deadline);
  EXPECT_EQ(a.submitted, 400);
  EXPECT_EQ(a.completed + a.failed + a.rejected_budget + a.rejected_unplaceable, a.submitted);
  EXPECT_GT(a.completed, 0);
  EXPECT_GT(a.makespan_s, 0);
  EXPECT_GE(a.slowdown_p99, a.slowdown_p50);
  EXPECT_GT(a.fairness, 0);
  EXPECT_LE(a.fairness, 1.0 + 1e-9);
  EXPECT_LE(a.budget_spent, a.budget_offered);

  // Byte-identical rerun: same spec, fresh platform, identical report text.
  const econ::EconReport b = runEconomy(smallGrid(), smallWorkload(400),
                                        econ::BrokerPolicy::Deadline);
  EXPECT_EQ(a.render(), b.render());
}

TEST(Economy, TimeSharedClustersStretchButComplete) {
  econ::EconGridSpec g = smallGrid();
  g.timeshared_every = 1;  // every cluster processor-shares
  const econ::EconReport r = runEconomy(g, smallWorkload(200), econ::BrokerPolicy::Deadline);
  EXPECT_EQ(r.completed + r.failed + r.rejected_budget + r.rejected_unplaceable, r.submitted);
  EXPECT_GT(r.completed, 0);
}

TEST(Economy, PolicyChoiceMovesTheDeadlineMissRate) {
  // Load the grid enough that herding onto the cheap cluster hurts.
  econ::WorkloadSpec w = smallWorkload(600);
  w.rate = 0.5;
  const econ::EconReport cost = runEconomy(smallGrid(), w, econ::BrokerPolicy::Cost);
  const econ::EconReport deadline = runEconomy(smallGrid(), w, econ::BrokerPolicy::Deadline);
  EXPECT_EQ(cost.submitted, deadline.submitted);
  // Cost minimization spends less and misses more; deadline the reverse.
  EXPECT_LT(cost.budget_spent, deadline.budget_spent);
  EXPECT_GT(cost.deadline_misses, deadline.deadline_misses);
}

TEST(Economy, ClusterCrashResubmitsInFlightJobs) {
  const econ::EconReport r = runEconomy(smallGrid(), smallWorkload(400),
                                        econ::BrokerPolicy::Deadline,
                                        /*crash_at=*/120, /*restart_at=*/400);
  // Nothing is lost: every submitted job is accounted for, and the crash
  // forced at least one broker-level resubmission.
  EXPECT_EQ(r.completed + r.failed + r.rejected_budget + r.rejected_unplaceable, r.submitted);
  EXPECT_GT(r.resubmits, 0);
}

namespace {

/// A small economy sampled at 10 s; returns the timeline CSV.
std::string sampledEconomyCsv() {
  const econ::EconGrid grid = econ::makeEconGrid(smallGrid());
  core::MicroGridOptions mopts;
  mopts.netmodel = net::NetModelKind::Flow;
  mopts.rate_override = 1.0;
  core::MicroGridPlatform platform(grid.grid, mopts);
  econ::EconOptions eopts;
  eopts.workload = smallWorkload(200);
  econ::GridEconomy economy(platform, grid, eopts);
  economy.arm();
  sim::Simulator& sim = platform.simulator();
  sim.timeline().setBaseWidth(sim::fromSeconds(10));
  obs::TelemetrySampler::Options sopts;
  sopts.interval_ns = sim::fromSeconds(10);
  obs::TelemetrySampler sampler(sim.timeline(), sim::telemetryHost(sim), sopts);
  platform.registerTelemetry(sampler);
  sampler.watch(economy);
  sampler.start();
  platform.run();
  sampler.finish();

  const obs::TimeSeriesRecorder& tl = sim.timeline();
  for (const char* name : {"econ.active_jobs", "econ.queue.depth.c0",
                           "econ.broker.view_backlog_s.c0"}) {
    const auto* s = tl.find(name);
    EXPECT_NE(s, nullptr) << name;
    if (s == nullptr) continue;
    double peak = 0;
    for (const auto& b : s->buckets) peak = std::max(peak, b.max);
    EXPECT_GT(peak, 0.0) << name << " never moved";
  }
  return tl.csv();
}

}  // namespace

TEST(Economy, SampledSeriesAreByteIdenticalAcrossSameSeedRuns) {
  const std::string a = sampledEconomyCsv();
  EXPECT_NE(a.find("\necon.submitted_per_s,"), std::string::npos);
  EXPECT_EQ(a, sampledEconomyCsv());
}

TEST(Economy, GridGeneratorShapesAndPolicyParse) {
  const econ::EconGrid grid = econ::makeEconGrid(smallGrid());
  ASSERT_EQ(grid.clusters.size(), 2u);
  EXPECT_EQ(grid.clusters[0].slots, 8);
  EXPECT_LT(grid.clusters[0].core_ops, grid.clusters[1].core_ops);  // speed tiers
  EXPECT_LT(grid.clusters[0].price_per_cpu_s, grid.clusters[1].price_per_cpu_s);
  // Per-unit-of-work cost must *rise* with speed or Cost vs Deadline collapse.
  EXPECT_LT(grid.clusters[0].price_per_cpu_s / (grid.clusters[0].core_ops / 1e9),
            grid.clusters[1].price_per_cpu_s / (grid.clusters[1].core_ops / 1e9));

  EXPECT_EQ(econ::parseBrokerPolicy("cost"), econ::BrokerPolicy::Cost);
  EXPECT_EQ(econ::parseBrokerPolicy("deadline"), econ::BrokerPolicy::Deadline);
  EXPECT_EQ(econ::parseBrokerPolicy("locality"), econ::BrokerPolicy::Locality);
  EXPECT_THROW(econ::parseBrokerPolicy("vibes"), mg::ConfigError);
}
