// Tests for the grid-economy subsystem: workload synthesis, batch-queue
// policies, broker placement, and the end-to-end event-driven economy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <random>
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

namespace {

/// Brute-force reference for BatchQueue: the same three policies written
/// the slow, obvious way. EASY's shadow walk re-sorts every running job by
/// (expected end, id) on each dispatch, where BatchQueue keeps them ordered.
class RefQueue {
 public:
  explicit RefQueue(const econ::BatchQueue::Options& opt) : opt_(opt) {}

  void submit(const econ::QueuedJob& job) { queue_.push_back(job); }
  bool cancel(std::int64_t id) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id != id) continue;
      queue_.erase(it);
      return true;
    }
    return false;
  }
  bool finish(std::int64_t id) {
    auto it = running_.find(id);
    if (it == running_.end()) return false;
    used_ -= it->second.cpus;
    running_.erase(it);
    return true;
  }
  std::vector<econ::StartedJob> dispatch(double now) {
    std::vector<econ::StartedJob> started;
    const int cap = opt_.policy == econ::QueuePolicy::TimeShared ? opt_.slots * opt_.oversubscribe
                                                                 : opt_.slots;
    while (!queue_.empty() && used_ + queue_.front().cpus <= cap) {
      start(queue_.front(), now);
      started.push_back({queue_.front(), false});
      queue_.erase(queue_.begin());
    }
    if (queue_.empty() || opt_.policy != econ::QueuePolicy::EasyBackfill) return started;

    struct End {
      double end_s;
      std::int64_t id;
      int cpus;
    };
    std::vector<End> by_end;
    for (const auto& [id, r] : running_) by_end.push_back({r.end_s, id, r.cpus});
    std::sort(by_end.begin(), by_end.end(), [](const End& a, const End& b) {
      return a.end_s != b.end_s ? a.end_s < b.end_s : a.id < b.id;
    });
    const econ::QueuedJob head = queue_.front();
    double shadow = now;
    int avail = opt_.slots - used_;
    for (std::size_t i = 0; i < by_end.size() && avail < head.cpus; ++i) {
      avail += by_end[i].cpus;
      shadow = by_end[i].end_s;
    }
    const int extra = std::max(0, avail - head.cpus);
    int scanned = 0;
    for (std::size_t i = 1;
         i < queue_.size() && scanned < opt_.backfill_window && used_ < opt_.slots;) {
      ++scanned;
      const econ::QueuedJob cand = queue_[i];
      if (cand.cpus <= opt_.slots - used_ &&
          (now + cand.est_runtime_s <= shadow || cand.cpus <= extra)) {
        start(cand, now);
        started.push_back({cand, true});
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    return started;
  }

  std::vector<std::int64_t> runningIds() const {
    std::vector<std::int64_t> out;
    for (const auto& [id, r] : running_) out.push_back(id);
    return out;
  }
  std::vector<std::int64_t> queuedIds() const {
    std::vector<std::int64_t> out;
    for (const auto& q : queue_) out.push_back(q.id);
    return out;
  }
  int freeSlots() const { return opt_.slots - used_; }

 private:
  struct Run {
    int cpus;
    double end_s;
  };
  void start(const econ::QueuedJob& job, double now) {
    used_ += job.cpus;
    running_[job.id] = Run{job.cpus, now + job.est_runtime_s};
  }

  econ::BatchQueue::Options opt_;
  int used_ = 0;
  std::vector<econ::QueuedJob> queue_;
  std::map<std::int64_t, Run> running_;
};

struct Diff {
  std::int64_t starts = 0, backfills = 0, end_ties = 0;
};

/// One seeded submit/finish/cancel/reset stream against both queues; every
/// dispatch must start the same jobs, in the same order, flagged alike.
Diff runDifferential(econ::QueuePolicy policy, std::uint64_t seed) {
  econ::BatchQueue::Options opt;
  opt.slots = 16;
  opt.policy = policy;
  opt.backfill_window = 6;
  opt.oversubscribe = 2;
  econ::BatchQueue q(opt);
  RefQueue ref(opt);
  std::mt19937_64 rng(seed);
  auto pick = [&rng](std::uint64_t n) { return static_cast<std::size_t>(rng() % n); };
  Diff d;
  double now = 0;
  std::int64_t next_id = 1;
  std::map<double, int> ends_at;  // started jobs per expected end: tie census
  for (int step = 0; step < 3000; ++step) {
    now += static_cast<double>(pick(3));  // integer clock: many equal starts
    const std::size_t action = pick(100);
    if (action < 55) {
      // Estimates on a 5 s grid, so equal expected ends are common.
      const int cpus = pick(10) == 0 ? opt.slots : 1 + static_cast<int>(pick(6));
      const econ::QueuedJob job{next_id++, std::min(cpus, q.maxWidth()),
                                5.0 * static_cast<double>(1 + pick(8)), now};
      q.submit(job, now);
      ref.submit(job);
    } else if (action < 85) {
      const auto running = ref.runningIds();
      if (!running.empty()) {
        const std::int64_t id = running[pick(running.size())];
        EXPECT_TRUE(q.finish(id));
        EXPECT_TRUE(ref.finish(id));
      }
    } else if (action < 99) {
      const auto queued = ref.queuedIds();
      const std::int64_t id = queued.empty() ? next_id + 7 : queued[pick(queued.size())];
      EXPECT_EQ(q.cancel(id), ref.cancel(id));
    } else {
      // Wholesale reset, as GridEconomy::crashCluster does.
      q = econ::BatchQueue(q.options());
      ref = RefQueue(opt);
    }
    const auto got = q.dispatch(now);
    const auto want = ref.dispatch(now);
    EXPECT_EQ(ids(got), ids(want)) << "seed " << seed << " step " << step;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].backfilled, want[i].backfilled) << "seed " << seed << " step " << step;
      if (++ends_at[now + got[i].job.est_runtime_s] == 2) ++d.end_ties;
      d.backfills += got[i].backfilled ? 1 : 0;
    }
    d.starts += static_cast<std::int64_t>(got.size());
    EXPECT_EQ(q.freeSlots(), ref.freeSlots());
    EXPECT_EQ(q.depth(), static_cast<int>(ref.queuedIds().size()));
    EXPECT_EQ(q.runningCount(), static_cast<int>(ref.runningIds().size()));
    if (::testing::Test::HasFailure()) break;
  }
  return d;
}

}  // namespace

TEST(BatchQueue, DispatchMatchesBruteForceReference) {
  for (econ::QueuePolicy policy : {econ::QueuePolicy::Fcfs, econ::QueuePolicy::EasyBackfill,
                                   econ::QueuePolicy::TimeShared}) {
    Diff total;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const Diff d = runDifferential(policy, seed);
      total.starts += d.starts;
      total.backfills += d.backfills;
      total.end_ties += d.end_ties;
    }
    SCOPED_TRACE(econ::queuePolicyName(policy));
    EXPECT_GT(total.starts, 1000);
    EXPECT_GT(total.end_ties, 100);  // the (end, id) tie rule is exercised
    if (policy == econ::QueuePolicy::EasyBackfill) {
      EXPECT_GT(total.backfills, 100);
    } else {
      EXPECT_EQ(total.backfills, 0);
    }
  }
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

TEST(Economy, CrashResubmitsInFlightJobsInIdOrder) {
  // Every job carries input data, so the broker prices a transfer for each
  // placement on a cluster away from the data. A recording estimator sees
  // the crash's resubmissions as one burst at crash + backoff; their input
  // sizes map back to job ids, which must rise. Transfers are off, so no
  // flow abort resubmits a job ahead of the crash's own id-ordered sweep.
  econ::WorkloadSpec w = smallWorkload(400);
  w.data_fraction = 1.0;
  w.rate = 0.5;
  w.runtime_mu = 4.0;  // ~55 s median: queues are deep when c0 crashes
  std::map<std::int64_t, std::int64_t> id_by_bytes;
  {
    econ::WorkloadGenerator gen(w, 2);
    econ::Job j;
    while (gen.next(j)) id_by_bytes[j.input_bytes] = j.id;
  }
  ASSERT_EQ(id_by_bytes.size(), 400u);  // input sizes identify jobs

  constexpr double kCrashAt = 120;
  auto run = [&](std::vector<std::int64_t>& burst) {
    const econ::EconGrid grid = econ::makeEconGrid(smallGrid());
    core::MicroGridOptions mopts;
    mopts.netmodel = net::NetModelKind::Flow;
    mopts.rate_override = 1.0;
    core::MicroGridPlatform platform(grid.grid, mopts);
    econ::EconOptions eopts;
    eopts.workload = w;
    eopts.flow_transfers = false;
    econ::GridEconomy economy(platform, grid, eopts);
    const double resubmit_at = kCrashAt + eopts.resubmit_backoff_s;
    economy.broker().setTransferEstimator(
        [&](int, const econ::ClusterView&, std::int64_t bytes) {
          if (std::abs(platform.virtualNow() - resubmit_at) < 1e-6) {
            burst.push_back(id_by_bytes.at(bytes));
          }
          return static_cast<double>(bytes) * 8.0 / 1e9;
        });
    economy.arm();
    economy.scheduleCrash("c0", kCrashAt);
    economy.scheduleRestart("c0", 400);
    platform.run();
    return economy.report();
  };
  std::vector<std::int64_t> burst_a, burst_b;
  const econ::EconReport a = run(burst_a);
  const econ::EconReport b = run(burst_b);
  EXPECT_GE(burst_a.size(), 5u) << "too few resubmissions to show an order";
  EXPECT_TRUE(std::adjacent_find(burst_a.begin(), burst_a.end(),
                                 std::greater_equal<>()) == burst_a.end())
      << "resubmissions out of id order";
  EXPECT_GE(a.resubmits, static_cast<std::int64_t>(burst_a.size()));
  EXPECT_EQ(a.completed + a.failed + a.rejected_budget + a.rejected_unplaceable, a.submitted);
  EXPECT_EQ(burst_a, burst_b);
  EXPECT_EQ(a.render(), b.render());
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
