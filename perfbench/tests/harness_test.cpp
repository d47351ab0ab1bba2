// The benchmark's own tests: the percentile rule, failure accounting with a
// forced failure, windowed-vs-plain output equivalence, and a smoke size of
// every workload. `python3 perfbench/run.py --self-test` runs them and then
// checks the printed metric names against BENCHMARK.json.
#include <gtest/gtest.h>

#include <numeric>

#include "harness.h"

using namespace perfbench;

namespace {

std::vector<double> oneTo(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

RunOptions smoke(const std::string& workload, bool trace) {
  RunOptions o;
  o.workload = workload;
  o.cfg.smoke = true;
  o.cfg.seed = 7;
  o.seconds = 0;  // one iteration
  o.trace = trace;
  return o;
}

}  // namespace

TEST(TailPercentile, PicksHighestRungWithTenSamplesBeyond) {
  const Tail t1000 = tailPercentile(oneTo(1000));
  EXPECT_EQ(t1000.percentile, 99.0);
  EXPECT_EQ(t1000.value, 990.0);  // exactly ten samples (991..1000) beyond
  EXPECT_EQ(t1000.samples, 1000u);

  EXPECT_EQ(tailPercentile(oneTo(999)).percentile, 95.0);  // p99 would leave nine
  EXPECT_EQ(tailPercentile(oneTo(20000)).percentile, 99.9);
  EXPECT_EQ(tailPercentile(oneTo(20)).percentile, 50.0);

  const Tail few = tailPercentile(oneTo(5));
  EXPECT_EQ(few.percentile, 0.0);  // no rung qualifies
  EXPECT_EQ(few.value, 5.0);

  std::vector<double> shuffled = oneTo(1000);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(tailPercentile(shuffled).value, 990.0);
}

TEST(Stats, MedianAndPercentile) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(percentile(oneTo(100), 50), 50.0);
  EXPECT_EQ(percentile(oneTo(100), 100), 100.0);
}

TEST(Accounting, OkFraction) {
  EXPECT_EQ(okFraction(0, 0), 0.0);
  EXPECT_EQ(okFraction(4, 0), 1.0);
  EXPECT_EQ(okFraction(4, 1), 0.75);
}

TEST(Accounting, ForcedFailureIsCountedAndFailsTheRun) {
  // One real job and one the gatekeepers cannot run: the second is
  // attempted, fails, and makes the run incorrect.
  RunOptions o = smoke("forced_failure", false);
  const auto w = makeNpbWorkload({"ep", "no_such_benchmark"}, o.cfg);
  const RunResult r = runBenchmark(o, *w);
  EXPECT_EQ(r.attempted, 2);
  EXPECT_EQ(r.failed, 1);
  EXPECT_EQ(r.metrics.at("ok_frac"), 0.5);
  EXPECT_FALSE(r.correct);
  EXPECT_FALSE(r.problems.empty());
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer tr(true);
  tr.setRun("t");
  const int outer = tr.open("outer");
  const int inner = tr.open("inner");
  tr.close(inner);
  tr.close(outer);
  ASSERT_EQ(tr.spans().size(), 2u);
  EXPECT_EQ(tr.spans()[1].parent, outer);
  const auto self = tr.selfSeconds();
  const double outer_d = tr.spans()[0].end_s - tr.spans()[0].start_s;
  const double inner_d = tr.spans()[1].end_s - tr.spans()[1].start_s;
  EXPECT_DOUBLE_EQ(self.at("outer"), outer_d - inner_d);
  EXPECT_DOUBLE_EQ(self.at("inner"), inner_d);

  Tracer off;
  EXPECT_EQ(off.open("x"), -1);
  off.close(-1);
  EXPECT_TRUE(off.spans().empty());
}

class SmokeWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeWorkload, WindowedSteppingLeavesOutputsUnchanged) {
  const auto w = makeWorkload(GetParam(), smoke(GetParam(), false).cfg);
  ASSERT_NE(w, nullptr);
  Tracer tr;
  w->prepare(tr);
  WindowLog log;
  const Iteration windowed = w->iterate(tr, &log);
  const Iteration plain = w->iterate(tr, nullptr);
  EXPECT_FALSE(log.host_ms.empty());
  EXPECT_TRUE(windowed.problems.empty()) << windowed.problems.front();
  EXPECT_EQ(windowed.outputs, plain.outputs);
  EXPECT_EQ(digestOf(windowed.outputs), digestOf(plain.outputs));
}

TEST_P(SmokeWorkload, UntracedAndTracedRunsAreCorrect) {
  const std::set<std::string> end_to_end = {"run_s",  "setup_s",     "window_ms_p99",
                                            "cpu_s", "peak_rss_mb", "ok_frac"};
  RunOptions o = smoke(GetParam(), false);
  const auto w = makeWorkload(GetParam(), o.cfg);
  const RunResult r = runBenchmark(o, *w);
  EXPECT_TRUE(r.correct) << (r.problems.empty() ? "" : r.problems.front());
  EXPECT_GT(r.attempted, 0);
  EXPECT_EQ(r.failed, 0);
  std::set<std::string> names;
  for (const auto& [k, v] : r.metrics) {
    names.insert(k);
    EXPECT_GT(v, 0) << k;  // end-to-end metrics are never 0
  }
  EXPECT_EQ(names, end_to_end);

  o.trace = true;
  const RunResult t = runBenchmark(o, *makeWorkload(GetParam(), o.cfg));
  EXPECT_TRUE(t.correct) << (t.problems.empty() ? "" : t.problems.front());
  EXPECT_EQ(t.digest, r.digest);  // same seed, same simulated outputs
  EXPECT_GT(t.metrics.at("sim.events"), 0);
  EXPECT_TRUE(t.metrics.count("bench.trace_overhead_pct"));
  if (GetParam() == "npb_a") {
    // The obs drive records spans and builds the trace; the iterations do not.
    EXPECT_GT(t.metrics.at("obs.spans"), 0);
    EXPECT_GT(t.metrics.at("obs.trace_bytes"), 0);
    EXPECT_GT(t.metrics.at("obs.run_s"), t.metrics.at("obs.export_s"));
  }
  EXPECT_FALSE(t.trace_json.empty());
}

INSTANTIATE_TEST_SUITE_P(All, SmokeWorkload,
                         ::testing::Values("npb_a", "econ_day", "flow_tree_100k"));
