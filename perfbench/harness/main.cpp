// perfbench — one run of one benchmark workload (perfbench/README.md).
//
//   perfbench --workload npb_a --seed 2026 --seconds 10 --trace 0
//
// Prints progress lines, then the run's result as one JSON line, last.
// perfbench/run.py builds this binary, runs it, checks the metric names
// against BENCHMARK.json and prints the benchmark's result line.
//
// Options:
//   --workload NAME   npb_a | econ_day | flow_tree_100k
//   --seed N          workload seed (econ_day's job stream, flow_tree_100k's
//                     host pairs; recorded but unused by the NPB workloads)
//   --seconds S       measure for S seconds (at least one iteration)
//   --trace 0|1       1: per-layer metrics from a separate traced iteration
//   --trace-out FILE  traced runs: write the benchmark's spans there
//   --smoke           seconds-scale sizes (NPB class S, 10k jobs, 1k hosts)
// Exit status: 0 with a result line, 2 on a usage error, 1 on an exception.
#include <sched.h>

#include <fstream>
#include <iostream>

#include "harness.h"

using namespace perfbench;

namespace {

/// The CPUs this process may run on, as "0-3" / "0,2".
std::string affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    int e = c;
    while (e + 1 < CPU_SETSIZE && CPU_ISSET(e + 1, &set)) ++e;
    if (!out.empty()) out += ",";
    out += e > c ? std::to_string(c) + "-" + std::to_string(e) : std::to_string(c);
    c = e;
  }
  return out;
}

/// Restrict this process (and every thread it starts later) to the last CPU
/// it may run on. False when the affinity calls fail.
bool pinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return false;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(c, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0;
  }
  return false;
}

int usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg << " (see the header of perfbench/harness/main.cpp)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (flag == "--workload" && has_value) {
        opts.workload = argv[++i];
      } else if (flag == "--seed" && has_value) {
        opts.cfg.seed = std::stoull(argv[++i]);
      } else if (flag == "--seconds" && has_value) {
        opts.seconds = std::stod(argv[++i]);
      } else if (flag == "--trace" && has_value) {
        const std::string v = argv[++i];
        if (v != "0" && v != "1") return usage("--trace wants 0 or 1");
        opts.trace = v == "1";
      } else if (flag == "--trace-out" && has_value) {
        trace_out = argv[++i];
      } else if (flag == "--smoke") {
        opts.cfg.smoke = true;
      } else {
        return usage("unknown or incomplete flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag);
    }
  }
  const auto workload = makeWorkload(opts.workload, opts.cfg);
  if (!workload) return usage("--workload must be one of npb_a, econ_day, flow_tree_100k");
  if (!(opts.seconds >= 0)) return usage("--seconds wants a number >= 0");

  // Before any thread exists, so every simulated process inherits it.
  const bool pinned = workload->pinned();
  if (pinned && !pinToOneCpu()) {
    std::cerr << "perfbench: cannot pin " << opts.workload << " to one CPU\n";
    return 1;
  }

  try {
    std::cout << "perfbench: workload " << opts.workload << " seed " << opts.cfg.seed
              << (opts.cfg.smoke ? " (smoke)" : "") << (opts.trace ? " traced" : "") << std::endl;
    RunResult r = runBenchmark(opts, *workload);
    r.provenance["seed"] = static_cast<double>(opts.cfg.seed);
    r.build["build_type"] = PERFBENCH_BUILD_TYPE;
    r.build["compiler"] = PERFBENCH_COMPILER;
    r.build["affinity"] = affinity();
    r.provenance["pinned"] = pinned ? 1 : 0;
    if (!trace_out.empty() && !r.trace_json.empty()) {
      std::ofstream out(trace_out, std::ios::binary | std::ios::trunc);
      if (!out) throw std::runtime_error("cannot write " + trace_out);
      out << r.trace_json;
    }
    for (const auto& p : r.problems) std::cout << "problem: " << p << "\n";
    std::cout << resultJson(r) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
