#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "harness.h"

namespace perfbench {

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// Index of the nearest-rank p-th percentile in a sorted sample of n.
std::size_t rankOf(std::size_t n, double p) {
  const auto r = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n) - 1;
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[rankOf(v.size(), p)];
}

Tail tailPercentile(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    const std::size_t r = rankOf(v.size(), p);
    if (v.size() - 1 - r >= kTailMinBeyond) {
      t.percentile = p;
      t.value = v[r];
      return t;
    }
  }
  t.value = v.back();  // too few samples for any rung: the maximum, unlabelled
  return t;
}

std::string digestOf(const std::string& outputs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : outputs) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
