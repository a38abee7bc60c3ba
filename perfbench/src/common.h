// Shared helpers of the end-to-end benchmark: its own seeded random source
// (so nothing in src/ can change what is generated), percentiles, q-error,
// and the metric record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64: the benchmark's only source of randomness. Its output is
/// fully specified, so a seed names the same inputs on every platform.
class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  /// Exponential with the given mean.
  double Exponential(double mean);

 private:
  uint64_t state_;
};

/// Fisher-Yates shuffle of `items` by `rng`.
template <typename T>
void Shuffle(std::vector<T>* items, Rand* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Below(i)]);
  }
}

/// Derives an independent stream seed for one named use of the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Zipf(s) over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Rand* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty input.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// q-error of an estimated against a true row count, both floored at one
/// row (the usual convention, so empty answers stay finite).
double QError(double est_rows, double true_rows);

/// Peak resident set of this process in MiB (getrusage).
double PeakRssMb();

/// One printed metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the operation counts, every
/// metric it measured, and human-readable notes for stderr.
struct RunResult {
  size_t attempted = 0;
  size_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one failed output check (counted as a failed operation).
  void Fail(const std::string& what);
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Clock::time_point process_start;
};

}  // namespace perfbench
