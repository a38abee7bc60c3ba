#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Rand::Exponential(double mean) {
  return -mean * std::log(1.0 - Uniform());
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rand r(seed * 0x100000001B3ULL + stream * 0x9E3779B97F4A7C15ULL + 1);
  return r.Next();
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(Rand* rng) const {
  const double u = rng->Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double QError(double est_rows, double true_rows) {
  const double e = std::max(est_rows, 1.0);
  const double t = std::max(true_rows, 1.0);
  return std::max(e / t, t / e);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RunResult::Fail(const std::string& what) {
  ++failed;
  // The first few violations are enough to diagnose; the count says the rest.
  if (failed <= 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

}  // namespace perfbench
