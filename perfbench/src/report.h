// Metric computation shared by the workloads: the seven end-to-end metrics
// of an untraced phase, and the per-layer metrics of a traced one.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "serve/request.h"
#include "trace.h"

namespace perfbench {

/// What one timed phase produced. `latencies_ms` holds one sample per
/// request (per EstimateBatch call on batch_subplans).
struct Phase {
  Clock::time_point start;
  Clock::time_point end;
  size_t requests = 0;
  std::vector<double> latencies_ms;
  std::vector<naru::EstimateResult> results;  ///< one per request
  double wall_ms() const { return MsBetween(start, end); }
};

/// The latency and q-error tail percentiles of one workload (README).
struct Percentiles {
  double latency_tail = 95.0;
  double qerr_tail = 95.0;
};

/// Upper bound on qerr_p50: Table 3 reports medians near 1 for Naru on
/// DMV; a model that stopped learning lands far above this.
inline constexpr double kQErrP50Bound = 3.0;

/// Sets the seven end-to-end metrics and checks the q-error bound.
void ReportEndToEnd(const RunOptions& opts, double setup_s,
                    const Phase& phase, const std::vector<double>& qerrors,
                    const Percentiles& pct, RunResult* out);

/// Checks one result's invariants: OK status, finite estimate in [0, 1],
/// std_error >= 0. Returns false (and records a failure) on a violation.
bool CheckResult(const naru::EstimateResult& r, const std::string& what,
                 RunResult* out);

/// Per-request model-layer metrics from the forward and enumerate spans of
/// a traced phase: core.*, tensor.*, enumerator.*. `sequential_rows` is
/// the forward rows the sequential path spends on the distinct queries the
/// phase sampled (plan.rows_saved_ratio's base).
void ReportModelLayers(const Phase& phase, const std::vector<Span>& spans,
                       double sequential_rows, RunResult* out);

/// sampler.self_ms: mean over `request_ids` of each request span's
/// duration minus the union of its model spans (forward and enumerate).
double MeanSelfMs(const std::vector<Span>& spans,
                  const std::vector<uint64_t>& request_ids);

/// Sets every per-layer metric to 0 so the traced output always carries
/// the full set; a workload overwrites the ones that apply to it.
void ZeroLayerMetrics(RunResult* out);

/// Traced-over-untraced latency_p50 minus one.
void ReportTraceOverhead(const Phase& untraced, const Phase& traced,
                         RunResult* out);

}  // namespace perfbench
