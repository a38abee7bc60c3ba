// The three workloads. Each builds its inputs and trains its model(s),
// drives its load through the program's public API, checks the outputs,
// and fills `out` with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
#pragma once

#include <vector>

#include "common.h"
#include "core/naru_estimator.h"
#include "data/table.h"
#include "inputs.h"
#include "report.h"

namespace perfbench {

void RunSeqDmv(const RunOptions& opts, RunResult* out);
void RunBatchSubplans(const RunOptions& opts, RunResult* out);
void RunNetTwoTenants(const RunOptions& opts, RunResult* out);

/// The tables, models and query sets do not depend on --seed: like the
/// paper's one DMV dataset, its trained estimator and its query workload,
/// they are fixed, so accuracy is compared on the same queries in every
/// run. The seed orders the requests and draws the traffic. Rows, epochs
/// and seeds of each:
inline constexpr size_t kDmvRows = 20000;
inline constexpr size_t kDmvEpochs = 2;
inline constexpr uint64_t kDmvTableSeed = 11;
inline constexpr uint64_t kDmvModelSeed = 12;
inline constexpr size_t kWideRows = 6000;
inline constexpr size_t kWideEpochs = 3;
inline constexpr uint64_t kWideTableSeed = 21;
inline constexpr uint64_t kWideModelSeed = 22;
inline constexpr uint64_t kQuerySeed = 31;

/// Set-up cost split by layer (traced runs report it per layer).
struct SetupTimes {
  double gen_s = 0.0;
  double train_s = 0.0;
  double nll_bits = 0.0;
  double truth_s = 0.0;
  void Report(RunResult* out) const;
};

/// The estimator config every workload serves with: the defaults
/// (Naru-1000, enumeration up to 1e4 points) on the fp32 simd kernel.
naru::NaruEstimatorConfig ServingConfig();

/// Ground truth for `specs` by the benchmark's own scan, cross-checked
/// against the program's executor (each disagreement is a failed check).
std::vector<int64_t> GroundTruth(const naru::Table& table,
                                 const std::vector<QuerySpec>& specs,
                                 RunResult* out);

/// For every query `reference` answered by enumeration, a sampling-only
/// estimator over the same model must land within 5 standard errors.
void CheckEnumeratedAgainstSampling(naru::ConditionalModel* model,
                                    size_t model_bytes,
                                    const std::vector<naru::Query>& queries,
                                    const std::vector<naru::EstimateResult>&
                                        reference,
                                    RunResult* out);

/// The sequential reference: NaruEstimator::Estimate on each query over
/// `model`, through the tracing decorator so the forward rows each query
/// costs on the sequential path are counted.
struct Reference {
  std::vector<naru::EstimateResult> results;
  std::vector<double> rows;
};
Reference SequentialReference(naru::MadeModel* model, size_t model_bytes,
                              const std::vector<naru::Query>& queries);

/// Canonical text key of a query spec (identifies repeats).
std::string SpecKey(const QuerySpec& spec);

/// Directory the traced runs write their span files into.
inline constexpr const char* kTraceDir = ".bench_build/traces";
void WriteTrace(const RunOptions& opts, const Recorder& recorder);

}  // namespace perfbench
