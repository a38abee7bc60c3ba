// The benchmark's inputs, generated from its own code and seed: the
// DMV-shaped table, the second tenant's wider table, §6.1.3-style queries
// built as Query objects from regions, the benchmark's own ground-truth
// scan, and model training.
#pragma once

#include <memory>
#include <vector>

#include "common.h"
#include "core/made.h"
#include "core/naru_estimator.h"
#include "data/table.h"
#include "query/query.h"

namespace perfbench {

/// The paper's 11 DMV columns and domain sizes.
naru::Table MakeDmvTable(size_t rows, uint64_t seed);
/// The second tenant: 14 columns, domains 2 .. 2600.
naru::Table MakeWideTable(size_t rows, uint64_t seed);

/// One column range [lo, hi] over dictionary codes.
struct Filter {
  size_t col = 0;
  int32_t lo = 0;
  int32_t hi = 0;
};

/// A conjunction of range filters on distinct columns, sorted by column.
struct QuerySpec {
  std::vector<Filter> filters;
};

/// §6.1.3: f in [min_filters, max_filters] distinct columns; columns with
/// domain >= 10 draw from {=, <=, >=}, smaller ones get =; literals come
/// from one random row of the table.
QuerySpec DrawQuery(const naru::Table& table, size_t min_filters,
                    size_t max_filters, Rand* rng);

/// Power-of-two buckets of true row count the sampled queries of DrawMix
/// are spread over: 1, 2-3, 4-7, ..., 1024-2047, and 2048 or more.
inline constexpr size_t kCountBuckets = 12;

/// `sampled` §6.1.3 queries that `policy` answers by sampling and
/// `enumerated` ones it answers by exact enumeration, shuffled together.
/// Both are stratified so the make-up of the set is the same on every
/// seed: the sampled ones hold an equal share of each true-count bucket,
/// and the enumerated ones sit one per equal-width bin of log10 region size
/// over [3, 4] — 10^3 to 10^4 points, where enumeration costs more than
/// the sampled walk.
std::vector<QuerySpec> DrawMix(const naru::Table& table,
                               const naru::NaruEstimator& policy,
                               size_t sampled, size_t enumerated,
                               size_t min_filters, size_t max_filters,
                               Rand* rng);

/// Rows matching `spec`, by a plain scan of the codes (independent of
/// src/query/executor.cc, against which the workloads cross-check it).
int64_t CountRows(const naru::Table& table, const QuerySpec& spec);

naru::Query ToQuery(const naru::Table& table, const QuerySpec& spec);

/// CountRows of each spec.
std::vector<int64_t> ScanCounts(const naru::Table& table,
                                const std::vector<QuerySpec>& specs);

/// Column domain sizes of a table.
std::vector<size_t> Domains(const naru::Table& table);

/// A trained MADE and what training cost.
struct TrainedModel {
  std::unique_ptr<naru::MadeModel> model;
  double train_s = 0.0;
  double last_epoch_nll_bits = 0.0;
  size_t size_bytes = 0;
};

TrainedModel TrainMade(const naru::Table& table, size_t epochs,
                       uint64_t seed);

/// Dense-equivalent GEMM FLOPs of one forward row, computed from the
/// model's tensor shapes: the hidden trunk plus column `col`'s head
/// (ConditionalDist / session Dist), or plus every head (LogProbRows).
struct FlopModel {
  double trunk = 0.0;
  std::vector<double> head;
  double all_heads = 0.0;
  explicit FlopModel(const naru::MadeModel& model);
};

}  // namespace perfbench
