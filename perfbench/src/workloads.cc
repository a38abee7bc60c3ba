#include "workloads.h"

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "query/executor.h"

namespace perfbench {

void SetupTimes::Report(RunResult* out) const {
  out->Set("data.gen_s", gen_s, "s");
  out->Set("core.train_s", train_s, "s");
  out->Set("core.train_nll_bits", nll_bits, "bits");
  out->Set("query.truth_s", truth_s, "s");
}

naru::NaruEstimatorConfig ServingConfig() {
  naru::NaruEstimatorConfig cfg;
  cfg.kernel = naru::KernelKind::kSimd;
  return cfg;
}

std::vector<int64_t> GroundTruth(const naru::Table& table,
                                 const std::vector<QuerySpec>& specs,
                                 RunResult* out) {
  std::vector<int64_t> counts = ScanCounts(table, specs);
  std::vector<naru::Query> queries;
  queries.reserve(specs.size());
  for (const QuerySpec& s : specs) queries.push_back(ToQuery(table, s));
  const std::vector<int64_t> executed = naru::ExecuteCounts(table, queries);
  for (size_t i = 0; i < specs.size(); ++i) {
    if (executed[i] != counts[i]) {
      out->Fail("ground truth of " + SpecKey(specs[i]) + ": scan " +
                std::to_string(counts[i]) + " vs ExecuteCounts " +
                std::to_string(executed[i]));
    }
  }
  return counts;
}

void CheckEnumeratedAgainstSampling(
    naru::ConditionalModel* model, size_t model_bytes,
    const std::vector<naru::Query>& queries,
    const std::vector<naru::EstimateResult>& reference, RunResult* out) {
  naru::NaruEstimatorConfig cfg = ServingConfig();
  cfg.enumeration_threshold = 0;
  naru::NaruEstimator sampling_only(model, cfg, model_bytes);
  double worst_sigma = 0.0;
  size_t checked = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (reference[i].provenance != naru::ResultProvenance::kEnumerated) {
      continue;
    }
    const naru::EstimateResult s = sampling_only.Estimate(queries[i]);
    ++checked;
    const double diff = std::abs(s.estimate - reference[i].estimate);
    const double sigma = s.std_error > 0 ? diff / s.std_error : INFINITY;
    if (diff > 0) worst_sigma = std::max(worst_sigma, sigma);
    if (!(diff <= 5.0 * s.std_error)) {
      out->Fail("enumerated " + std::to_string(reference[i].estimate) +
                " vs sampled " + std::to_string(s.estimate) + " +- " +
                std::to_string(s.std_error));
    }
  }
  std::fprintf(stderr,
               "enumerated vs sampling-only: %zu queries, worst %.2f sigma\n",
               checked, worst_sigma);
}

Reference SequentialReference(naru::MadeModel* model, size_t model_bytes,
                              const std::vector<naru::Query>& queries) {
  Recorder recorder;
  TracedModel traced(model, &recorder);
  naru::NaruEstimator est(&traced, ServingConfig(), model_bytes);
  Reference ref;
  std::vector<uint64_t> ids;
  for (const naru::Query& q : queries) {
    ids.push_back(recorder.NextId());
    recorder.SetParent(ids.back());
    ref.results.push_back(est.Estimate(q));
  }
  std::unordered_map<uint64_t, double> rows;
  for (const Span& s : recorder.spans()) {
    if (s.kind == SpanKind::kForward) rows[s.parent] += s.rows;
  }
  for (uint64_t id : ids) ref.rows.push_back(rows[id]);
  return ref;
}

std::string SpecKey(const QuerySpec& spec) {
  std::string key;
  for (const Filter& f : spec.filters) {
    key += std::to_string(f.col) + ":" + std::to_string(f.lo) + "-" +
           std::to_string(f.hi) + ";";
  }
  return key;
}

void WriteTrace(const RunOptions& opts, const Recorder& recorder) {
  mkdir(".bench_build", 0755);
  mkdir(kTraceDir, 0755);
  const std::string path = std::string(kTraceDir) + "/" + opts.workload +
                           "_seed" + std::to_string(opts.seed) + ".json";
  if (recorder.WriteChromeTrace(path, opts.process_start)) {
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

}  // namespace perfbench
