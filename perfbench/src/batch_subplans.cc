// batch_subplans: a closed loop with one caller issuing
// InferenceEngine::EstimateBatch calls. Each call holds every non-empty
// subset of one base query's filters — the conjunctions an optimizer costs
// for one scan — so plan trees share prefixes and stacked forward passes
// get wide. A quarter of each round's calls repeat an earlier base query,
// which the memo answers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "serve/inference_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kBaseFilters = 4;  // 15 subsets per call
constexpr size_t kBases = 24;       // distinct base queries per round
constexpr size_t kRepeats = 8;      // calls per round that repeat a base
constexpr Percentiles kPercentiles{.latency_tail = 80.0, .qerr_tail = 95.0};

struct Inputs {
  std::vector<QuerySpec> specs;    ///< distinct subset queries
  std::vector<naru::Query> queries;
  /// Per base query: its subset requests and their indices into specs.
  std::vector<std::vector<naru::EstimateRequest>> calls;
  std::vector<std::vector<size_t>> call_specs;
  std::vector<size_t> round;  ///< base index of each call of a round
};

// Base queries come from `queries`; the order of a round's calls and which
// bases it repeats from `order`.
Inputs MakeInputs(const naru::Table& table, Rand* queries, Rand* order) {
  Inputs in;
  std::unordered_map<std::string, size_t> index;
  for (size_t b = 0; b < kBases; ++b) {
    const QuerySpec base =
        DrawQuery(table, kBaseFilters, kBaseFilters, queries);
    std::vector<naru::EstimateRequest> requests;
    std::vector<size_t> ids;
    for (size_t mask = 1; mask < (size_t{1} << kBaseFilters); ++mask) {
      QuerySpec subset;
      for (size_t f = 0; f < kBaseFilters; ++f) {
        if (mask & (size_t{1} << f)) subset.filters.push_back(base.filters[f]);
      }
      const std::string key = SpecKey(subset);
      auto [it, fresh] = index.emplace(key, in.specs.size());
      if (fresh) {
        in.queries.push_back(ToQuery(table, subset));
        in.specs.push_back(std::move(subset));
      }
      requests.emplace_back(in.queries[it->second]);
      ids.push_back(it->second);
    }
    in.calls.push_back(std::move(requests));
    in.call_specs.push_back(std::move(ids));
    in.round.push_back(b);
  }
  std::vector<size_t> repeated = in.round;
  Shuffle(&repeated, order);
  in.round.insert(in.round.end(), repeated.begin(), repeated.begin() + kRepeats);
  Shuffle(&in.round, order);
  return in;
}

// Runs whole rounds (caches cleared at each round's start) until `seconds`
// have elapsed. `values` maps each distinct query to its first estimate;
// every later answer must repeat it bit for bit.
Phase RunRounds(naru::InferenceEngine* engine, naru::NaruEstimator* est,
                const Inputs& in, double seconds, Recorder* recorder,
                std::vector<uint64_t>* call_ids, std::vector<double>* values,
                RunResult* out) {
  Phase phase;
  std::vector<naru::EstimateResult> results;
  phase.start = Clock::now();
  do {
    engine->ClearCaches();
    for (size_t base : in.round) {
      uint64_t id = 0;
      if (recorder != nullptr) {
        id = recorder->NextId();
        recorder->SetParent(id);
      }
      const Clock::time_point t0 = Clock::now();
      engine->EstimateBatch(est, in.calls[base], &results);
      const Clock::time_point t1 = Clock::now();
      if (recorder != nullptr) {
        recorder->SetParent(0);
        recorder->Add(Span{.id = id, .kind = SpanKind::kRequest,
                           .start = t0, .end = t1});
        call_ids->push_back(id);
      }
      phase.latencies_ms.push_back(MsBetween(t0, t1));
      phase.requests += results.size();
      for (size_t k = 0; k < results.size(); ++k) {
        const naru::EstimateResult& r = results[k];
        phase.results.push_back(r);
        const size_t q = in.call_specs[base][k];
        const std::string what = "subset " + SpecKey(in.specs[q]);
        if (!CheckResult(r, what, out)) continue;
        double& v = (*values)[q];
        if (std::isnan(v)) {
          v = r.estimate;
        } else if (v != r.estimate) {
          out->Fail(what + ": repeated answer differs");
        }
      }
    }
  } while (MsBetween(phase.start, Clock::now()) < seconds * 1e3);
  phase.end = Clock::now();
  return phase;
}

}  // namespace

void RunBatchSubplans(const RunOptions& opts, RunResult* out) {
  SetupTimes setup;
  Clock::time_point t = Clock::now();
  const naru::Table table = MakeDmvTable(kDmvRows, kDmvTableSeed);
  setup.gen_s = MsBetween(t, Clock::now()) / 1e3;
  TrainedModel trained = TrainMade(table, kDmvEpochs, kDmvModelSeed);
  setup.train_s = trained.train_s;
  setup.nll_bits = trained.last_epoch_nll_bits;
  naru::NaruEstimator est(trained.model.get(), ServingConfig(),
                          trained.size_bytes);

  t = Clock::now();
  Rand query_rng(kQuerySeed);
  Rand order_rng(SubSeed(opts.seed, 4));
  const Inputs in = MakeInputs(table, &query_rng, &order_rng);
  const std::vector<int64_t> truth = GroundTruth(table, in.specs, out);
  setup.truth_s = MsBetween(t, Clock::now()) / 1e3;

  // The engine computes on the process-wide pool (one thread per core).
  naru::InferenceEngine engine;
  {
    // Warm-up: one call built from a base query outside the timed set.
    const QuerySpec base =
        DrawQuery(table, kBaseFilters, kBaseFilters, &query_rng);
    std::vector<naru::EstimateRequest> warm;
    warm.emplace_back(ToQuery(table, base));
    std::vector<naru::EstimateResult> results;
    engine.EstimateBatch(&est, warm, &results);
    CheckResult(results[0], "warm-up", out);
  }
  const double setup_s = MsBetween(opts.process_start, Clock::now()) / 1e3;

  std::vector<double> values(in.specs.size(), NAN);
  Phase plain = RunRounds(&engine, &est, in,
                          opts.trace ? opts.seconds / 2 : opts.seconds,
                          nullptr, nullptr, &values, out);
  out->attempted = plain.requests;
  Recorder recorder;
  TracedModel traced_model(trained.model.get(), &recorder);
  naru::NaruEstimator traced_est(&traced_model, ServingConfig(),
                                 trained.size_bytes);
  std::vector<uint64_t> call_ids;
  Phase traced;
  if (opts.trace) {
    traced = RunRounds(&engine, &traced_est, in, opts.seconds / 2, &recorder,
                       &call_ids, &values, out);
    out->attempted += traced.requests;
  }

  // Every distinct query's answer must equal the sequential path's.
  const Reference ref =
      SequentialReference(trained.model.get(), trained.size_bytes, in.queries);
  std::vector<double> qerrors;
  for (size_t q = 0; q < in.specs.size(); ++q) {
    if (ref.results[q].estimate != values[q]) {
      out->Fail("batched answer differs from sequential for " +
                SpecKey(in.specs[q]));
    }
    qerrors.push_back(QError(values[q] * static_cast<double>(table.num_rows()),
                             static_cast<double>(truth[q])));
  }
  CheckEnumeratedAgainstSampling(trained.model.get(), trained.size_bytes,
                                 in.queries, ref.results, out);
  if (!opts.trace) {
    ReportEndToEnd(opts, setup_s, plain, qerrors, kPercentiles, out);
    return;
  }

  // Each round computes every distinct sampled query once (repeats hit the
  // memo), so the sequential base sums over the computed results.
  double sequential_rows = 0;
  size_t k = 0;
  for (size_t call = 0; k < traced.results.size(); ++call) {
    for (size_t q : in.call_specs[in.round[call % in.round.size()]]) {
      const naru::ResultProvenance p = traced.results[k++].provenance;
      if (p == naru::ResultProvenance::kSampled ||
          p == naru::ResultProvenance::kPlannedGroup) {
        sequential_rows += ref.rows[q];
      }
    }
  }
  const std::vector<Span> spans = recorder.spans();
  ZeroLayerMetrics(out);
  setup.Report(out);
  ReportModelLayers(traced, spans, sequential_rows, out);
  const double requests = static_cast<double>(traced.requests);
  // The request span is the EstimateBatch call; its self time is spread
  // over the call's requests.
  out->Set("sampler.self_ms",
           MeanSelfMs(spans, call_ids) *
               static_cast<double>(call_ids.size()) / requests,
           "ms");
  double hits = 0;
  std::vector<double> compute_ms;
  for (const naru::EstimateResult& r : traced.results) {
    if (r.provenance == naru::ResultProvenance::kCacheHit) hits += 1;
    compute_ms.push_back(r.compute_ms);
  }
  out->Set("serve.memo_hit_ratio", hits / requests, "ratio");
  out->Set("serve.compute_ms_p50", Median(compute_ms), "ms");
  out->Set("serve.batch_call_ms_p50", Median(traced.latencies_ms), "ms");
  ReportTraceOverhead(plain, traced, out);
  WriteTrace(opts, recorder);
}

}  // namespace perfbench
