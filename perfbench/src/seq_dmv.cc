// seq_dmv: one caller runs NaruEstimator::Estimate over distinct §6.1.3
// queries on the DMV-shaped table — the paper's Fig. 6 / Table 3 path.
// Model forward, the sampler's column steps and exact enumeration do all
// the work; no plan, cache, queue or network is involved.
#include <algorithm>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

namespace {

// A pass holds this many distinct queries answered by sampling and by
// enumeration (about 12 s on a 4-core host). The enumerated share is fixed,
// not left to the draw, so the latency tail, which the enumerated queries
// set, sits inside their cluster on every seed.
constexpr size_t kSampledQueries = 300;
constexpr size_t kEnumeratedQueries = 30;
constexpr Percentiles kPercentiles{.latency_tail = 95.0, .qerr_tail = 95.0};

// Runs whole passes over `queries`, at least `min_passes` of them, until
// `seconds` have elapsed. `first` receives the first pass's results; every
// later answer must repeat its query's first one bit for bit. With a
// recorder, each request is a span and model calls are attributed to it.
Phase RunPasses(naru::NaruEstimator* est,
                const std::vector<naru::Query>& queries, double seconds,
                size_t min_passes, Recorder* recorder,
                std::vector<uint64_t>* request_ids,
                std::vector<naru::EstimateResult>* first, RunResult* out) {
  Phase phase;
  phase.start = Clock::now();
  size_t passes = 0;
  do {
    for (size_t i = 0; i < queries.size(); ++i) {
      uint64_t id = 0;
      if (recorder != nullptr) {
        id = recorder->NextId();
        recorder->SetParent(id);
      }
      const Clock::time_point t0 = Clock::now();
      const naru::EstimateResult r = est->Estimate(queries[i]);
      const Clock::time_point t1 = Clock::now();
      if (recorder != nullptr) {
        recorder->SetParent(0);
        recorder->Add(Span{.id = id, .kind = SpanKind::kRequest,
                           .start = t0, .end = t1});
        request_ids->push_back(id);
      }
      phase.latencies_ms.push_back(MsBetween(t0, t1));
      phase.results.push_back(r);
      ++phase.requests;
      const std::string what = "seq query " + std::to_string(i);
      const bool ok = CheckResult(r, what, out);
      if (passes == 0) {
        first->push_back(r);
      } else if (ok && r.estimate != (*first)[i].estimate) {
        out->Fail(what + ": repeat estimate differs");
      }
    }
    ++passes;
  } while (passes < min_passes ||
           MsBetween(phase.start, Clock::now()) < seconds * 1e3);
  phase.end = Clock::now();
  return phase;
}

}  // namespace

void RunSeqDmv(const RunOptions& opts, RunResult* out) {
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
  Rand rng(kQuerySeed);
  std::vector<QuerySpec> specs =
      DrawMix(table, est, kSampledQueries, kEnumeratedQueries, 5, 11, &rng);
  Rand order(SubSeed(opts.seed, 3));
  Shuffle(&specs, &order);
  std::vector<naru::Query> queries;
  for (const QuerySpec& spec : specs) queries.push_back(ToQuery(table, spec));
  const std::vector<int64_t> truth = GroundTruth(table, specs, out);
  setup.truth_s = MsBetween(t, Clock::now()) / 1e3;

  // Warm-up: one query of each kind outside the timed set.
  for (size_t warm = 0; warm < 2;) {
    naru::Query q = ToQuery(table, DrawQuery(table, 5, 11, &rng));
    if (est.ShouldEnumerate(q) == (warm == 1)) {
      CheckResult(est.Estimate(q), "warm-up", out);
      ++warm;
    }
  }
  const double setup_s = MsBetween(opts.process_start, Clock::now()) / 1e3;

  // The untraced run makes at least two passes, so every answer is
  // checked against a repeat; the traced run checks its pass against the
  // untraced one instead.
  std::vector<naru::EstimateResult> first;
  if (!opts.trace) {
    const Phase phase = RunPasses(&est, queries, opts.seconds, 2, nullptr,
                                  nullptr, &first, out);
    out->attempted = phase.requests;
    std::vector<double> qerrors;
    for (size_t i = 0; i < first.size(); ++i) {
      qerrors.push_back(QError(
          first[i].estimate * static_cast<double>(table.num_rows()),
          static_cast<double>(truth[i])));
    }
    ReportEndToEnd(opts, setup_s, phase, qerrors, kPercentiles, out);
  } else {
    // Untraced half, then the same passes through the tracing decorator.
    const Phase plain = RunPasses(&est, queries, opts.seconds / 2, 1, nullptr,
                                  nullptr, &first, out);
    Recorder recorder;
    TracedModel traced_model(trained.model.get(), &recorder);
    naru::NaruEstimator traced_est(&traced_model, ServingConfig(),
                                   trained.size_bytes);
    std::vector<uint64_t> ids;
    std::vector<naru::EstimateResult> traced_first;
    const Phase traced = RunPasses(&traced_est, queries, opts.seconds / 2, 1,
                                   &recorder, &ids, &traced_first, out);
    out->attempted = plain.requests + traced.requests;
    for (size_t i = 0; i < traced_first.size(); ++i) {
      if (traced_first[i].estimate != first[i].estimate) {
        out->Fail("traced estimate differs for seq query " +
                  std::to_string(i));
      }
    }

    // Algorithm 1 row count: a sampled walk evaluates every one of its
    // samples_used paths at each position up to the last constrained one.
    const std::vector<Span> spans = recorder.spans();
    double forward_rows = 0;
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kForward) forward_rows += s.rows;
    }
    double implied_rows = 0;
    std::vector<uint64_t> sampled_ids;
    for (size_t k = 0; k < traced.results.size(); ++k) {
      const naru::EstimateResult& r = traced.results[k];
      if (r.provenance != naru::ResultProvenance::kSampled) continue;
      const naru::Query& q = queries[k % queries.size()];
      implied_rows += static_cast<double>(r.samples_used) *
                      static_cast<double>(q.LastFilteredColumn() + 1);
      sampled_ids.push_back(ids[k]);
    }
    std::fprintf(stderr, "Algorithm 1 rows: counted %.0f, implied %.0f\n",
                 forward_rows, implied_rows);
    if (forward_rows != implied_rows) {
      out->Fail("forward rows " + std::to_string(forward_rows) +
                " != Algorithm 1 rows " + std::to_string(implied_rows));
    }

    ZeroLayerMetrics(out);
    setup.Report(out);
    ReportModelLayers(traced, spans, implied_rows, out);
    out->Set("sampler.self_ms", MeanSelfMs(spans, sampled_ids), "ms");
    ReportTraceOverhead(plain, traced, out);
    WriteTrace(opts, recorder);
  }

  CheckEnumeratedAgainstSampling(trained.model.get(), trained.size_bytes,
                                 queries, first, out);
}

}  // namespace perfbench
