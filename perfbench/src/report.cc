#include "report.h"

#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

bool IsModelSpan(const Span& s) {
  return s.kind == SpanKind::kForward || s.kind == SpanKind::kEnumerate;
}

}  // namespace

void ReportEndToEnd(const RunOptions& opts, double setup_s,
                    const Phase& phase, const std::vector<double>& qerrors,
                    const Percentiles& pct, RunResult* out) {
  const size_t n = phase.latencies_ms.size();
  const double beyond =
      static_cast<double>(n) * (100.0 - pct.latency_tail) / 100.0;
  std::fprintf(stderr,
               "[%s] %zu latency samples, p%.1f has %.1f beyond it; "
               "%zu q-errors\n",
               opts.workload.c_str(), n, pct.latency_tail, beyond,
               qerrors.size());
  std::fprintf(stderr,
               "[%s] latency ms p10 %.2f p25 %.2f p50 %.2f p75 %.2f p90 %.2f "
               "p95 %.2f p99 %.2f\n",
               opts.workload.c_str(), Percentile(phase.latencies_ms, 10),
               Percentile(phase.latencies_ms, 25),
               Percentile(phase.latencies_ms, 50),
               Percentile(phase.latencies_ms, 75),
               Percentile(phase.latencies_ms, 90),
               Percentile(phase.latencies_ms, 95),
               Percentile(phase.latencies_ms, 99));
  if (beyond < 10.0) {
    std::fprintf(stderr, "[%s] warning: fewer than 10 samples beyond p%.1f\n",
                 opts.workload.c_str(), pct.latency_tail);
  }
  out->Set("setup_s", setup_s, "s");
  out->Set("throughput_qps",
           static_cast<double>(phase.requests) / (phase.wall_ms() / 1e3),
           "requests/s");
  out->Set("latency_p50_ms", Median(phase.latencies_ms), "ms");
  out->Set("latency_tail_ms", Percentile(phase.latencies_ms, pct.latency_tail),
           "ms");
  const double qerr_p50 = Median(qerrors);
  out->Set("qerr_p50", qerr_p50, "ratio");
  out->Set("qerr_tail", Percentile(qerrors, pct.qerr_tail), "ratio");
  out->Set("peak_rss_mb", PeakRssMb(), "MiB");
  if (!(qerr_p50 <= kQErrP50Bound)) {
    out->Fail("qerr_p50 " + std::to_string(qerr_p50) + " above bound " +
              std::to_string(kQErrP50Bound));
  }
}

bool CheckResult(const naru::EstimateResult& r, const std::string& what,
                 RunResult* out) {
  if (!r.ok()) {
    out->Fail(what + ": status " + r.status.ToString());
    return false;
  }
  if (!std::isfinite(r.estimate) || r.estimate < 0.0 || r.estimate > 1.0) {
    out->Fail(what + ": estimate " + std::to_string(r.estimate) +
              " outside [0, 1]");
    return false;
  }
  if (!(r.std_error >= 0.0) || !std::isfinite(r.std_error)) {
    out->Fail(what + ": std_error " + std::to_string(r.std_error));
    return false;
  }
  return true;
}

void ReportModelLayers(const Phase& phase, const std::vector<Span>& spans,
                       double sequential_rows, RunResult* out) {
  double calls = 0, rows = 0, busy_ms = 0, flops = 0, model_busy_ms = 0;
  double enum_points = 0, enum_ms = 0;
  std::vector<Interval> forward;
  for (const Span& s : spans) {
    // Spans outside the phase (a traced warm-up) are not its work.
    if (!IsModelSpan(s) || s.start < phase.start || s.start > phase.end) {
      continue;
    }
    const double ms = MsBetween(s.start, s.end);
    flops += s.flops;
    model_busy_ms += ms;
    if (s.kind == SpanKind::kEnumerate) {
      enum_points += static_cast<double>(s.rows);
      enum_ms += ms;
      continue;
    }
    calls += 1;
    rows += static_cast<double>(s.rows);
    busy_ms += ms;
    forward.push_back(Interval{s.start, s.end});
  }
  double enumerated = 0;
  for (const naru::EstimateResult& r : phase.results) {
    if (r.provenance == naru::ResultProvenance::kEnumerated) enumerated += 1;
  }
  const double requests = static_cast<double>(phase.requests);
  out->Set("core.forward_calls", calls / requests, "calls");
  out->Set("core.forward_rows", rows / requests, "rows");
  out->Set("core.forward_rows_per_call", calls > 0 ? rows / calls : 0.0,
           "rows");
  out->Set("core.forward_busy_ms", busy_ms / requests, "ms");
  out->Set("core.forward_wall_share",
           UnionMs(forward, Interval{phase.start, phase.end}) / phase.wall_ms(),
           "ratio");
  out->Set("tensor.gemm_gflop", flops / 1e9 / requests, "GFLOP");
  out->Set("tensor.gflops",
           model_busy_ms > 0 ? flops / 1e9 / (model_busy_ms / 1e3) : 0.0,
           "GFLOP/s");
  out->Set("enumerator.share", enumerated / requests, "ratio");
  out->Set("enumerator.points", enumerated > 0 ? enum_points / enumerated : 0.0,
           "points");
  out->Set("enumerator.ms", enumerated > 0 ? enum_ms / enumerated : 0.0, "ms");
  out->Set("plan.rows_saved_ratio",
           sequential_rows > 0 ? 1.0 - rows / sequential_rows : 0.0, "ratio");
}

double MeanSelfMs(const std::vector<Span>& spans,
                  const std::vector<uint64_t>& request_ids) {
  if (request_ids.empty()) return 0.0;
  std::unordered_map<uint64_t, const Span*> requests;
  std::unordered_map<uint64_t, std::vector<Interval>> children;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kRequest) {
      requests[s.id] = &s;
    } else if (s.parent != 0) {
      children[s.parent].push_back(Interval{s.start, s.end});
    }
  }
  double total = 0.0;
  for (uint64_t id : request_ids) {
    const Span* req = requests.at(id);
    const Interval window{req->start, req->end};
    total += MsBetween(req->start, req->end) - UnionMs(children[id], window);
  }
  return total / static_cast<double>(request_ids.size());
}

void ZeroLayerMetrics(RunResult* out) {
  static const char* const kMetrics[][2] = {
      {"core.forward_calls", "calls"},     {"core.forward_rows", "rows"},
      {"core.forward_rows_per_call", "rows"},
      {"core.forward_busy_ms", "ms"},      {"core.forward_wall_share", "ratio"},
      {"tensor.gemm_gflop", "GFLOP"},      {"tensor.gflops", "GFLOP/s"},
      {"sampler.self_ms", "ms"},           {"enumerator.share", "ratio"},
      {"enumerator.points", "points"},     {"enumerator.ms", "ms"},
      {"plan.rows_saved_ratio", "ratio"},  {"serve.memo_hit_ratio", "ratio"},
      {"serve.compute_ms_p50", "ms"},      {"serve.batch_call_ms_p50", "ms"},
      {"serve.queue_ms_p50", "ms"},        {"serve.queue_ms_tail", "ms"},
      {"net.overhead_ms_p50", "ms"},       {"net.bytes", "bytes"},
      {"data.gen_s", "s"},                 {"core.train_s", "s"},
      {"core.train_nll_bits", "bits"},     {"query.truth_s", "s"},
      {"loadgen.lateness_ms_tail", "ms"},  {"trace.overhead_ratio", "ratio"},
  };
  for (const auto& m : kMetrics) out->Set(m[0], 0.0, m[1]);
}

void ReportTraceOverhead(const Phase& untraced, const Phase& traced,
                         RunResult* out) {
  const double base = Median(untraced.latencies_ms);
  out->Set("trace.overhead_ratio",
           base > 0 ? Median(traced.latencies_ms) / base - 1.0 : 0.0, "ratio");
}

}  // namespace perfbench
