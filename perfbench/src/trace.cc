#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

class TracedSession : public naru::SamplingSession {
 public:
  TracedSession(std::unique_ptr<naru::SamplingSession> inner,
                TracedModel* model)
      : inner_(std::move(inner)), model_(model) {}

  void Dist(const naru::IntMatrix& samples, size_t col,
            naru::Matrix* probs) override {
    const Clock::time_point start = Clock::now();
    inner_->Dist(samples, col, probs);
    model_->Record(SpanKind::kForward, start, samples.rows(), col);
  }

 private:
  std::unique_ptr<naru::SamplingSession> inner_;
  TracedModel* model_;
};

const char* KindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kForward: return "forward";
    case SpanKind::kEnumerate: return "enumerate";
  }
  return "?";
}

}  // namespace

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  // Relaxed: only uniqueness of the index matters.
  thread_local const uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void Recorder::Add(const Span& span) {
  naru::MutexLock lock(&mu_);
  spans_.push_back(span);
}

std::vector<Span> Recorder::spans() const {
  naru::MutexLock lock(&mu_);
  return spans_;
}

bool Recorder::WriteChromeTrace(const std::string& path,
                                Clock::time_point origin) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : spans()) {
    const double ts = MsBetween(origin, s.start) * 1e3;
    const double dur = MsBetween(s.start, s.end) * 1e3;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"rows\":%zu,\"col\":%zu}}",
                 first ? "" : ",\n", KindName(s.kind), s.thread, ts, dur,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.rows, s.col);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void TracedModel::Record(SpanKind kind, Clock::time_point start, size_t rows,
                         size_t col) {
  Span span;
  span.id = recorder_->NextId();
  span.parent = recorder_->parent();
  span.kind = kind;
  span.thread = ThreadIndex();
  span.start = start;
  span.end = Clock::now();
  span.rows = rows;
  span.col = col;
  const double per_row = kind == SpanKind::kEnumerate
                             ? flops_.trunk + flops_.all_heads
                             : flops_.trunk + flops_.head[col];
  span.flops = per_row * static_cast<double>(rows);
  recorder_->Add(span);
}

void TracedModel::ConditionalDist(const naru::IntMatrix& samples, size_t col,
                                  naru::Matrix* probs) {
  const Clock::time_point start = Clock::now();
  inner_->ConditionalDist(samples, col, probs);
  Record(SpanKind::kForward, start, samples.rows(), col);
}

void TracedModel::LogProbRows(const naru::IntMatrix& tuples,
                              std::vector<double>* out_nats) {
  const Clock::time_point start = Clock::now();
  inner_->LogProbRows(tuples, out_nats);
  Record(SpanKind::kEnumerate, start, tuples.rows(), 0);
}

std::unique_ptr<naru::SamplingSession> TracedModel::StartSession(
    size_t batch) {
  return std::make_unique<TracedSession>(inner_->StartSession(batch), this);
}

double UnionMs(std::vector<Interval> intervals, const Interval& window) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double total = 0.0;
  bool open = false;
  Interval cur{};
  for (const Interval& raw : intervals) {
    const Interval iv{std::max(raw.start, window.start),
                      std::min(raw.end, window.end)};
    if (iv.end <= iv.start) continue;
    if (open && iv.start <= cur.end) {
      cur.end = std::max(cur.end, iv.end);
      continue;
    }
    if (open) total += MsBetween(cur.start, cur.end);
    cur = iv;
    open = true;
  }
  if (open) total += MsBetween(cur.start, cur.end);
  return total;
}

}  // namespace perfbench
