// Tracing for the benchmark's traced run: spans recorded from the
// benchmark's own code, kept in memory and written out at the end.
//
// Model work is seen through TracedModel, a decorator around the public
// ConditionalModel / SamplingSession interface that forwards every virtual
// and records one span per forward call (session Dist or ConditionalDist)
// and per LogProbRows call (exact enumeration). Request spans are recorded
// by the workloads around their calls into the program.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/conditional_model.h"
#include "inputs.h"
#include "util/thread_annotations.h"

namespace perfbench {

enum class SpanKind : uint8_t { kRequest, kForward, kEnumerate };

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = no parent recorded
  SpanKind kind = SpanKind::kRequest;
  uint32_t thread = 0;
  Clock::time_point start;
  Clock::time_point end;
  size_t rows = 0;  ///< model rows evaluated (forward / enumerate spans)
  size_t col = 0;   ///< model position of a forward span
  double flops = 0.0;  ///< dense-equivalent GEMM FLOPs (FlopModel)
};

class Recorder {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// The span that model calls made from now on are attributed to; set by a
  /// workload whose requests run one at a time (0 = unattributed).
  void SetParent(uint64_t id) { parent_.store(id, std::memory_order_relaxed); }
  uint64_t parent() const { return parent_.load(std::memory_order_relaxed); }

  void Add(const Span& span);
  std::vector<Span> spans() const;

  /// Writes every span as Chrome trace-event JSON (viewable in Perfetto).
  bool WriteChromeTrace(const std::string& path, Clock::time_point origin) const;

 private:
  /// Relaxed: ids only need to be unique.
  std::atomic<uint64_t> next_id_{1};
  /// Relaxed: set between requests by the one driving thread; model calls
  /// it attributes happen after that store on threads the call starts.
  std::atomic<uint64_t> parent_{0};
  mutable naru::Mutex mu_;
  std::vector<Span> spans_ NARU_GUARDED_BY(mu_);
};

/// Small per-thread index for span records.
uint32_t ThreadIndex();

/// Forwards every ConditionalModel virtual to `inner` (not owned) and
/// records forward and enumeration spans into `recorder`, with FLOPs
/// computed from `inner`'s shapes.
class TracedModel : public naru::ConditionalModel {
 public:
  TracedModel(naru::MadeModel* inner, Recorder* recorder)
      : inner_(inner), recorder_(recorder), flops_(*inner) {}

  size_t num_columns() const override { return inner_->num_columns(); }
  size_t DomainSize(size_t col) const override {
    return inner_->DomainSize(col);
  }
  size_t TableColumnOf(size_t model_col) const override {
    return inner_->TableColumnOf(model_col);
  }
  size_t num_table_columns() const override {
    return inner_->num_table_columns();
  }
  bool PositionIsWildcard(const naru::Query& query,
                          size_t pos) const override {
    return inner_->PositionIsWildcard(query, pos);
  }
  double MaskProbsToRegion(const naru::Query& query, const int32_t* prefix,
                           size_t pos, float* probs_row) const override {
    return inner_->MaskProbsToRegion(query, prefix, pos, probs_row);
  }
  int32_t FallbackCode(const naru::Query& query, size_t pos) const override {
    return inner_->FallbackCode(query, pos);
  }
  void EncodeTableRow(const int32_t* table_codes,
                      int32_t* model_codes) const override {
    inner_->EncodeTableRow(table_codes, model_codes);
  }
  void DecodeToTableRow(const int32_t* model_codes,
                        int32_t* table_codes) const override {
    inner_->DecodeToTableRow(model_codes, table_codes);
  }
  void ConditionalDist(const naru::IntMatrix& samples, size_t col,
                       naru::Matrix* probs) override;
  void LogProbRows(const naru::IntMatrix& tuples,
                   std::vector<double>* out_nats) override;
  std::unique_ptr<naru::SamplingSession> StartSession(size_t batch) override;
  bool SupportsConcurrentSampling() const override {
    return inner_->SupportsConcurrentSampling();
  }
  void SetInferenceKernel(naru::KernelKind kernel) override {
    inner_->SetInferenceKernel(kernel);
  }
  naru::KernelKind inference_kernel() const override {
    return inner_->inference_kernel();
  }
  bool SupportsStackedEvaluation() const override {
    return inner_->SupportsStackedEvaluation();
  }
  size_t StackedWidthHint() const override {
    return inner_->StackedWidthHint();
  }

  /// Records one model span that ran over [start, now).
  void Record(SpanKind kind, Clock::time_point start, size_t rows,
              size_t col);

 private:
  naru::MadeModel* inner_;
  Recorder* recorder_;
  FlopModel flops_;
};

/// Closed-open time interval.
struct Interval {
  Clock::time_point start;
  Clock::time_point end;
};

/// Total length (ms) of the union of `intervals` clipped to `window`.
double UnionMs(std::vector<Interval> intervals, const Interval& window);

}  // namespace perfbench
