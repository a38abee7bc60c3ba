#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/trainer.h"

namespace perfbench {

namespace {

// Every stratum DrawMix fills is reached within a few thousand draws on the
// benchmark's tables; this bound turns a stratum that cannot be reached
// into an error instead of a hang.
constexpr size_t kMaxDraws = 1000000;

// Rows are drawn from a mixture of latent clusters: each column value is a
// cluster-specific anchor plus a Zipf-skewed offset (correlated and skewed),
// with a globally skewed background draw for the rest. Every domain value is
// then planted in at least one row so the encoded domains are exactly
// `domains`.
naru::Table MakeCorrelated(const std::string& name,
                           const std::vector<std::string>& columns,
                           const std::vector<size_t>& domains, size_t rows,
                           uint64_t seed) {
  constexpr size_t kClusters = 40;
  const size_t n = domains.size();
  Rand rng(seed);
  const Zipf cluster(kClusters, 1.2);
  std::vector<std::vector<int64_t>> anchors(n);
  std::vector<Zipf> local;
  std::vector<Zipf> background;
  for (size_t c = 0; c < n; ++c) {
    for (size_t z = 0; z < kClusters; ++z) {
      anchors[c].push_back(static_cast<int64_t>(rng.Below(domains[c])));
    }
    local.emplace_back(std::max<size_t>(1, domains[c] / 20), 1.3);
    background.emplace_back(domains[c], 1.1);
  }

  std::vector<std::vector<int64_t>> values(n, std::vector<int64_t>(rows));
  for (size_t r = 0; r < rows; ++r) {
    const size_t z = cluster.Draw(&rng);
    for (size_t c = 0; c < n; ++c) {
      const int64_t d = static_cast<int64_t>(domains[c]);
      int64_t v;
      if (d == 2) {
        v = static_cast<int64_t>((z >> (c % 5)) & 1);
        if (rng.Uniform() < 0.05) v ^= 1;
      } else if (rng.Uniform() < 0.85) {
        v = (anchors[c][z] + static_cast<int64_t>(local[c].Draw(&rng))) % d;
      } else {
        v = static_cast<int64_t>(background[c].Draw(&rng));
      }
      values[c][r] = v;
    }
  }

  for (size_t c = 0; c < n; ++c) {
    std::vector<uint8_t> seen(domains[c], 0);
    for (int64_t v : values[c]) seen[static_cast<size_t>(v)] = 1;
    for (size_t v = 0; v < domains[c]; ++v) {
      if (!seen[v]) values[c][rng.Below(rows)] = static_cast<int64_t>(v);
    }
  }

  naru::TableBuilder builder(name);
  for (size_t c = 0; c < n; ++c) builder.AddIntColumn(columns[c], values[c]);
  return builder.Build();
}

}  // namespace

naru::Table MakeDmvTable(size_t rows, uint64_t seed) {
  return MakeCorrelated(
      "dmv",
      {"record_type", "reg_class", "state", "county", "body_type",
       "fuel_type", "valid_date", "color", "sco_ind", "sus_ind", "rev_ind"},
      {4, 75, 89, 63, 59, 9, 2101, 225, 2, 2, 2}, rows, seed);
}

naru::Table MakeWideTable(size_t rows, uint64_t seed) {
  const std::vector<size_t> domains = {2,  3,  5,   8,   13,  21,  34,
                                       55, 89, 144, 233, 377, 610, 2600};
  std::vector<std::string> columns;
  for (size_t c = 0; c < domains.size(); ++c) {
    columns.push_back("w" + std::to_string(c));
  }
  return MakeCorrelated("wide", columns, domains, rows, seed);
}

QuerySpec DrawQuery(const naru::Table& table, size_t min_filters,
                    size_t max_filters, Rand* rng) {
  const size_t n = table.num_columns();
  const size_t f =
      min_filters + rng->Below(std::min(max_filters, n) - min_filters + 1);
  std::vector<size_t> cols(n);
  for (size_t c = 0; c < n; ++c) cols[c] = c;
  for (size_t i = 0; i < f; ++i) {
    std::swap(cols[i], cols[i + rng->Below(n - i)]);
  }
  cols.resize(f);
  std::sort(cols.begin(), cols.end());

  const size_t row = rng->Below(table.num_rows());
  QuerySpec spec;
  for (size_t c : cols) {
    const int32_t v = table.column(c).code(row);
    const int32_t top = static_cast<int32_t>(table.column(c).DomainSize()) - 1;
    Filter filter{c, v, v};
    if (table.column(c).DomainSize() >= 10) {
      switch (rng->Below(3)) {
        case 1: filter.lo = 0; break;      // col <= v
        case 2: filter.hi = top; break;    // col >= v
        default: break;                    // col = v
      }
    }
    spec.filters.push_back(filter);
  }
  return spec;
}

int64_t CountRows(const naru::Table& table, const QuerySpec& spec) {
  // Filter at a time over a shrinking list of candidate rows.
  std::vector<uint32_t> rows(table.num_rows());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<uint32_t>(r);
  for (const Filter& f : spec.filters) {
    const std::vector<int32_t>& codes = table.column(f.col).codes();
    size_t kept = 0;
    for (uint32_t r : rows) {
      if (codes[r] >= f.lo && codes[r] <= f.hi) rows[kept++] = r;
    }
    rows.resize(kept);
  }
  return static_cast<int64_t>(rows.size());
}

std::vector<QuerySpec> DrawMix(const naru::Table& table,
                               const naru::NaruEstimator& policy,
                               size_t sampled, size_t enumerated,
                               size_t min_filters, size_t max_filters,
                               Rand* rng) {
  std::vector<QuerySpec> out;
  // Sampled queries: an equal share per power-of-two bucket of true count.
  std::vector<size_t> quota(kCountBuckets, sampled / kCountBuckets);
  for (size_t b = 0; b < sampled % kCountBuckets; ++b) ++quota[b];
  // Enumerated queries: one per equal-width bin of log10 region size.
  std::vector<size_t> bins(enumerated, 1);
  size_t missing = sampled + enumerated;
  for (size_t draws = 0; missing > 0; ++draws) {
    if (draws == kMaxDraws) {
      std::fprintf(stderr, "DrawMix: %zu strata still empty after %zu draws\n",
                   missing, draws);
      std::abort();
    }
    QuerySpec spec = DrawQuery(table, min_filters, max_filters, rng);
    const naru::Query q = ToQuery(table, spec);
    size_t* slot;
    if (!policy.ShouldEnumerate(q)) {
      const int64_t count = CountRows(table, spec);
      size_t b = 0;
      while (b + 1 < kCountBuckets && (int64_t{2} << b) <= count) ++b;
      slot = &quota[b];
    } else {
      const double pos = (q.Log10RegionSize() - 3.0) *
                         static_cast<double>(enumerated);
      if (pos < 0 || pos >= static_cast<double>(enumerated)) continue;
      slot = &bins[static_cast<size_t>(pos)];
    }
    if (*slot == 0) continue;
    --*slot;
    --missing;
    out.push_back(std::move(spec));
  }
  Shuffle(&out, rng);
  return out;
}

naru::Query ToQuery(const naru::Table& table, const QuerySpec& spec) {
  std::vector<naru::ValueSet> regions;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    regions.push_back(naru::ValueSet::All(table.column(c).DomainSize()));
  }
  for (const Filter& f : spec.filters) {
    regions[f.col] = naru::ValueSet::Interval(
        table.column(f.col).DomainSize(), f.lo, f.hi);
  }
  return naru::Query(std::move(regions));
}

std::vector<int64_t> ScanCounts(const naru::Table& table,
                                const std::vector<QuerySpec>& specs) {
  std::vector<int64_t> counts;
  counts.reserve(specs.size());
  for (const QuerySpec& spec : specs) counts.push_back(CountRows(table, spec));
  return counts;
}

std::vector<size_t> Domains(const naru::Table& table) {
  std::vector<size_t> d;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    d.push_back(table.column(c).DomainSize());
  }
  return d;
}

TrainedModel TrainMade(const naru::Table& table, size_t epochs,
                       uint64_t seed) {
  naru::MadeModel::Config cfg;
  cfg.hidden_sizes = {128, 128, 128, 128};
  cfg.residual = true;
  cfg.seed = seed;
  TrainedModel out;
  out.model = std::make_unique<naru::MadeModel>(Domains(table), cfg);
  naru::TrainerConfig tcfg;
  tcfg.epochs = epochs;
  tcfg.shuffle_seed = seed + 1;
  const Clock::time_point t0 = Clock::now();
  naru::Trainer trainer(out.model.get(), tcfg);
  const std::vector<double> curve = trainer.Train(table);
  out.train_s = MsBetween(t0, Clock::now()) / 1e3;
  out.last_epoch_nll_bits = curve.empty() ? 0.0 : curve.back();
  out.size_bytes = out.model->SizeBytes();
  std::fprintf(stderr, "trained %s: %zu epochs in %.2f s, last epoch %.2f bits\n",
               table.name().c_str(), epochs, out.train_s, out.last_epoch_nll_bits);
  return out;
}

FlopModel::FlopModel(const naru::MadeModel& model) {
  const naru::MadeModel::Config& cfg = model.config();
  size_t in = model.encoder().total_width();
  for (size_t h : cfg.hidden_sizes) {
    trunk += 2.0 * static_cast<double>(in) * static_cast<double>(h);
    in = h;
  }
  const double e = static_cast<double>(cfg.encoder.embed_dim);
  for (size_t c = 0; c < model.num_columns(); ++c) {
    const double d = static_cast<double>(model.DomainSize(c));
    const bool reuse = cfg.embedding_reuse && model.encoder().encoding(c) ==
                                                  naru::ColEncoding::kEmbedding;
    const double flops = reuse ? 2.0 * static_cast<double>(in) * e + 2.0 * e * d
                               : 2.0 * static_cast<double>(in) * d;
    head.push_back(flops);
    all_heads += flops;
  }
}

}  // namespace perfbench
