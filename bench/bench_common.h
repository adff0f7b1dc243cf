#ifndef KBQA_BENCH_BENCH_COMMON_H_
#define KBQA_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "eval/runner.h"
#include "obs/obs.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace kbqa::bench {

/// Exact-percentile latency reservoir: keeps every sample and sorts once at
/// read time. Benches record at most a few million samples, so the memory
/// cost is trivial and the percentiles are exact — the ground truth the
/// log-bucketed obs histograms (MetricsSnapshot::ValueAtQuantile) are
/// validated against. Not thread-safe; give each load thread its own and
/// Merge at the end.
class LatencyReservoir {
 public:
  void Record(uint64_t nanos) {
    sorted_ = sorted_ && (samples_.empty() || nanos >= samples_.back());
    samples_.push_back(nanos);
  }

  void Merge(const LatencyReservoir& other) {
    sorted_ = false;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

  size_t count() const { return samples_.size(); }

  /// Nearest-rank percentile of recorded samples; q in [0, 1]. 0 when
  /// empty.
  uint64_t ValueAtQuantile(double q) const {
    if (samples_.empty()) return 0;
    Sort();
    q = std::min(std::max(q, 0.0), 1.0);
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples_.size())));
    if (rank > 0) --rank;
    return samples_[std::min(rank, samples_.size() - 1)];
  }

  double MeanNanos() const {
    if (samples_.empty()) return 0;
    double sum = 0;
    for (uint64_t s : samples_) sum += static_cast<double>(s);
    return sum / static_cast<double>(samples_.size());
  }

 private:
  void Sort() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<uint64_t> samples_;
  mutable bool sorted_ = true;
};

/// Builds the standard experiment used by every table bench, printing
/// setup progress. Terminates the process on failure (benches have no
/// recovery path).
inline std::unique_ptr<eval::Experiment> BuildStandardExperiment() {
  std::printf("[setup] generating world + corpus and training KBQA...\n");
  // Setup time also lands in the registry, so a post-run metrics dump
  // shows how long the world build took relative to the measured phase.
  KBQA_TRACE_SPAN("bench.setup.build_experiment");
  Timer timer;
  auto built = eval::Experiment::Build(eval::ExperimentConfig::Standard());
  if (!built.ok()) {
    std::fprintf(stderr, "experiment build failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(1);
  }
  auto experiment = std::move(built).value();
  std::printf(
      "[setup] done in %.1fs: %zu KB triples, %zu QA pairs, %zu templates, "
      "%zu predicates\n",
      timer.ElapsedSeconds(), experiment->world().kb.num_triples(),
      experiment->train_corpus().size(),
      experiment->kbqa().template_store().num_templates(),
      experiment->kbqa().em_stats().num_predicates);
  return experiment;
}

/// Prints the paper's reported numbers as context above a measured table.
inline void PrintPaperNote(const char* note) {
  std::printf("\n[paper] %s\n", note);
}

/// One row of a QALD-style effectiveness table.
struct QaldRow {
  std::string system;
  eval::RunResult run;
};

/// Prints a QALD-style table (Tables 7/8/9 columns): #pro #ri #par R R*
/// R_BFQ R*_BFQ P P*. `paper_rows` are literal reference rows from the
/// paper, rendered above the measured ones.
inline void PrintQaldTable(const std::string& title,
                           const std::vector<std::vector<std::string>>&
                               paper_rows,
                           const std::vector<QaldRow>& rows,
                           std::ostream& os) {
  TablePrinter table(title);
  table.SetHeader({"system", "#pro", "#ri", "#par", "R", "R*", "R_BFQ",
                   "R*_BFQ", "P", "P*"});
  for (const auto& row : paper_rows) table.AddRow(row);
  for (const QaldRow& row : rows) {
    const eval::QaldCounts& c = row.run.counts;
    const eval::QaldCounts& b = row.run.bfq_only;
    table.AddRow({row.system, TablePrinter::Int(c.pro),
                  TablePrinter::Int(c.ri), TablePrinter::Int(c.par),
                  TablePrinter::Num(c.R(), 2), TablePrinter::Num(c.RStar(), 2),
                  TablePrinter::Num(b.R(), 2),
                  TablePrinter::Num(b.RStar(), 2),
                  TablePrinter::Num(c.P(), 2),
                  TablePrinter::Num(c.PStar(), 2)});
  }
  table.Print(os);
}

}  // namespace kbqa::bench

#endif  // KBQA_BENCH_BENCH_COMMON_H_
