#include "eval/report.h"

#include <algorithm>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/table_printer.h"

namespace kbqa::eval {

namespace {

void Tally(QaldCounts& counts, const JudgedQuestion& jq) {
  ++counts.total;
  if (jq.is_bfq) ++counts.bfq;
  switch (jq.judgment) {
    case Judgment::kDeclined:
      break;
    case Judgment::kRight:
      ++counts.pro;
      ++counts.ri;
      break;
    case Judgment::kPartial:
      ++counts.pro;
      ++counts.par;
      break;
    case Judgment::kWrong:
      ++counts.pro;
      break;
  }
}

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(q * (sorted.size() - 1));
  return sorted[index];
}

}  // namespace

EvaluationReport EvaluationReport::Build(const RunResult& run,
                                         const Options& options) {
  EvaluationReport report;
  size_t seen_right = 0, unseen_right = 0;
  std::vector<double> latencies;
  latencies.reserve(run.judged.size());

  for (const JudgedQuestion& jq : run.judged) {
    Tally(report.by_kind_[jq.kind.empty() ? "unknown" : jq.kind], jq);
    latencies.push_back(jq.elapsed_ms);
    if (jq.is_bfq) {
      bool right = jq.judgment == Judgment::kRight ||
                   jq.judgment == Judgment::kPartial;
      if (jq.unseen_paraphrase) {
        ++report.num_unseen_bfq_;
        unseen_right += right;
      } else {
        ++report.num_seen_bfq_;
        seen_right += right;
      }
      if (!right &&
          report.failure_examples_.size() < options.max_failure_examples) {
        report.failure_examples_.push_back(jq);
      }
    }
  }
  if (report.num_seen_bfq_ > 0) {
    report.seen_recall_ =
        static_cast<double>(seen_right) / report.num_seen_bfq_;
  }
  if (report.num_unseen_bfq_ > 0) {
    report.unseen_recall_ =
        static_cast<double>(unseen_right) / report.num_unseen_bfq_;
  }
  std::sort(latencies.begin(), latencies.end());
  report.latency_p50_ms_ = Percentile(latencies, 0.50);
  report.latency_p95_ms_ = Percentile(latencies, 0.95);
  report.latency_max_ms_ = latencies.empty() ? 0 : latencies.back();
  return report;
}

void EvaluationReport::Print(std::ostream& os) const {
  TablePrinter table("Per-kind breakdown");
  table.SetHeader({"kind", "#total", "#pro", "#ri", "#par", "P", "R"});
  for (const auto& [kind, counts] : by_kind_) {
    table.AddRow({kind, TablePrinter::Int(counts.total),
                  TablePrinter::Int(counts.pro), TablePrinter::Int(counts.ri),
                  TablePrinter::Int(counts.par),
                  TablePrinter::Num(counts.P(), 2),
                  TablePrinter::Num(counts.R(), 2)});
  }
  table.Print(os);

  os << "\nparaphrase-coverage analysis:\n"
     << "  seen-phrasing BFQs:    " << num_seen_bfq_ << " (recall "
     << TablePrinter::Num(seen_recall_, 2) << ")\n"
     << "  held-out-phrasing BFQs: " << num_unseen_bfq_ << " (recall "
     << TablePrinter::Num(unseen_recall_, 2) << ")\n";

  os << "\nlatency: p50 " << TablePrinter::Num(latency_p50_ms_, 3)
     << " ms, p95 " << TablePrinter::Num(latency_p95_ms_, 3) << " ms, max "
     << TablePrinter::Num(latency_max_ms_, 3) << " ms\n";

  if (!failure_examples_.empty()) {
    os << "\nsampled BFQ failures:\n";
    for (const JudgedQuestion& jq : failure_examples_) {
      os << "  [" << (jq.judgment == Judgment::kDeclined ? "declined"
                                                         : "wrong")
         << (jq.unseen_paraphrase ? ", unseen phrasing" : "") << "] "
         << jq.question << "  (got: '" << jq.system_answer << "', gold: '"
         << jq.gold_answer << "')\n";
    }
  }
}

void PrintObservabilityReport(std::ostream& os, size_t top_spans) {
  obs::RenderMetricsTable(obs::MetricsRegistry::Global().Snapshot(), os);
  obs::WriteSpanSummary(os, top_spans);
}

}  // namespace kbqa::eval
