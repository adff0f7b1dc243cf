#ifndef PERFLADDER_WORKLOADS_H_
#define PERFLADDER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ladder.h"

namespace perfladder {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool traced = false;
  int nproc = 1;
};

/// Everything one run reports.
struct RunOutput {
  /// End-to-end metrics, printed when the run is untraced.
  MetricSet end_to_end;
  /// Per-layer metrics, printed when the run is traced.
  MetricSet layers;
  Tally tally;
  /// The workload's own names for its end-to-end figures (serve_p50_us,
  /// batch_qps, live_merge_s, ...), for the report line.
  MetricSet named;
  /// Thread counts by role, and open-loop generator health.
  std::vector<std::pair<std::string, double>> threads;
  std::vector<std::pair<std::string, double>> generator;
  /// Host steal over the timed phase, and how many rate windows were calm.
  std::vector<std::pair<std::string, double>> host;
  /// False when a structural check failed (e.g. no live merge completed).
  bool checks_passed = true;
};

/// The figures a timed phase yields, before they are named per workload.
struct PhaseFigures {
  double qps = 0;
  double p50_us = 0;
  /// serve_zipf and live_mixed: median over calm 50 ms windows of each
  /// window's p99; batch_uniform: p99 of the calls in calm windows.
  double p99_us = 0;
  /// p99 over every sample of the phase, pauses included (report only).
  double p99_all_us = 0;
  /// Host steal notes for the report line.
  std::vector<std::pair<std::string, double>> host;
};

void RunServeZipf(const RunConfig& config, RunOutput* out);
void RunBatchUniform(const RunConfig& config, RunOutput* out);
void RunLiveMixed(const RunConfig& config, RunOutput* out);

}  // namespace perfladder

#endif  // PERFLADDER_WORKLOADS_H_
