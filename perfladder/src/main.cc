// perfladder: the KBQA performance ladder.
//
//   perfladder --workload <serve_zipf|batch_uniform|live_mixed> --seed <n>
//              --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints human-readable progress, a report line (machine fingerprint,
// generator health, the workload's own metric names), and as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, and the spans go to <trace-dir>.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "trace.h"
#include "workloads.h"

namespace perfladder {
namespace {

// The metric names every workload prints, in print order.
constexpr const char* kEndToEnd[] = {"setup_s", "peak_rss_mb", "qps",
                                     "p50_us"};
constexpr const char* kPerLayer[] = {
    "workload.p99_us",
    "serve.queue_wait_us.p50",
    "serve.queue_wait_us.p99",
    "serve.service_us.p50",
    "serve.service_us.p99",
    "serve.batch_size.mean",
    "serve.rejected",
    "serve.shed_expired",
    "obs.wide_events.recorded",
    "obs.wide_events.dropped",
    "obs.record_ns",
    "obs.stage.ner_ns",
    "obs.stage.conceptualize_ns",
    "obs.stage.template_match_ns",
    "obs.stage.score_ns",
    "obs.stage.rank_ns",
    "core.answer_cache.hit_ratio",
    "core.value_cache.hit_ratio",
    "core.value_cache.evictions",
    "mem.value_cache_mb",
    "mem.answer_cache_mb",
    "mem.ekb_blocks_mb",
    "mem.ekb_compressed_mb",
    "core.answer_ns.p50",
    "core.answer_ns.p99",
    "core.answer_all_call_ms.p50",
    "core.template_lookup_ns",
    "core.distribution_ns",
    "core.templates_per_q",
    "core.predicates_per_q",
    "core.values_per_q",
    "core.unattributed_ns",
    "nlp.tokenize_ns",
    "nlp.ner_ns",
    "nlp.entities_per_q",
    "taxonomy.conceptualize_ns",
    "taxonomy.calls_per_q",
    "rdf.lookups_per_q",
    "rdf.cekb.try_objects_ns",
    "rdf.cekb.hit_ratio",
    "rdf.csr.objects_via_path_ns",
    "rdf.live.pin_ns",
    "rdf.live.objects_via_path_ns",
    "rdf.live.apply_us",
    "rdf.live.merges",
    "rdf.live.merge_s",
    "util.pool.create_us",
    "util.pool.parallel_efficiency",
    "setup.world_s",
    "setup.corpus_s",
    "setup.train_s",
    "setup.expand_s",
    "setup.compress_s",
    "trace.overhead.qps",
    "trace.overhead.p50_us",
    "trace.overhead.p99_us",
    "trace.spans",
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfladder: %s\nusage: perfladder --workload "
               "<serve_zipf|batch_uniform|live_mixed> --seed <n> --seconds "
               "<s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

int CountCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string CpuModel() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ')) model.erase(0, 1);
        while (!model.empty() &&
               (model.back() == '\n' || model.back() == ' ')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `names` in order, from `set`; false (with a message) when one is missing.
bool MetricsJson(const MetricSet& set, const char* const* names, size_t count,
                 std::string* json) {
  *json = "{";
  for (size_t i = 0; i < count; ++i) {
    bool found = false;
    for (const auto& [name, value_unit] : set.entries()) {
      if (name != names[i]) continue;
      if (i > 0) *json += ", ";
      *json += JsonString(name) + ": {\"value\": " +
               JsonNumber(value_unit.first) +
               ", \"unit\": " + JsonString(value_unit.second) + "}";
      found = true;
      break;
    }
    if (!found) {
      std::fprintf(stderr, "perfladder: metric %s was not measured\n",
                   names[i]);
      return false;
    }
  }
  *json += "}";
  return true;
}

void PrintSpanSummary(const RunConfig& config, const std::string& trace_dir,
                      RunOutput* out) {
  const std::vector<Span> spans = trace::Collect();
  out->layers.Set("trace.spans", static_cast<double>(spans.size()), "count");
  std::printf("[perfladder] spans: %zu; self time per span name:\n",
              spans.size());
  std::printf("  %-28s %10s %14s %14s\n", "span", "count", "mean_ns",
              "mean_self_ns");
  for (const SpanSummary& s : trace::Summarize(spans)) {
    const double n = static_cast<double>(s.count);
    std::printf("  %-28s %10llu %14.1f %14.1f\n", s.name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_ns / n,
                s.self_ns / n);
  }
  // The file keeps whole requests, every stride-th request id, so a serve
  // run's millions of spans stay a file of bounded size.
  constexpr size_t kMaxWrittenSpans = 200000;
  const uint64_t stride = spans.size() / kMaxWrittenSpans + 1;
  std::vector<Span> written;
  for (const Span& span : spans) {
    if (span.request % stride == 0) written.push_back(span);
  }
  const std::string path = trace_dir + "/" + config.workload + ".jsonl";
  if (trace::WriteJsonl(written, path)) {
    std::printf("[perfladder] %zu spans (request ids divisible by %llu) "
                "written to %s\n",
                written.size(), static_cast<unsigned long long>(stride),
                path.c_str());
  } else {
    std::printf("[perfladder] could not write spans to %s\n", path.c_str());
  }
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string trace_dir = ".";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0) || config.seconds > 120) {
        Usage("--seconds takes a number in (0, 120]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      config.traced = value == "1";
      have_trace = true;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  void (*run)(const RunConfig&, RunOutput*) = nullptr;
  if (config.workload == "serve_zipf") run = RunServeZipf;
  if (config.workload == "batch_uniform") run = RunBatchUniform;
  if (config.workload == "live_mixed") run = RunLiveMixed;
  if (run == nullptr) Usage(("unknown workload " + config.workload).c_str());
  config.nproc = CountCpus();

  std::printf("[perfladder] workload %s, seed %llu, %.1f s, trace %d, "
              "%d cpus\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.traced ? 1 : 0, config.nproc);
  std::fflush(stdout);
  RunOutput out;
  const CpuTicks ticks_before = CpuTicks::Read();
  run(config, &out);
  const CpuTicks ticks_after = CpuTicks::Read();
  // The share of CPU time the hypervisor gave to others while this run
  // wanted it: wall-clock figures from runs with a high share are slower
  // for reasons outside the program.
  const double steal_share =
      ticks_after.total > ticks_before.total
          ? (ticks_after.steal - ticks_before.steal) /
                (ticks_after.total - ticks_before.total)
          : 0;
  trace::SetEnabled(false);
  out.end_to_end.Set("peak_rss_mb", PeakRssMb(), "MiB");
  if (config.traced) PrintSpanSummary(config, trace_dir, &out);

  const uint64_t attempted = out.tally.attempted.load();
  const uint64_t failed = out.tally.failed.load();
  const uint64_t wrong = out.tally.wrong.load();
  out.named.Set("failed_share",
                attempted == 0 ? 1.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted),
                "ratio");
  for (const auto& [name, value_unit] : out.named.entries()) {
    std::printf("[perfladder] %s = %.6g %s\n", name.c_str(), value_unit.first,
                value_unit.second.c_str());
  }
  std::printf("[perfladder] host steal share over the run: %.3f\n",
              steal_share);

  // The report line: what ran, where, and how the generators kept up.
  std::string report = "{\"report\": {\"workload\": " +
                       JsonString(config.workload) +
                       ", \"seed\": " + std::to_string(config.seed) +
                       ", \"seconds\": " + JsonNumber(config.seconds) +
                       ", \"trace\": " + (config.traced ? "1" : "0") +
                       ", \"machine\": {\"nproc\": " +
                       std::to_string(config.nproc) +
                       ", \"cpu_model\": " + JsonString(CpuModel()) +
                       ", \"build_type\": " +
                       JsonString(PERFLADDER_BUILD_TYPE) +
                       ", \"compiler\": " + JsonString(PERFLADDER_COMPILER) +
                       ", \"steal_share\": " + JsonNumber(steal_share) +
                       "}, \"threads\": {";
  for (size_t i = 0; i < out.threads.size(); ++i) {
    report += (i ? ", " : "") + JsonString(out.threads[i].first) + ": " +
              JsonNumber(out.threads[i].second);
  }
  report += "}, \"generator\": {";
  for (size_t i = 0; i < out.generator.size(); ++i) {
    report += (i ? ", " : "") + JsonString(out.generator[i].first) + ": " +
              JsonNumber(out.generator[i].second);
  }
  report += "}, \"host\": {";
  for (size_t i = 0; i < out.host.size(); ++i) {
    report += (i ? ", " : "") + JsonString(out.host[i].first) + ": " +
              JsonNumber(out.host[i].second);
  }
  report += "}, \"named\": {";
  for (size_t i = 0; i < out.named.entries().size(); ++i) {
    const auto& [name, value_unit] = out.named.entries()[i];
    report += (i ? ", " : "") + JsonString(name) + ": {\"value\": " +
              JsonNumber(value_unit.first) +
              ", \"unit\": " + JsonString(value_unit.second) + "}";
  }
  report += "}}}";
  std::printf("%s\n", report.c_str());

  std::string metrics;
  const bool complete =
      config.traced
          ? MetricsJson(out.layers, kPerLayer, std::size(kPerLayer), &metrics)
          : MetricsJson(out.end_to_end, kEndToEnd, std::size(kEndToEnd),
                        &metrics);
  if (!complete) return 1;
  if (wrong > 0) {
    std::printf("[perfladder] %llu answers differed from the reference\n",
                static_cast<unsigned long long>(wrong));
  }
  const bool correct = wrong == 0 && out.checks_passed && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfladder

int main(int argc, char** argv) { return perfladder::Main(argc, argv); }
