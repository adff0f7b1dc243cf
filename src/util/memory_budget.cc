#include "util/memory_budget.h"

#include <unistd.h>

#include <cstdio>
#include <string>

#include "obs/metrics.h"

namespace kbqa::util {

void MemoryBudget::Publish(std::string_view name, uint64_t bytes) {
  std::string gauge = "mem.";
  gauge.append(name);
  gauge += ".bytes";
  obs::MetricsRegistry::Global().GetGauge(gauge)->Set(
      static_cast<double>(bytes));
}

uint64_t ProcessResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size_pages = 0;     // NOLINT(runtime/int)
  unsigned long long resident_pages = 0; // NOLINT(runtime/int)
  const int matched =
      std::fscanf(f, "%llu %llu", &size_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);  // NOLINT(runtime/int)
  if (page <= 0) return 0;
  return resident_pages * static_cast<uint64_t>(page);
}

}  // namespace kbqa::util
