#ifndef KBQA_UTIL_MEMORY_BUDGET_H_
#define KBQA_UTIL_MEMORY_BUDGET_H_

#include <cstdint>
#include <string_view>

namespace kbqa::util {

/// Memory accounting exported through the global metrics registry. How a
/// process budget is split across the engine's consumers is decided by
/// its one owner (core::KbqaSystem), which also publishes the
/// `mem.budget.bytes` and `mem.<component>.budget_bytes` gauges.
class MemoryBudget {
 public:
  MemoryBudget() = delete;

  /// Sets `mem.<name>.bytes` in the global metrics registry to `bytes`.
  static void Publish(std::string_view name, uint64_t bytes);
};

/// Current process resident-set size in bytes (Linux /proc/self/statm;
/// 0 where unavailable). Ground truth the mem.* accounting gauges are
/// compared against on /statusz.
uint64_t ProcessResidentBytes();

}  // namespace kbqa::util

#endif  // KBQA_UTIL_MEMORY_BUDGET_H_
