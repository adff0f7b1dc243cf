#ifndef KBQA_UTIL_ATOMIC_FILE_H_
#define KBQA_UTIL_ATOMIC_FILE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "util/status.h"

namespace kbqa::util {

/// The byte sink WriteFileAtomically hands to its writer: buffered writes
/// into the temp file, with a sticky failure flag the writer need not
/// check between writes.
class FileSink {
 public:
  explicit FileSink(std::FILE* f) : f_(f) {}
  bool ok() const { return ok_; }

  void WriteBytes(const void* data, size_t n);
  void WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteF64(double v) { WriteBytes(&v, sizeof(v)); }

 private:
  std::FILE* f_;
  int64_t written_ = 0;
  bool ok_ = true;
};

/// Writes the file at `path` crash-safely: `write` fills a temp file in the
/// same directory (`path` + ".tmp." + pid), which is flushed, fsynced and
/// renamed over `path`; the directory is then fsynced (best effort) so the
/// rename itself persists. If `write` leaves the sink failed or any step
/// fails, the temp file is removed and whatever was at `path` is untouched:
/// a writer that dies mid-write never clobbers the previous good file.
[[nodiscard]] Status WriteFileAtomically(
    const std::string& path, const std::function<void(FileSink&)>& write);

/// Test-only failure injection: every FileSink fails (as a short write)
/// once it has been asked to write more than `bytes` bytes, simulating a
/// crash or a full disk mid-write. Negative disables (the default).
void SetWriteFailureAfterBytesForTest(int64_t bytes);

}  // namespace kbqa::util

#endif  // KBQA_UTIL_ATOMIC_FILE_H_
