#ifndef KBQA_UTIL_ATOMIC_FILE_H_
#define KBQA_UTIL_ATOMIC_FILE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace kbqa::util {

// The one way bytes reach disk (WriteFileAtomically), and the one framing
// every binary offline artifact shares — the KB snapshot v3, the
// compressed expanded KB and the learned model (DESIGN.md §7):
//
//   u64 magic, then sections [u64 len][len bytes][u64 FNV-1a of the bytes],
//   then an optional raw tail the artifact indexes and checksums itself.
//
// Integers are little-endian. FileSink::WriteSection writes a section;
// FramedFileReader reads them back.

/// The byte sink WriteFileAtomically hands to its writer: buffered writes
/// into the temp file, with a sticky failure flag the writer need not
/// check between writes.
class FileSink {
 public:
  explicit FileSink(std::FILE* f) : f_(f) {}
  bool ok() const { return ok_; }

  void Write(std::string_view bytes);
  void WriteU64(uint64_t v) {
    Write(std::string_view(reinterpret_cast<const char*>(&v), sizeof(v)));
  }
  /// Writes one framed section: [u64 len][bytes][u64 FNV-1a of bytes].
  void WriteSection(std::string_view bytes);

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

/// Reads a framed artifact. `Open` reads the magic; `ReadSection` then
/// reads the sections in order, and `ReadAt` serves the raw tail. Every
/// length is gated against the bytes the file actually holds before a
/// buffer is sized from it, so a forged or bit-flipped header fails as a
/// clean Corruption, never as a huge allocation.
///
/// Thread safety: `ReadAt` is safe to call concurrently (pread carries its
/// own offset); `ReadSection` advances the cursor and is not.
class FramedFileReader {
 public:
  /// IoError when `path` cannot be opened; Corruption when it is too short
  /// to hold a magic.
  [[nodiscard]] static Result<FramedFileReader> Open(const std::string& path);

  FramedFileReader(FramedFileReader&& other) noexcept;
  FramedFileReader& operator=(FramedFileReader&& other) noexcept;
  FramedFileReader(const FramedFileReader&) = delete;
  FramedFileReader& operator=(const FramedFileReader&) = delete;
  ~FramedFileReader();

  uint64_t magic() const { return magic_; }
  /// File offset of the next section, or of the raw tail once every
  /// section has been read.
  uint64_t offset() const { return offset_; }
  uint64_t remaining() const { return size_ - offset_; }

  /// Reads the section at the cursor into `*out` and moves past it. A
  /// length the file cannot hold, a short read or a checksum mismatch is a
  /// Corruption naming the "<name> section".
  [[nodiscard]] Status ReadSection(std::string_view name, std::string* out);

  /// Reads exactly `n` bytes at absolute file offset `offset`. False on a
  /// short read or an I/O error.
  [[nodiscard]] bool ReadAt(uint64_t offset, void* dst, size_t n) const;

  /// Corruption("<what> in <path>"): the one error shape of every
  /// artifact loader.
  Status Corruption(std::string_view what) const;

 private:
  FramedFileReader(int fd, std::string path);

  int fd_ = -1;
  std::string path_;
  uint64_t size_ = 0;
  uint64_t offset_ = 0;
  uint64_t magic_ = 0;
};

}  // namespace kbqa::util

#endif  // KBQA_UTIL_ATOMIC_FILE_H_
