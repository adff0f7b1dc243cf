#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>

namespace kbqa::util {

namespace {

/// The byte count after which every FileSink starts failing; negative =
/// disabled.
std::atomic<int64_t> g_write_failure_after_bytes{-1};

}  // namespace

void SetWriteFailureAfterBytesForTest(int64_t bytes) {
  g_write_failure_after_bytes.store(bytes, std::memory_order_relaxed);
}

void FileSink::WriteBytes(const void* data, size_t n) {
  if (!ok_ || n == 0) return;
  const int64_t fail_after =
      g_write_failure_after_bytes.load(std::memory_order_relaxed);
  if (fail_after >= 0 && written_ + static_cast<int64_t>(n) > fail_after) {
    ok_ = false;  // injected short write
    return;
  }
  written_ += static_cast<int64_t>(n);
  if (std::fwrite(data, 1, n, f_) != n) ok_ = false;
}

Status WriteFileAtomically(const std::string& path,
                           const std::function<void(FileSink&)>& write) {
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for write: " + tmp_path);
  }
  FileSink sink(f);
  write(sink);
  // Durability before visibility: data must be on disk before the rename
  // makes it the file at `path`.
  bool ok = sink.ok();
  if (ok && std::fflush(f) != 0) ok = false;
  if (ok && ::fsync(::fileno(f)) != 0) ok = false;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp_path.c_str());
    return Status::IoError("short write: " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot publish: " + path);
  }
  // Persist the rename itself: fsync the containing directory (best
  // effort — some filesystems refuse directory fds).
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    (void)::close(dir_fd);
  }
  return Status::Ok();
}

}  // namespace kbqa::util
