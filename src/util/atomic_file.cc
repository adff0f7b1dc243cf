#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <utility>

#include "util/coding.h"

namespace kbqa::util {

namespace {

/// The byte count after which every FileSink starts failing; negative =
/// disabled.
std::atomic<int64_t> g_write_failure_after_bytes{-1};

}  // namespace

void SetWriteFailureAfterBytesForTest(int64_t bytes) {
  g_write_failure_after_bytes.store(bytes, std::memory_order_relaxed);
}

void FileSink::Write(std::string_view bytes) {
  const size_t n = bytes.size();
  if (!ok_ || n == 0) return;
  const int64_t fail_after =
      g_write_failure_after_bytes.load(std::memory_order_relaxed);
  if (fail_after >= 0 && written_ + static_cast<int64_t>(n) > fail_after) {
    ok_ = false;  // injected short write
    return;
  }
  written_ += static_cast<int64_t>(n);
  if (std::fwrite(bytes.data(), 1, n, f_) != n) ok_ = false;
}

void FileSink::WriteSection(std::string_view bytes) {
  WriteU64(bytes.size());
  Write(bytes);
  WriteU64(Fnv1a64(bytes.data(), bytes.size()));
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

Result<FramedFileReader> FramedFileReader::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open for read: " + path);
  FramedFileReader reader(fd, path);  // owns fd from here on
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) return Status::IoError("cannot size: " + path);
  reader.size_ = static_cast<uint64_t>(size);
  if (reader.size_ < sizeof(reader.magic_) ||
      !reader.ReadAt(0, &reader.magic_, sizeof(reader.magic_))) {
    return reader.Corruption("truncated header");
  }
  reader.offset_ = sizeof(reader.magic_);
  return reader;
}

FramedFileReader::FramedFileReader(int fd, std::string path)
    : fd_(fd), path_(std::move(path)) {}

FramedFileReader::FramedFileReader(FramedFileReader&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      size_(other.size_),
      offset_(other.offset_),
      magic_(other.magic_) {}

FramedFileReader& FramedFileReader::operator=(
    FramedFileReader&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    size_ = other.size_;
    offset_ = other.offset_;
    magic_ = other.magic_;
  }
  return *this;
}

FramedFileReader::~FramedFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status FramedFileReader::ReadSection(std::string_view name, std::string* out) {
  const std::string section = std::string(name) + " section";
  uint64_t len = 0;
  if (remaining() < 16 || !ReadAt(offset_, &len, sizeof(len))) {
    return Corruption("truncated " + section);
  }
  if (len > remaining() - 16) return Corruption("bad " + section + " length");
  out->resize(len);
  uint64_t checksum = 0;
  if (!ReadAt(offset_ + 8, out->data(), out->size()) ||
      !ReadAt(offset_ + 8 + len, &checksum, sizeof(checksum))) {
    return Corruption("truncated " + section);
  }
  if (checksum != Fnv1a64(out->data(), out->size())) {
    return Corruption(section + " checksum mismatch");
  }
  offset_ += 16 + len;
  return Status::Ok();
}

bool FramedFileReader::ReadAt(uint64_t offset, void* dst, size_t n) const {
  uint8_t* out = static_cast<uint8_t*>(dst);
  while (n > 0) {
    const ssize_t got = ::pread(fd_, out, n, static_cast<off_t>(offset));
    if (got <= 0) return false;
    out += got;
    offset += static_cast<uint64_t>(got);
    n -= static_cast<size_t>(got);
  }
  return true;
}

Status FramedFileReader::Corruption(std::string_view what) const {
  return Status::Corruption(std::string(what) + " in " + path_);
}

}  // namespace kbqa::util
