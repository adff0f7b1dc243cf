#ifndef KBQA_UTIL_MUTEX_H_
#define KBQA_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace kbqa {

/// std::mutex wrapped as a Clang thread-safety *capability*, so members can
/// be declared `GUARDED_BY(mu_)` and the analysis proves every access holds
/// the lock. The lowercase lock/unlock/try_lock names keep the type a
/// standard Lockable: std::lock_guard<Mutex>, std::unique_lock<Mutex>, and
/// CondVar below all work with it. On GCC the annotations vanish and this
/// is a zero-cost shim over std::mutex.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over Mutex, annotated as a scoped capability: constructing it
/// tells the analysis the mutex is held until end of scope. Direct
/// replacement for std::lock_guard<std::mutex> at annotated call sites.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Wait takes the mutex the caller
/// already holds (REQUIRES tells the analysis so); callers loop on their
/// predicate around Wait — the predicate then lives in the annotated
/// caller's body where guarded reads are checked, instead of inside an
/// unannotatable lambda handed to std::condition_variable::wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; reacquires `mu` before
  /// returning. Spurious wakeups happen — always loop on the predicate.
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  /// As Wait, but gives up once `deadline` passes. Returns false on
  /// timeout, true on a notification (or spurious wakeup) — either way the
  /// caller re-checks its predicate, so the return value only distinguishes
  /// "the clock ran out" for callers pacing work (e.g. the serving
  /// reaper sleeping until the earliest queued deadline).
  bool WaitUntil(Mutex& mu,
                 std::chrono::steady_clock::time_point deadline) REQUIRES(mu) {
    return cv_.wait_until(mu, deadline) != std::cv_status::timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  /// condition_variable_any works with any Lockable (our Mutex directly) —
  /// slightly heavier than std::condition_variable but it keeps the
  /// capability type in the signature the analysis checks.
  std::condition_variable_any cv_;
};

}  // namespace kbqa

#endif  // KBQA_UTIL_MUTEX_H_
