// Clang thread-safety (capability) annotations, plus the annotated mutex
// primitives the rest of the codebase must use instead of <mutex> directly.
//
// Clang's -Wthread-safety analysis proves lock discipline at compile time:
// members tagged GS_GUARDED_BY(mu_) may only be touched while mu_ is held,
// and functions tagged GS_REQUIRES(mu_) may only be called with it held.
// gcc ignores the attributes (the macros expand to nothing), so both CI
// compilers build the same source.
//
// libstdc++'s std::mutex / std::lock_guard carry no annotations, which
// blinds the analysis; gs::Mutex / gs::MutexLock wrap them with the
// attributes clang needs. gs_analyze (tools/gs_analyze) enforces that src/
// never uses the raw std types outside this header.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define GS_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define GS_THREAD_ANNOTATION__(x)
#endif

/// A type that acts as a lockable capability (clang: `capability`).
#define GS_CAPABILITY(x) GS_THREAD_ANNOTATION__(capability(x))
/// RAII type that acquires on construction and releases on destruction.
#define GS_SCOPED_CAPABILITY GS_THREAD_ANNOTATION__(scoped_lockable)
/// Data member readable/writable only while the capability is held.
#define GS_GUARDED_BY(x) GS_THREAD_ANNOTATION__(guarded_by(x))
/// Pointer member whose pointee is guarded by the capability.
#define GS_PT_GUARDED_BY(x) GS_THREAD_ANNOTATION__(pt_guarded_by(x))
/// Function acquires the capability and holds it on return.
#define GS_ACQUIRE(...) GS_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
/// Function releases the capability (must be held on entry).
#define GS_RELEASE(...) GS_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns the given value.
#define GS_TRY_ACQUIRE(...) \
  GS_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
/// Caller must hold the capability across the call.
#define GS_REQUIRES(...) \
  GS_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (the function acquires it itself).
#define GS_EXCLUDES(...) GS_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define GS_RETURN_CAPABILITY(x) GS_THREAD_ANNOTATION__(lock_returned(x))
/// Escape hatch: suppress the analysis for one function (justify in a
/// comment; gs_analyze does not exempt suppressed code from its own rules).
#define GS_NO_THREAD_SAFETY_ANALYSIS \
  GS_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace gs {

/// std::mutex with capability annotations. Lock it via MutexLock; the raw
/// lock()/unlock() exist for CondVar and the analysis attributes.
class GS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GS_ACQUIRE() { mu_.lock(); }
  void unlock() GS_RELEASE() { mu_.unlock(); }
  bool try_lock() GS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over gs::Mutex (annotated std::lock_guard equivalent).
class GS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() GS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over gs::Mutex. No predicate overload on purpose:
/// clang cannot propagate capabilities into a predicate lambda, so waits
/// are written as explicit `while (!cond) cv.wait(mu);` loops inside the
/// critical section, which the analysis checks directly.
class CondVar {
 public:
  /// Atomically releases `mu` and sleeps; re-acquires before returning.
  void wait(Mutex& mu) GS_REQUIRES(mu) { cv_.wait(mu); }
  /// wait() that also returns at `deadline`: false when the deadline
  /// passed, true when woken (by a notify, or spuriously) before it.
  template <typename Clock, typename Duration>
  bool wait_until(Mutex& mu,
                  const std::chrono::time_point<Clock, Duration>& deadline)
      GS_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline) == std::cv_status::no_timeout;
  }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace gs
