// Clang thread-safety analysis annotations (no-ops elsewhere).
//
// PIER's correctness story has so far rested on the single-threaded event
// loop (§3.1.2); the only code that runs off the event thread today is the
// Physical Runtime's I/O thread, the metrics registry's concurrent readers
// and the log sink. A sharded multi-reactor runtime (ROADMAP "Deferred")
// would multiply the thread count, so the locking contracts those types
// already follow are written down here as compiler-checked attributes:
// building with clang adds `-Wthread-safety -Werror=thread-safety` (see the
// top-level CMakeLists) and a guarded member touched without its mutex is a
// build error, not a review comment.
//
// Use `pier::Mutex` / `pier::MutexLock` (util/mutex.h) rather than raw
// std::mutex so the analysis can see acquisitions; GCC compiles all of this
// to nothing.

#ifndef PIER_UTIL_THREAD_ANNOTATIONS_H_
#define PIER_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define PIER_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PIER_THREAD_ANNOTATION_(x)  // no-op on GCC/MSVC
#endif

/// Declares a type to be a lockable capability ("mutex").
#define PIER_CAPABILITY(x) PIER_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type whose lifetime holds a capability.
#define PIER_SCOPED_CAPABILITY PIER_THREAD_ANNOTATION_(scoped_lockable)

/// Member may only be read/written while holding `x`.
#define PIER_GUARDED_BY(x) PIER_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define PIER_PT_GUARDED_BY(x) PIER_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires the listed capabilities to be held on entry.
#define PIER_REQUIRES(...) \
  PIER_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function must NOT be called with the listed capabilities held.
#define PIER_EXCLUDES(...) PIER_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function acquires the listed capabilities (and does not release them).
#define PIER_ACQUIRE(...) \
  PIER_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities.
#define PIER_RELEASE(...) \
  PIER_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function tries to acquire and reports success as `ret`.
#define PIER_TRY_ACQUIRE(ret, ...) \
  PIER_THREAD_ANNOTATION_(try_acquire_capability(ret, __VA_ARGS__))

/// Escape hatch for code the analysis cannot model (condition-variable
/// re-acquisition, lock juggling across threads). Use sparingly and say why.
#define PIER_NO_THREAD_SAFETY_ANALYSIS \
  PIER_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // PIER_UTIL_THREAD_ANNOTATIONS_H_
