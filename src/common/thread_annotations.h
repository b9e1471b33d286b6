#pragma once

/// Clang thread-safety-analysis attribute macros (the `-Wthread-safety`
/// static checker): annotating which mutex guards which data turns the
/// lock discipline behind the repo's byte-identical snapshots into a
/// build-time guarantee. Under any compiler (or clang build) without the
/// attributes, every macro expands to nothing, so the annotations cost
/// nothing outside the `static-analysis` CI leg.
///
/// Apply them through `common/mutex.h`'s annotated wrappers: libstdc++'s
/// std::mutex/std::lock_guard carry no capability attributes, so guarding
/// data with a bare std::mutex tells the analysis nothing.

#if defined(__clang__) && defined(__has_attribute)
#define DANA_THREAD_ANNOTATION_IMPL(x) __has_attribute(x)
#else
#define DANA_THREAD_ANNOTATION_IMPL(x) 0
#endif

#if DANA_THREAD_ANNOTATION_IMPL(guarded_by)
#define DANA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DANA_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Class attribute: the type is a lockable capability ("mutex").
#define CAPABILITY(x) DANA_THREAD_ANNOTATION(capability(x))

/// Class attribute: RAII type that acquires a capability in its
/// constructor and releases it in its destructor.
#define SCOPED_CAPABILITY DANA_THREAD_ANNOTATION(scoped_lockable)

/// Data member attribute: reads and writes require holding `x`.
#define GUARDED_BY(x) DANA_THREAD_ANNOTATION(guarded_by(x))

/// Data member attribute: the *pointee* is guarded by `x`.
#define PT_GUARDED_BY(x) DANA_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function attribute: the caller must hold the listed capabilities.
#define REQUIRES(...) \
  DANA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function attribute: the caller must NOT hold the listed capabilities
/// (guards against self-deadlock on a non-recursive mutex).
#define EXCLUDES(...) DANA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function attribute: the function acquires the capability (held on
/// return, not on entry).
#define ACQUIRE(...) \
  DANA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function attribute: the function releases the capability.
#define RELEASE(...) \
  DANA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attribute: acquires the capability iff the function returns
/// `b` (try_lock shape).
#define TRY_ACQUIRE(b, ...) \
  DANA_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

/// Declaration-ordering attributes for documenting lock hierarchies.
#define ACQUIRED_BEFORE(...) \
  DANA_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  DANA_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function attribute: opt this function out of the analysis. Reserved for
/// documented single-threaded contracts the checker cannot see (e.g.
/// post-run accessors handed to tests between runs).
#define NO_THREAD_SAFETY_ANALYSIS \
  DANA_THREAD_ANNOTATION(no_thread_safety_analysis)
