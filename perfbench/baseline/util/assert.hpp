// Assertion macros for the CA-GVT library.
//
// CAGVT_CHECK is always on (release included): it guards invariants whose
// violation would silently corrupt simulation results (Time Warp causality,
// queue discipline). CAGVT_ASSERT compiles out in NDEBUG builds and is used
// on hot paths.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace cagvt {

[[noreturn]] inline void assert_fail(const char* expr, const char* file, int line,
                                     const char* msg) {
  std::fprintf(stderr, "CAGVT check failed: %s\n  at %s:%d\n  %s\n", expr, file, line,
               msg ? msg : "");
  std::abort();
}

}  // namespace cagvt

#define CAGVT_CHECK(expr)                                          \
  do {                                                             \
    if (!(expr)) [[unlikely]]                                      \
      ::cagvt::assert_fail(#expr, __FILE__, __LINE__, nullptr);    \
  } while (0)

#define CAGVT_CHECK_MSG(expr, msg)                                 \
  do {                                                             \
    if (!(expr)) [[unlikely]]                                      \
      ::cagvt::assert_fail(#expr, __FILE__, __LINE__, (msg));      \
  } while (0)

#ifdef NDEBUG
#define CAGVT_ASSERT(expr) ((void)0)
#else
#define CAGVT_ASSERT(expr) CAGVT_CHECK(expr)
#endif
