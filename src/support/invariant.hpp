// Debug invariant layer for hot-path boundary checks.
//
// GENTRIUS_DCHECK* macros verify internal invariants that are too expensive
// (or too hot) to check in release builds: queue occupancy bounds, busy-count
// underflow, counter monotonicity. They are active when
// GENTRIUS_ENABLE_INVARIANTS is 1, which the build system sets for
//   * non-NDEBUG (Debug) builds, and
//   * every sanitizer preset (GENTRIUS_SAN != off), so ASan/TSan/UBSan runs
//     also get the semantic checks,
// and compiles to nothing in plain release builds. The comparison forms
// print both operand values on failure.
//
// For conditions that must hold even in release (API misuse guards), use
// GENTRIUS_CHECK from support/check.hpp.
#pragma once

#include <sstream>
#include <string>

#include "support/error.hpp"

#if !defined(GENTRIUS_ENABLE_INVARIANTS)
#if defined(NDEBUG)
#define GENTRIUS_ENABLE_INVARIANTS 0
#else
#define GENTRIUS_ENABLE_INVARIANTS 1
#endif
#endif

namespace gentrius::support::detail {

[[noreturn]] inline void invariant_failed(const char* expr, const char* file,
                                          int line) {
  throw InternalError(std::string("invariant failed: ") + expr + " at " +
                      file + ":" + std::to_string(line));
}

template <typename A, typename B>
[[noreturn]] void invariant_cmp_failed(const char* expr, const char* file,
                                       int line, const A& lhs, const B& rhs) {
  std::ostringstream os;
  os << "invariant failed: " << expr << " (lhs=" << lhs << ", rhs=" << rhs
     << ") at " << file << ":" << line;
  throw InternalError(os.str());
}

}  // namespace gentrius::support::detail

#if GENTRIUS_ENABLE_INVARIANTS

#define GENTRIUS_DCHECK(expr)                                                  \
  do {                                                                         \
    if (!(expr)) [[unlikely]]                                                  \
      ::gentrius::support::detail::invariant_failed(#expr, __FILE__,           \
                                                    __LINE__);                 \
  } while (false)

#define GENTRIUS_DCHECK_OP(op, a, b)                                           \
  do {                                                                         \
    if (!((a)op(b))) [[unlikely]]                                              \
      ::gentrius::support::detail::invariant_cmp_failed(#a " " #op " " #b,     \
                                                        __FILE__, __LINE__,   \
                                                        (a), (b));             \
  } while (false)

#else  // invariants compiled out: operands stay unevaluated but referenced,
       // so release builds get no codegen and no unused-variable warnings.

#define GENTRIUS_DCHECK(expr) ((void)sizeof((expr) ? 1 : 0))
#define GENTRIUS_DCHECK_OP(op, a, b) ((void)sizeof(((a)op(b)) ? 1 : 0))

#endif  // GENTRIUS_ENABLE_INVARIANTS

// GENTRIUS_EXPENSIVE_DCHECK: invariants whose *check* has asymptotically
// higher cost than the code path it guards (e.g. comparing a mapping kept
// current in place with a full rebuild). Off by default even when
// GENTRIUS_ENABLE_INVARIANTS is on — otherwise debug/sanitizer runs only
// ever exercise "in place equals rebuilt" and never the in-place result
// standing on its own, and the in-place path's debug cost degenerates to
// the rebuild's. Enable with -DGENTRIUS_EXPENSIVE_CHECKS=ON (sets
// GENTRIUS_ENABLE_EXPENSIVE_INVARIANTS=1) when working on the guarded
// machinery itself.
#if !defined(GENTRIUS_ENABLE_EXPENSIVE_INVARIANTS)
#define GENTRIUS_ENABLE_EXPENSIVE_INVARIANTS 0
#endif

#if GENTRIUS_ENABLE_EXPENSIVE_INVARIANTS && GENTRIUS_ENABLE_INVARIANTS
#define GENTRIUS_EXPENSIVE_DCHECK(expr) GENTRIUS_DCHECK(expr)
#else
#define GENTRIUS_EXPENSIVE_DCHECK(expr) ((void)sizeof((expr) ? 1 : 0))
#endif

#define GENTRIUS_DCHECK_EQ(a, b) GENTRIUS_DCHECK_OP(==, a, b)
#define GENTRIUS_DCHECK_NE(a, b) GENTRIUS_DCHECK_OP(!=, a, b)
#define GENTRIUS_DCHECK_LT(a, b) GENTRIUS_DCHECK_OP(<, a, b)
#define GENTRIUS_DCHECK_LE(a, b) GENTRIUS_DCHECK_OP(<=, a, b)
#define GENTRIUS_DCHECK_GT(a, b) GENTRIUS_DCHECK_OP(>, a, b)
#define GENTRIUS_DCHECK_GE(a, b) GENTRIUS_DCHECK_OP(>=, a, b)
