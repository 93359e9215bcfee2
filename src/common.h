#ifndef ORION_SRC_COMMON_H_
#define ORION_SRC_COMMON_H_

/**
 * @file
 * Project-wide fundamental types, error handling, and small utilities.
 *
 * Error-handling convention (per the C++ Core Guidelines):
 *  - ORION_CHECK: recoverable precondition violations (user error) throw
 *    orion::Error with a formatted message.
 *  - ORION_ASSERT: internal invariants; aborts in debug builds, compiled to
 *    a cheap check that throws in release builds (we prefer loud failure to
 *    silent corruption in a cryptographic library).
 */

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace orion {

using u8 = std::uint8_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;
using u128 = unsigned __int128;
using i128 = __int128;

/** Base exception type for all orion errors. */
class Error : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

namespace detail {

[[noreturn]] inline void
throw_error(const char* file, int line, const std::string& msg)
{
    std::ostringstream oss;
    oss << file << ":" << line << ": " << msg;
    throw Error(oss.str());
}

}  // namespace detail

#define ORION_CHECK(cond, msg)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            std::ostringstream orion_check_oss_;                             \
            orion_check_oss_ << "check failed: " #cond ": " << msg;          \
            ::orion::detail::throw_error(__FILE__, __LINE__,                 \
                                         orion_check_oss_.str());            \
        }                                                                    \
    } while (0)

#define ORION_ASSERT(cond)                                                   \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::orion::detail::throw_error(__FILE__, __LINE__,                 \
                                         "internal invariant failed: "       \
                                         #cond);                             \
        }                                                                    \
    } while (0)

/** Returns true when x is a power of two (and nonzero). */
constexpr bool
is_power_of_two(u64 x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** The smallest power of two >= x (1 for x = 0). */
constexpr u64
next_power_of_two(u64 x)
{
    u64 p = 1;
    while (p < x) p <<= 1;
    return p;
}

/** Integer log2 of a power of two. */
constexpr int
log2_exact(u64 x)
{
    int n = 0;
    while (x > 1) {
        x >>= 1;
        ++n;
    }
    return n;
}

/** Ceiling division for nonnegative integers. */
constexpr u64
ceil_div(u64 a, u64 b)
{
    return (a + b - 1) / b;
}

/** Reverses the low `bits` bits of `x`. */
constexpr u32
reverse_bits(u32 x, int bits)
{
    u32 r = 0;
    for (int i = 0; i < bits; ++i) {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    return r;
}

}  // namespace orion

#endif  // ORION_SRC_COMMON_H_
