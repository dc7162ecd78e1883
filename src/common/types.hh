/**
 * @file
 * Fundamental scalar types shared across the simulator.
 */

#ifndef LBP_COMMON_TYPES_HH
#define LBP_COMMON_TYPES_HH

#include <cstdint>

namespace lbp {

/** Byte address in the simulated address space. */
using Addr = std::uint64_t;

/** Absolute cycle count since simulation start. */
using Cycle = std::uint64_t;

/** Monotonic dynamic-instruction sequence number (program order). */
using InstSeq = std::uint64_t;

/** Sentinel for "no instruction". */
constexpr InstSeq invalidSeq = ~static_cast<InstSeq>(0);

/** Sentinel for "no address". */
constexpr Addr invalidAddr = ~static_cast<Addr>(0);

/** Sentinel for "no id" (OBQ/snapshot/payload slots). */
constexpr std::uint64_t invalidId = ~static_cast<std::uint64_t>(0);

/** Broad instruction classes used by the execution latency model. */
enum class InstClass : std::uint8_t {
    Alu,        ///< single-cycle integer op
    Mul,        ///< integer multiply / slow ALU
    FpOp,       ///< floating-point arithmetic
    Load,       ///< memory read (latency from the cache hierarchy)
    Store,      ///< memory write
    CondBranch, ///< conditional direct branch
    Jump,       ///< unconditional direct branch
    NumClasses
};

} // namespace lbp

#endif // LBP_COMMON_TYPES_HH
