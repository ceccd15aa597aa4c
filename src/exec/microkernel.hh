/**
 * @file
 * The register-tiled convolution microkernel (Sec. 6 of the paper):
 * an outer-product scheme holding a block of up to 6 output points x
 * 16 output channels in accumulator registers, reused across the
 * whole (c, r, s) reduction of the enclosing L1 tile. Output channels
 * are vectorized via the K-contiguous packed kernel (tensor/packing.hh).
 */

#ifndef MOPT_EXEC_MICROKERNEL_HH
#define MOPT_EXEC_MICROKERNEL_HH

#include <cstdint>

#include "conv/problem.hh"
#include "tensor/packing.hh"
#include "tensor/tensor.hh"

namespace mopt {

/** Compile-time shape of the register block. */
struct MicroKernelShape
{
    static constexpr int kVecLen = 8; //!< fp32 lanes (matches packing).
    static constexpr int kKU = 16;    //!< Output channels per block.
    static constexpr int kWU = 6;     //!< Output points per block.
};

/**
 * Accumulate one register tile:
 *
 *   out[n, k0..k0+kb, h, w0..w0+wb] +=
 *     sum over c in [c0,c1), r in [r0,r1), s in [s0,s1) of
 *       in[n, c_off+c, h*stride+r, (w0+wi)*stride+s] * ker[k, c, r, s]
 *
 * Grouped convolution: @p k0 is a *global* output-channel index (the
 * caller folds in the group's k offset, so both out and the packed
 * kernel — whose k axis is global — index directly), while the
 * reduction range [c0, c1) stays group-local (the kernel tensor's C
 * extent is c/groups) and @p c_off relocates it into the input's
 * global channel axis. Dense convs pass c_off = 0.
 *
 * Every tile runs on the register-block kernel: any k0, kb and wb,
 * with k0 + kb at most the kernel's K (checked; a violation panics).
 * The kernel computes at most 6 points x 16 channels per call, so
 * wider tiles (such as a 32-wide K register tile) are split into
 * calls of that size; a call with kb < 16 still loads 16 lanes, which
 * the packed kernel's padding keeps in bounds, and stores only kb.
 * The instruction set is chosen once per process at run time: an
 * AVX2+FMA kernel when the CPU has both extensions, otherwise a
 * portable C++ kernel with the same semantics (see kernelIsa()). No
 * compiler flag is needed for either. The packed kernel must use
 * vector length 8.
 */
void computeRegisterTile(const ConvProblem &p, const Tensor4 &in,
                         const PackedKernel &pk, Tensor4 &out,
                         std::int64_t n, std::int64_t h, std::int64_t w0,
                         std::int64_t wb, std::int64_t k0, std::int64_t kb,
                         std::int64_t c0, std::int64_t c1, std::int64_t r0,
                         std::int64_t r1, std::int64_t s0, std::int64_t s1,
                         std::int64_t c_off = 0);

/** The register-tile kernel this process runs: "avx2+fma" or
 *  "portable". */
const char *kernelIsa();

} // namespace mopt

#endif // MOPT_EXEC_MICROKERNEL_HH
