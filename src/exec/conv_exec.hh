/**
 * @file
 * The tiled convolution executor: runs a conv2d operator under an
 * arbitrary multi-level tiling configuration (L3/L2/L1 tile loops in
 * the configured permutations, register tiles computed by the
 * microkernel), sequentially or with the L3 tile partitioned across
 * threads along the parallel split dims (Sec. 7). Kernel packing
 * (Sec. 6) happens inside and its cost is attributed to the run, as
 * in the paper's measurements.
 *
 * Tiles accumulate into a K-contiguous buffer of channel blocks: one
 * block per group, or, on depthwise layers (one input and one output
 * channel per group), one block per 16 groups. A depthwise block's
 * groups walk the plan's tiles side by side, one vector lane each,
 * from a group-blocked copy of the input, so every output is summed
 * in the same order as if its channel ran alone. Every phase of a run
 * uses the same threads: the kernel is packed in row blocks, the
 * accumulator is zeroed, every (block, chunk) pair of an L3 tile
 * joins one fork-join, and the accumulator is transposed into NKHW
 * split over (block, n, row block).
 */

#ifndef MOPT_EXEC_CONV_EXEC_HH
#define MOPT_EXEC_CONV_EXEC_HH

#include "conv/problem.hh"
#include "model/tile_config.hh"
#include "tensor/tensor.hh"

namespace mopt {

/** Timing breakdown of one execution. */
struct ExecStats
{
    double seconds = 0.0;      //!< Total (packing + compute).
    double pack_seconds = 0.0; //!< Kernel packing portion.
    double gflops = 0.0;       //!< Based on total seconds.
};

/**
 * Execute the convolution: out is zeroed, then accumulated.
 *
 * @param p        problem shape
 * @param in       input [n][c][inH][inW]
 * @param ker      kernel [k][c][r][s] (packed internally)
 * @param out      output [n][k][h][w]
 * @param cfg      tiling configuration; cfg.par controls threading
 * @param threads  threads that take part, the caller included; 0 =
 *                 product of cfg.par. They come from globalPool(), so
 *                 no thread is spawned per call, and the count is
 *                 capped at that pool's size + 1.
 */
ExecStats runConv(const ConvProblem &p, const Tensor4 &in,
                  const Tensor4 &ker, Tensor4 &out, const ExecConfig &cfg,
                  int threads = 0);

/**
 * A safe default configuration for @p p (register tiles +
 * whole-problem outer tiles, sequential); handy as a baseline and in
 * tests.
 */
ExecConfig defaultConfig(const ConvProblem &p);

} // namespace mopt

#endif // MOPT_EXEC_CONV_EXEC_HH
