/**
 * @file
 * Kernel packing (Sec. 6 of the paper): the kernel is transposed so the
 * output-channel dimension K runs innermost and contiguous,
 * [K, C, R, S] -> [C, R, S, Kp], where Kp is K rounded up to the vector
 * length. The microkernel can then load the weights of any run of
 * consecutive output channels at stride 1, starting at any k. The
 * packing cost is part of every measured execution, as in the paper,
 * so the executor packs on all of its threads.
 */

#ifndef MOPT_TENSOR_PACKING_HH
#define MOPT_TENSOR_PACKING_HH

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/thread_pool.hh"
#include "tensor/tensor.hh"

namespace mopt {

/**
 * The fewest floats (1 MiB) a data-movement phase must move before
 * forRowBlocks splits it across threads. Below it the phase takes a
 * few hundred microseconds on one thread, and a fork-join saves less
 * than it risks: every participant of a fork-join that is preempted
 * while it holds a row block stalls the whole phase for a scheduler
 * time slice, so a layer's small fills and transposes, run in
 * parallel, made one forward in many take several times its median.
 */
inline constexpr std::int64_t kMinParallelFloats = std::int64_t{1} << 18;

/**
 * body(slab, lo, hi) for every slab < @p slabs and every row block
 * [lo, hi) of its @p rows rows of @p row_floats floats, as one
 * fork-join on @p pool. Slabs are cut into row blocks until there are
 * about four items per thread, so one slab still spreads out; a phase
 * under kMinParallelFloats floats runs inline. Kernel packing and the
 * executor's layout passes (fills and transposes) split this way.
 */
template <typename Body>
void
forRowBlocks(ThreadPool::SubWidth pool, std::int64_t slabs,
             std::int64_t rows, std::int64_t row_floats, const Body &body)
{
    const auto width = static_cast<std::int64_t>(pool.width());
    const bool fork =
        width > 1 && slabs * rows * row_floats >= kMinParallelFloats;
    const std::int64_t blocks =
        fork ? std::clamp<std::int64_t>((4 * width + slabs - 1) / slabs,
                                        1, rows)
             : 1;
    const auto item = [&](std::size_t i) {
        const auto slab = static_cast<std::int64_t>(i) / blocks;
        const auto b = static_cast<std::int64_t>(i) % blocks;
        body(slab, rows * b / blocks, rows * (b + 1) / blocks);
    };
    if (fork)
        pool.parallelFor(static_cast<std::size_t>(slabs * blocks), item);
    else
        for (std::int64_t i = 0; i < slabs; ++i)
            item(static_cast<std::size_t>(i));
}

/**
 * Kernel tensor packed as K-contiguous rows [C][R][S][Kp]. Kp is a
 * multiple of the vector length; row lanes past K are zero. Two
 * vectors of trailing padding follow the last row, so a load of
 * 2 * vl floats starting at any k < K of any row stays inside the
 * allocation.
 *
 * The vl-lane block kb of row (c, r, s) holds output channels
 * [kb * vl, kb * vl + vl), so numKBlocks() vl-lane blocks cover K.
 */
class PackedKernel
{
  public:
    /** Pack @p ker (KCRS layout) with vector length @p vec_len. */
    PackedKernel(const Tensor4 &ker, int vec_len);

    /** The same packing, split into row blocks across @p pool's
     *  threads by forRowBlocks; the result is byte-identical. */
    PackedKernel(const Tensor4 &ker, int vec_len,
                 ThreadPool::SubWidth pool);

    int vecLen() const { return vec_len_; }
    std::int64_t numChannels() const { return c_; }
    std::int64_t numOutChannels() const { return k_; }
    std::int64_t kernelH() const { return r_; }
    std::int64_t kernelW() const { return s_; }
    std::int64_t numKBlocks() const { return kb_; }

    /** Floats from one (c, r, s) row to the next (Kp). */
    std::int64_t rowStride() const { return kp_; }

    /** The K-contiguous row of weights for (c, r, s). */
    const float *
    row(std::int64_t c, std::int64_t r, std::int64_t s) const
    {
        return data_.get() + ((c * r_ + r) * s_ + s) * kp_;
    }

    /** Pointer to the vl-length lane block for (kb, c, r, s). */
    const float *
    lanes(std::int64_t kb, std::int64_t c, std::int64_t r,
          std::int64_t s) const
    {
        return row(c, r, s) + kb * vec_len_;
    }

    /** Element accessor (k is an original output-channel index). */
    float at(std::int64_t k, std::int64_t c, std::int64_t r,
             std::int64_t s) const
    {
        return row(c, r, s)[k];
    }

    /** Unpack to KCRS (for round-trip testing). */
    Tensor4 unpack() const;

    /** Flat size in floats (including padding). */
    std::int64_t size() const { return size_; }

  private:
    /** Set the shape and allocate; zeroes only the trailing padding. */
    void allocate(const Tensor4 &ker, int vec_len);

    /** Pack rows [j0, j1) of the C*R*S rows, lanes past K zeroed. */
    void packRows(const Tensor4 &ker, std::int64_t j0, std::int64_t j1);

    int vec_len_ = 0;
    std::int64_t k_ = 0, c_ = 0, r_ = 0, s_ = 0, kb_ = 0, kp_ = 0;
    std::int64_t size_ = 0;
    std::unique_ptr<float[]> data_;
};

/**
 * Cache-blocked 2-D transpose: dst[j * dst_stride + i] =
 * src[i * src_stride + j] for i in [0, rows), j in [0, cols). Square
 * blocks keep both the reads and the writes of each block on a few
 * cache lines.
 */
void transposeInto(const float *src, std::int64_t rows, std::int64_t cols,
                   std::int64_t src_stride, float *dst,
                   std::int64_t dst_stride);

} // namespace mopt

#endif // MOPT_TENSOR_PACKING_HH
