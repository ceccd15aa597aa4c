/**
 * @file
 * Kernel packing (Sec. 6 of the paper): the kernel is transposed so the
 * output-channel dimension K runs innermost and contiguous,
 * [K, C, R, S] -> [C, R, S, Kp], where Kp is K rounded up to the vector
 * length. The microkernel can then load the weights of any run of
 * consecutive output channels at stride 1, starting at any k. The
 * packing cost is part of every measured execution, as in the paper.
 */

#ifndef MOPT_TENSOR_PACKING_HH
#define MOPT_TENSOR_PACKING_HH

#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"

namespace mopt {

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
        return data_.data() +
               static_cast<std::size_t>(((c * r_ + r) * s_ + s) * kp_);
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
    std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }

  private:
    int vec_len_;
    std::int64_t k_, c_, r_, s_, kb_, kp_;
    std::vector<float> data_;
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
