#include "tensor/packing.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mopt {

PackedKernel::PackedKernel(const Tensor4 &ker, int vec_len)
    : vec_len_(vec_len), k_(ker.dim(0)), c_(ker.dim(1)), r_(ker.dim(2)),
      s_(ker.dim(3))
{
    checkUser(vec_len >= 1, "PackedKernel: vec_len must be >= 1");
    kb_ = (k_ + vec_len_ - 1) / vec_len_;
    kp_ = kb_ * vec_len_;
    const std::int64_t rows = c_ * r_ * s_;
    data_.assign(static_cast<std::size_t>(rows * kp_ + 2 * vec_len_),
                 0.0f);
    // KCRS is a K x (C*R*S) matrix; the packed rows are its transpose.
    transposeInto(ker.data(), k_, rows, rows, data_.data(), kp_);
}

Tensor4
PackedKernel::unpack() const
{
    Tensor4 out(k_, c_, r_, s_);
    for (std::int64_t k = 0; k < k_; ++k)
        for (std::int64_t c = 0; c < c_; ++c)
            for (std::int64_t r = 0; r < r_; ++r)
                for (std::int64_t s = 0; s < s_; ++s)
                    out.at(k, c, r, s) = at(k, c, r, s);
    return out;
}

void
transposeInto(const float *src, std::int64_t rows, std::int64_t cols,
              std::int64_t src_stride, float *dst, std::int64_t dst_stride)
{
    constexpr std::int64_t kBlock = 32;
    for (std::int64_t i0 = 0; i0 < rows; i0 += kBlock) {
        const std::int64_t i1 = std::min(rows, i0 + kBlock);
        for (std::int64_t j0 = 0; j0 < cols; j0 += kBlock) {
            const std::int64_t j1 = std::min(cols, j0 + kBlock);
            for (std::int64_t j = j0; j < j1; ++j)
                for (std::int64_t i = i0; i < i1; ++i)
                    dst[j * dst_stride + i] = src[i * src_stride + j];
        }
    }
}

} // namespace mopt
