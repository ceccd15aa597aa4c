#include "tensor/packing.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mopt {

PackedKernel::PackedKernel(const Tensor4 &ker, int vec_len)
{
    allocate(ker, vec_len);
    packRows(ker, 0, c_ * r_ * s_);
}

PackedKernel::PackedKernel(const Tensor4 &ker, int vec_len,
                           ThreadPool::SubWidth pool)
{
    allocate(ker, vec_len);
    forRowBlocks(pool, 1, c_ * r_ * s_, kp_,
                 [&](std::int64_t, std::int64_t lo, std::int64_t hi) {
                     packRows(ker, lo, hi);
                 });
}

void
PackedKernel::allocate(const Tensor4 &ker, int vec_len)
{
    checkUser(vec_len >= 1, "PackedKernel: vec_len must be >= 1");
    vec_len_ = vec_len;
    k_ = ker.dim(0);
    c_ = ker.dim(1);
    r_ = ker.dim(2);
    s_ = ker.dim(3);
    kb_ = (k_ + vec_len_ - 1) / vec_len_;
    kp_ = kb_ * vec_len_;
    // Left uninitialized: packRows writes every row lane, so only the
    // trailing padding needs zeroing here.
    size_ = c_ * r_ * s_ * kp_ + 2 * vec_len_;
    data_.reset(new float[static_cast<std::size_t>(size_)]);
    std::fill(data_.get() + size_ - 2 * vec_len_, data_.get() + size_,
              0.0f);
}

void
PackedKernel::packRows(const Tensor4 &ker, std::int64_t j0,
                       std::int64_t j1)
{
    // KCRS is a K x (C*R*S) matrix; the packed rows are its transpose.
    const std::int64_t rows = c_ * r_ * s_;
    float *dst = data_.get() + j0 * kp_;
    transposeInto(ker.data() + j0, k_, j1 - j0, rows, dst, kp_);
    if (kp_ > k_)
        for (std::int64_t j = j0; j < j1; ++j, dst += kp_)
            std::fill(dst + k_, dst + kp_, 0.0f);
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
