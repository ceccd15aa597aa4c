/**
 * @file
 * Dense 4-D float tensors in row-major order. The CNN computation uses
 * In[N][C][H][W] (NCHW), Ker[K][C][R][S] (KCRS), Out[N][K][H][W].
 * A packed kernel layout [C][R][S][K] is provided by packing.hh.
 */

#ifndef MOPT_TENSOR_TENSOR_HH
#define MOPT_TENSOR_TENSOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mopt {

class Rng;

/**
 * A dense row-major 4-D float tensor. Dimensions are named generically
 * d0..d3; semantic layouts (NCHW, KCRS) are a convention of the caller.
 */
class Tensor4
{
  public:
    /** An empty (0-element) tensor. */
    Tensor4() : dims_{0, 0, 0, 0} {}

    /** Allocate a d0 x d1 x d2 x d3 tensor, zero-initialized. */
    Tensor4(std::int64_t d0, std::int64_t d1, std::int64_t d2,
            std::int64_t d3);

    /** Dimension extent. */
    std::int64_t dim(int i) const { return dims_[static_cast<std::size_t>(i)]; }

    /** Total number of elements. */
    std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }

    /** Flat offset of (i0, i1, i2, i3); bounds-checked in debug builds. */
    std::int64_t
    offset(std::int64_t i0, std::int64_t i1, std::int64_t i2,
           std::int64_t i3) const
    {
        return ((i0 * dims_[1] + i1) * dims_[2] + i2) * dims_[3] + i3;
    }

    /** Element access. */
    float &
    at(std::int64_t i0, std::int64_t i1, std::int64_t i2, std::int64_t i3)
    {
        return data_[static_cast<std::size_t>(offset(i0, i1, i2, i3))];
    }

    float
    at(std::int64_t i0, std::int64_t i1, std::int64_t i2,
       std::int64_t i3) const
    {
        return data_[static_cast<std::size_t>(offset(i0, i1, i2, i3))];
    }

    /** Raw storage. */
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Set every element to @p v. */
    void fill(float v);

    /** Fill with uniform random values in [-1, 1). */
    void fillRandom(Rng &rng);

    /** Max absolute element-wise difference; tensors must match shape. */
    static double maxAbsDiff(const Tensor4 &a, const Tensor4 &b);

    /** True if shapes are equal. */
    static bool sameShape(const Tensor4 &a, const Tensor4 &b);

  private:
    std::array<std::int64_t, 4> dims_;
    std::vector<float> data_;
};

} // namespace mopt

#endif // MOPT_TENSOR_TENSOR_HH
