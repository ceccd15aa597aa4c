/**
 * @file
 * Unit tests for dense tensors and the microkernel packing layout.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "tensor/packing.hh"
#include "tensor/tensor.hh"

namespace mopt {
namespace {

TEST(Tensor4, ShapeAndIndexing)
{
    Tensor4 t(2, 3, 4, 5);
    EXPECT_EQ(t.dim(0), 2);
    EXPECT_EQ(t.dim(3), 5);
    EXPECT_EQ(t.size(), 2 * 3 * 4 * 5);
    t.at(1, 2, 3, 4) = 7.0f;
    EXPECT_FLOAT_EQ(t.data()[t.size() - 1], 7.0f);
    t.at(0, 0, 0, 0) = 3.0f;
    EXPECT_FLOAT_EQ(t.data()[0], 3.0f);
}

TEST(Tensor4, RowMajorOffsets)
{
    Tensor4 t(2, 3, 4, 5);
    EXPECT_EQ(t.offset(0, 0, 0, 1), 1);
    EXPECT_EQ(t.offset(0, 0, 1, 0), 5);
    EXPECT_EQ(t.offset(0, 1, 0, 0), 20);
    EXPECT_EQ(t.offset(1, 0, 0, 0), 60);
}

TEST(Tensor4, FillAndDiff)
{
    Tensor4 a(2, 2, 2, 2), b(2, 2, 2, 2);
    a.fill(1.0f);
    b.fill(1.0f);
    EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(a, b), 0.0);
    b.at(1, 1, 1, 1) = 3.0f;
    EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(a, b), 2.0);
    Tensor4 c(1, 2, 2, 2);
    EXPECT_FALSE(Tensor4::sameShape(a, c));
    EXPECT_THROW(Tensor4::maxAbsDiff(a, c), FatalError);
}

TEST(Tensor4, FillRandomInRange)
{
    Rng rng(9);
    Tensor4 t(2, 3, 4, 5);
    t.fillRandom(rng);
    bool nonzero = false;
    for (std::int64_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t.data()[i], -1.0f);
        EXPECT_LT(t.data()[i], 1.0f);
        nonzero |= t.data()[i] != 0.0f;
    }
    EXPECT_TRUE(nonzero);
}

TEST(PackedKernel, RoundTripExactK)
{
    Rng rng(11);
    Tensor4 ker(16, 3, 3, 3);
    ker.fillRandom(rng);
    PackedKernel pk(ker, 8);
    EXPECT_EQ(pk.numKBlocks(), 2);
    Tensor4 back = pk.unpack();
    EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(ker, back), 0.0);
}

TEST(PackedKernel, RoundTripPaddedK)
{
    Rng rng(12);
    Tensor4 ker(13, 2, 3, 1);
    ker.fillRandom(rng);
    PackedKernel pk(ker, 8);
    EXPECT_EQ(pk.numKBlocks(), 2);
    Tensor4 back = pk.unpack();
    EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(ker, back), 0.0);
    // Padding lanes are zero.
    EXPECT_FLOAT_EQ(pk.lanes(1, 0, 0, 0)[7], 0.0f);
}

TEST(PackedKernel, LanesAreContiguousInK)
{
    Rng rng(13);
    Tensor4 ker(8, 1, 1, 1);
    ker.fillRandom(rng);
    PackedKernel pk(ker, 8);
    const float *lanes = pk.lanes(0, 0, 0, 0);
    for (int k = 0; k < 8; ++k)
        EXPECT_FLOAT_EQ(lanes[k], ker.at(k, 0, 0, 0));
}

TEST(PackedKernel, ElementAccessor)
{
    Rng rng(14);
    Tensor4 ker(20, 2, 2, 2);
    ker.fillRandom(rng);
    PackedKernel pk(ker, 8);
    for (std::int64_t k = 0; k < 20; ++k)
        for (std::int64_t c = 0; c < 2; ++c)
            EXPECT_FLOAT_EQ(pk.at(k, c, 1, 0), ker.at(k, c, 1, 0));
}

/** Packing in row blocks on three threads gives the same bytes as on
 *  one, and the lanes past K and the trailing padding are zero
 *  although the buffer is no longer zero-filled first. Every kernel
 *  is large enough (kMinParallelFloats) to be split. */
TEST(PackedKernel, ParallelPackMatchesSerial)
{
    for (const std::int64_t k : {13, 40, 512}) {
        Rng rng(static_cast<std::uint64_t>(k));
        const std::int64_t c = k == 512 ? 256 : k == 40 ? 4096 : 8192;
        Tensor4 ker(k, c, 3, 3);
        ker.fillRandom(rng);
        const PackedKernel serial(ker, 8, globalPool().subWidth(1));
        const PackedKernel parallel(ker, 8, globalPool().subWidth(3));
        const PackedKernel plain(ker, 8);
        ASSERT_EQ(serial.size(), parallel.size());
        ASSERT_EQ(serial.size(), plain.size());
        const float *a = serial.row(0, 0, 0), *b = parallel.row(0, 0, 0);
        EXPECT_EQ(std::memcmp(a, b, sizeof(float) * serial.size()), 0)
            << "K = " << k;
        EXPECT_EQ(std::memcmp(a, plain.row(0, 0, 0),
                              sizeof(float) * serial.size()),
                  0)
            << "K = " << k;
        EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(parallel.unpack(), ker), 0.0);
        const std::int64_t rows = c * 3 * 3;
        ASSERT_GE(rows * parallel.rowStride(), 4 * kMinParallelFloats);
        for (std::int64_t j = 0; j < rows; ++j)
            for (std::int64_t lane = k; lane < parallel.rowStride(); ++lane)
                ASSERT_EQ(b[j * parallel.rowStride() + lane], 0.0f)
                    << "K = " << k << " row " << j << " lane " << lane;
        for (std::int64_t i = rows * parallel.rowStride(); i < parallel.size();
             ++i)
            ASSERT_EQ(b[i], 0.0f) << "K = " << k << " padding at " << i;
        EXPECT_EQ(parallel.size() - rows * parallel.rowStride(), 16);
    }
}

} // namespace
} // namespace mopt
