/**
 * @file
 * Correctness tests of the tiled executor against the naive reference:
 * register tiles at any K offset and size, the portable and AVX2
 * tiles against each other, arbitrary sampled tilings (property
 * test), strides, partial tiles, and parallel execution.
 */

#include <gtest/gtest.h>

#include "baselines/grid_sampler.hh"
#include "common/rng.hh"
#include "common/timer.hh"
#include "conv/reference.hh"
#include "conv/workloads.hh"
#include "exec/conv_exec.hh"
#include "exec/loop_nest.hh"
#include "exec/measure.hh"
#include "exec/microkernel_tiles.hh"
#include "machine/machine.hh"
#include "optimizer/mopt_optimizer.hh"

namespace mopt {
namespace {

/** Tolerance for float accumulation-order differences. */
constexpr double kTol = 2e-3;

void
expectMatchesReference(const ConvProblem &p, const ExecConfig &cfg,
                       int threads = 1, std::uint64_t seed = 5)
{
    Rng rng(seed);
    Tensor4 in = makeInput(p), ker = makeKernel(p);
    in.fillRandom(rng);
    ker.fillRandom(rng);

    Tensor4 expected = makeOutput(p);
    referenceConv(p, in, ker, expected);

    Tensor4 got = makeOutput(p);
    const ExecStats st = runConv(p, in, ker, got, cfg, threads);
    EXPECT_GT(st.seconds, 0.0);
    EXPECT_LT(Tensor4::maxAbsDiff(expected, got), kTol)
        << p.summary() << "\n"
        << cfg.str();
}

TEST(LoopNest, WalkerCoversRegionExactlyOnce)
{
    ConvProblem p;
    p.n = 2;
    p.k = 5;
    p.c = 3;
    p.r = 1;
    p.s = 1;
    p.h = 4;
    p.w = 7;
    ExecConfig cfg = defaultConfig(p);
    cfg.tiles[LvlL3] = {1, 2, 2, 1, 1, 3, 4}; // partial tiles everywhere

    std::vector<int> seen(static_cast<std::size_t>(
                              p.n * p.k * p.c * p.h * p.w),
                          0);
    walkTilesAtLevel(cfg, LvlL3, fullRegion(p), [&](const TileBounds &t) {
        for (std::int64_t n = t.lo[DimN]; n < t.hi[DimN]; ++n)
            for (std::int64_t k = t.lo[DimK]; k < t.hi[DimK]; ++k)
                for (std::int64_t c = t.lo[DimC]; c < t.hi[DimC]; ++c)
                    for (std::int64_t h = t.lo[DimH]; h < t.hi[DimH];
                         ++h)
                        for (std::int64_t w = t.lo[DimW];
                             w < t.hi[DimW]; ++w)
                            seen[static_cast<std::size_t>(
                                ((((n * p.k) + k) * p.c + c) * p.h + h) *
                                    p.w +
                                w)]++;
    });
    for (int s : seen)
        EXPECT_EQ(s, 1);
}

TEST(LoopNest, SplitRegionPartitionsExactly)
{
    TileBounds region;
    region.lo = {0, 0, 0, 0, 0, 0, 0};
    region.hi = {1, 64, 8, 3, 3, 14, 28};
    const IntTileVec par{1, 4, 1, 1, 1, 2, 1};
    const auto chunks = splitRegion(region, par);
    ASSERT_EQ(chunks.size(), 8u);
    std::int64_t total = 0;
    for (const auto &c : chunks) {
        std::int64_t vol = 1;
        for (int d = 0; d < NumDims; ++d)
            vol *= c.extent(static_cast<Dim>(d));
        total += vol;
    }
    std::int64_t expect = 1;
    for (int d = 0; d < NumDims; ++d)
        expect *= region.extent(static_cast<Dim>(d));
    EXPECT_EQ(total, expect);
}

TEST(LoopNest, SplitClampsToExtent)
{
    TileBounds region;
    region.lo = {0, 0, 0, 0, 0, 0, 0};
    region.hi = {1, 2, 1, 1, 1, 1, 1};
    const IntTileVec par{1, 8, 1, 1, 1, 1, 1}; // only 2 fit
    EXPECT_EQ(splitRegion(region, par).size(), 2u);
}

TEST(ConvExec, DefaultConfigMatchesReference)
{
    ConvProblem p;
    p.name = "dflt";
    p.n = 2;
    p.k = 20; // a partial 4-channel block (20 = 16 + 4)
    p.c = 5;
    p.r = 3;
    p.s = 3;
    p.h = 9;
    p.w = 11;
    expectMatchesReference(p, defaultConfig(p));
}

TEST(ConvExec, StrideTwoMatchesReference)
{
    ConvProblem p;
    p.name = "s2";
    p.n = 1;
    p.k = 16;
    p.c = 4;
    p.r = 3;
    p.s = 3;
    p.h = 8;
    p.w = 8;
    p.stride = 2;
    expectMatchesReference(p, defaultConfig(p));
}

TEST(ConvExec, OneByOneKernelMatchesReference)
{
    ConvProblem p;
    p.name = "1x1";
    p.n = 1;
    p.k = 32;
    p.c = 16;
    p.r = 1;
    p.s = 1;
    p.h = 10;
    p.w = 10;
    expectMatchesReference(p, defaultConfig(p));
}

TEST(ConvExec, ParallelMatchesSequential)
{
    ConvProblem p;
    p.name = "par";
    p.n = 1;
    p.k = 32;
    p.c = 8;
    p.r = 3;
    p.s = 3;
    p.h = 12;
    p.w = 12;
    ExecConfig cfg = defaultConfig(p);
    cfg.par = {1, 2, 1, 1, 1, 2, 1};

    Rng rng(6);
    Tensor4 in = makeInput(p), ker = makeKernel(p);
    in.fillRandom(rng);
    ker.fillRandom(rng);
    Tensor4 seq = makeOutput(p), par = makeOutput(p);
    runConv(p, in, ker, seq, cfg, 1);
    runConv(p, in, ker, par, cfg, 4);
    // Same per-element accumulation order: results are bit-identical.
    EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(seq, par), 0.0);
}

/** Property: arbitrary sampled tilings compute the same result. */
class SampledConfigCorrectness : public ::testing::TestWithParam<int>
{
};

TEST_P(SampledConfigCorrectness, MatchesReference)
{
    Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
    ConvProblem p;
    p.name = "prop";
    p.n = static_cast<std::int64_t>(rng.uniformInt(1, 2));
    p.k = rng.uniformInt(3, 40);
    p.c = rng.uniformInt(1, 12);
    p.r = rng.uniformInt(1, 3);
    p.s = rng.uniformInt(1, 3);
    p.h = rng.uniformInt(2, 14);
    p.w = rng.uniformInt(2, 14);
    p.stride = rng.uniform01() < 0.3 ? 2 : 1;

    const MachineSpec m = tinyTestMachine();
    SamplerOptions sopts;
    sopts.fit_capacity = false; // exercise wild tilings too
    const ExecConfig cfg = sampleConfig(p, m, rng, sopts);
    expectMatchesReference(p, cfg, 1,
                           600 + static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(RandomTilings, SampledConfigCorrectness,
                         ::testing::Range(0, 16));

/** Downscaled Table-1 operators end to end. */
class WorkloadCorrectness
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadCorrectness, DownscaledMatchesReference)
{
    const ConvProblem p = workloadByName(GetParam()).downscaled(14, 32);
    Rng rng(9);
    const ExecConfig cfg =
        sampleConfig(p, tinyTestMachine(), rng, SamplerOptions());
    expectMatchesReference(p, cfg);
}

INSTANTIATE_TEST_SUITE_P(Table1, WorkloadCorrectness,
                         ::testing::Values("Y0", "Y5", "Y12", "R1", "R3",
                                           "R10", "M1", "M2", "M9"));

/** Grouped convolution through the lifted executor: every group runs
 *  the same tiled loop nest over its own k/c slice. */
class GroupedCorrectness : public ::testing::TestWithParam<int>
{
};

TEST_P(GroupedCorrectness, MatchesReference)
{
    ConvProblem p;
    p.name = "grp";
    p.n = 2;
    p.k = 24; // 24/8 = 3 per group: blocks start off the 8-lane grid
    p.c = 16;
    p.r = 3;
    p.s = 3;
    p.h = 9;
    p.w = 9;
    p.groups = GetParam();
    p.validate();
    expectMatchesReference(p, defaultConfig(p));
}

INSTANTIATE_TEST_SUITE_P(Groups, GroupedCorrectness,
                         ::testing::Values(1, 2, 4, 8));

TEST(ConvExec, DepthwiseMatchesReference)
{
    ConvProblem p;
    p.name = "dw";
    p.n = 1;
    p.k = 16;
    p.c = 16;
    p.r = 3;
    p.s = 3;
    p.h = 10;
    p.w = 10;
    p.groups = 16; // one channel per group
    p.validate();
    expectMatchesReference(p, defaultConfig(p));
}

TEST(ConvExec, GroupedSampledTilingsMatchReference)
{
    // Wild tilings whose K/C tiles don't divide the per-group extents:
    // the walker must clamp every tile inside its group slice.
    ConvProblem p;
    p.name = "grpprop";
    p.n = 1;
    p.k = 32;
    p.c = 8;
    p.r = 3;
    p.s = 3;
    p.h = 8;
    p.w = 8;
    p.groups = 4;
    p.validate();
    for (int i = 0; i < 4; ++i) {
        Rng rng(900 + static_cast<std::uint64_t>(i));
        SamplerOptions sopts;
        sopts.fit_capacity = false;
        const ExecConfig cfg =
            sampleConfig(p, tinyTestMachine(), rng, sopts);
        expectMatchesReference(p, cfg, 1,
                               950 + static_cast<std::uint64_t>(i));
    }
}

TEST(ConvExec, GroupedParallelMatchesSequential)
{
    ConvProblem p;
    p.name = "grppar";
    p.n = 1;
    p.k = 32;
    p.c = 8;
    p.r = 3;
    p.s = 3;
    p.h = 12;
    p.w = 12;
    p.groups = 2;
    p.validate();
    ExecConfig cfg = defaultConfig(p);
    cfg.par = {1, 2, 1, 1, 1, 2, 1};

    Rng rng(7);
    Tensor4 in = makeInput(p), ker = makeKernel(p);
    in.fillRandom(rng);
    ker.fillRandom(rng);
    Tensor4 seq = makeOutput(p), par = makeOutput(p);
    runConv(p, in, ker, seq, cfg, 1);
    runConv(p, in, ker, par, cfg, 4);
    EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(seq, par), 0.0);
}

/**
 * Register tiles of every K size in 1..15 and 32, every W size in
 * 1..6, starting at every k0 % 8: an odd L1 K tile t1 puts the L1
 * tiles' first channels at every residue mod 8, and the register
 * tiles split each L1 tile into kb-wide blocks plus a tail.
 */
class RegisterTileShapes : public ::testing::TestWithParam<int>
{
};

TEST_P(RegisterTileShapes, AnyKOffsetMatchesReference)
{
    const std::int64_t kb = GetParam();
    const std::int64_t t1 = kb % 2 == 1 ? kb : kb + 1;
    ConvProblem p;
    p.name = "kofs";
    p.n = 1;
    p.k = 8 * t1;
    p.c = 3;
    p.r = 2;
    p.s = 3;
    p.h = 2;
    p.w = 13;
    for (std::int64_t wb = 1; wb <= 6; ++wb) {
        ExecConfig cfg = defaultConfig(p);
        cfg.tiles[LvlReg][DimK] = kb;
        cfg.tiles[LvlReg][DimW] = wb;
        cfg.tiles[LvlL1][DimK] = t1;
        cfg.tiles[LvlL2][DimK] = 2 * t1;
        expectMatchesReference(p, cfg, 1,
                               static_cast<std::uint64_t>(kb * 10 + wb));
    }
}

INSTANTIATE_TEST_SUITE_P(KSizes, RegisterTileShapes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15, 32));

/** MobileNet conv14's shape of plan: an L2 K tile of 86, so most
 *  16-wide register tiles start off the 8-lane grid. */
TEST(ConvExec, KTileOf86MatchesReference)
{
    ConvProblem p;
    p.name = "conv14";
    p.n = 1;
    p.k = 256;
    p.c = 32;
    p.r = 1;
    p.s = 1;
    p.h = 4;
    p.w = 14;
    ExecConfig cfg = defaultConfig(p);
    cfg.perm[LvlL2] = Permutation::parse("kcrsnhw");
    cfg.perm[LvlL1] = Permutation::parse("kcrsnhw");
    cfg.tiles[LvlL3] = problemExtents(p);
    cfg.tiles[LvlL2] = {1, 86, 32, 1, 1, 2, 7};
    cfg.tiles[LvlL1] = {1, 16, 10, 1, 1, 1, 6};
    cfg.tiles[LvlReg] = {1, 16, 1, 1, 1, 1, 6};
    cfg.par = {1, 1, 1, 1, 1, 2, 2}; // a K split would realign the tiles
    expectMatchesReference(p, cfg, 1);
    expectMatchesReference(p, cfg, 3);
}

/** The portable and AVX2 tiles compute the same thing on random
 *  tiles, into K-contiguous and into NKHW-strided output. */
TEST(MicroKernel, PortableAndAvx2TilesAgree)
{
    const TileFn avx2 = avx2Tile();
    if (avx2 == nullptr)
        GTEST_SKIP() << "host has no AVX2+FMA";
    Rng rng(77);
    std::vector<float> in(4096), ker(4096);
    for (float &v : in)
        v = static_cast<float>(rng.uniform01() * 2.0 - 1.0);
    for (float &v : ker)
        v = static_cast<float>(rng.uniform01() * 2.0 - 1.0);
    for (int trial = 0; trial < 200; ++trial) {
        RegisterTile t;
        t.nc = rng.uniformInt(1, 6);
        t.nr = rng.uniformInt(1, 3);
        t.ns = rng.uniformInt(1, 3);
        t.wb = static_cast<int>(rng.uniformInt(1, MicroKernelShape::kWU));
        t.kb = static_cast<int>(rng.uniformInt(1, MicroKernelShape::kKU));
        t.in_s = rng.uniformInt(1, 2);
        t.in_w = rng.uniformInt(1, 2);
        t.in_r = 20;
        t.in_c = 80;
        t.in = in.data() + rng.uniformInt(0, 7);
        t.ker_s = 17;
        t.ker_r = t.ker_s * 3;
        t.ker_c = t.ker_r * 3;
        t.ker = ker.data() + rng.uniformInt(0, 15);
        const bool k_contiguous = trial % 2 == 0;
        t.out_k = k_contiguous ? 1 : 7;
        t.out_w = k_contiguous ? 19 : 1;
        std::vector<float> a(256), b(256);
        for (std::size_t i = 0; i < a.size(); ++i)
            a[i] = b[i] = static_cast<float>(i % 13);
        t.out = a.data();
        portableTile(t);
        t.out = b.data();
        avx2(t);
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_NEAR(a[i], b[i], 1e-4) << "trial " << trial << " at " << i;
    }
}

/** The portable and AVX2 depthwise tiles compute the same thing on
 *  random tiles: 16 lane-contiguous groups, strided points and window
 *  steps, partial point counts. */
TEST(MicroKernel, PortableAndAvx2DepthwiseTilesAgree)
{
    const TileFn avx2 = avx2DepthwiseTile();
    if (avx2 == nullptr)
        GTEST_SKIP() << "host has no AVX2+FMA";
    constexpr int KU = MicroKernelShape::kKU;
    Rng rng(78);
    std::vector<float> in(8192), ker(4096);
    for (float &v : in)
        v = static_cast<float>(rng.uniform01() * 2.0 - 1.0);
    for (float &v : ker)
        v = static_cast<float>(rng.uniform01() * 2.0 - 1.0);
    for (int trial = 0; trial < 200; ++trial) {
        RegisterTile t;
        t.nr = rng.uniformInt(1, 3);
        t.ns = rng.uniformInt(1, 3);
        t.wb = static_cast<int>(rng.uniformInt(1, MicroKernelShape::kWU));
        t.in_s = KU * rng.uniformInt(1, 2);
        t.in_w = KU * rng.uniformInt(1, 2);
        t.in_r = KU * 20;
        t.in = in.data() + rng.uniformInt(0, 7);
        t.ker_s = 24;
        t.ker_r = t.ker_s * 3;
        t.ker = ker.data() + rng.uniformInt(0, 15);
        t.out_w = KU + rng.uniformInt(0, 3);
        std::vector<float> a(256), b(256);
        for (std::size_t i = 0; i < a.size(); ++i)
            a[i] = b[i] = static_cast<float>(i % 13);
        t.out = a.data();
        portableDepthwiseTile(t);
        t.out = b.data();
        avx2(t);
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_NEAR(a[i], b[i], 1e-4) << "trial " << trial << " at " << i;
    }
}

/**
 * Depthwise layers run 16 groups per vector, yet every output is
 * summed exactly as when its channel runs alone as a dense
 * k = c = groups = 1 conv under the same tiling: bit-identical, at
 * group counts with and without a partial last block, with stride,
 * dilation, a batch of 2, a split filter window and a parallel split,
 * on 1 and 3 threads.
 */
TEST(ConvExec, DepthwiseBitIdenticalToPerChannelDense)
{
    struct Case
    {
        std::int64_t groups;
        int stride, dilation;
    };
    for (const Case c : {Case{16, 1, 1}, Case{24, 2, 1}, Case{40, 1, 2},
                         Case{40, 2, 1}, Case{24, 1, 2}}) {
        ConvProblem p;
        p.name = "dw";
        p.n = 2;
        p.k = p.c = p.groups = c.groups;
        p.r = p.s = 3;
        p.h = 19; // at 40 groups, big enough to fork the data phases
        p.w = 19;
        p.stride = c.stride;
        p.dilation = c.dilation;
        p.validate();
        ConvProblem q = p;
        q.k = q.c = q.groups = 1;
        q.validate();
        ExecConfig cfg = defaultConfig(q);
        cfg.tiles[LvlL3][DimH] = 5;
        cfg.tiles[LvlL1][DimS] = 2;
        cfg.par = {1, 1, 1, 1, 1, 2, 3};

        Rng rng(static_cast<std::uint64_t>(c.groups * 10 + c.stride));
        Tensor4 in = makeInput(p), ker = makeKernel(p);
        in.fillRandom(rng);
        ker.fillRandom(rng);
        for (const int threads : {1, 3}) {
            Tensor4 got = makeOutput(p);
            runConv(p, in, ker, got, cfg, threads);
            std::int64_t differ = 0;
            for (std::int64_t g = 0; g < p.groups; ++g) {
                Tensor4 in1 = makeInput(q), ker1 = makeKernel(q),
                        out1 = makeOutput(q);
                for (std::int64_t n = 0; n < p.n; ++n)
                    for (std::int64_t y = 0; y < p.inH(); ++y)
                        for (std::int64_t x = 0; x < p.inW(); ++x)
                            in1.at(n, 0, y, x) = in.at(n, g, y, x);
                for (std::int64_t r = 0; r < p.r; ++r)
                    for (std::int64_t s = 0; s < p.s; ++s)
                        ker1.at(0, 0, r, s) = ker.at(g, 0, r, s);
                runConv(q, in1, ker1, out1, cfg, threads);
                for (std::int64_t n = 0; n < p.n; ++n)
                    for (std::int64_t y = 0; y < p.h; ++y)
                        for (std::int64_t x = 0; x < p.w; ++x)
                            differ += got.at(n, g, y, x) != out1.at(n, 0, y, x);
            }
            EXPECT_EQ(differ, 0) << p.summary() << " threads " << threads;
        }
    }
}

/** Groups far outnumber threads, with chunked L3 tiles: every
 *  (block, chunk) pair joins one fork-join per L3 tile (a block is one
 *  group, or 16 depthwise groups), and the result is bit-identical at
 *  1 and 3 threads. */
TEST(ConvExec, ManyGroupsParallelMatchSequential)
{
    for (const std::int64_t groups : {12, 48}) {
        ConvProblem p;
        p.name = groups == 48 ? "dw" : "grp";
        p.n = 2;
        p.k = 48 * (groups == 48 ? 1 : 2);
        p.c = 48;
        p.r = 3;
        p.s = 3;
        p.h = 10;
        p.w = 11;
        p.groups = groups;
        p.validate();
        ExecConfig cfg = defaultConfig(p);
        cfg.tiles[LvlL3][DimH] = 6;
        cfg.tiles[LvlL1][DimS] = 2;
        cfg.par = {1, 1, 1, 1, 1, 2, 3};

        Rng rng(8);
        Tensor4 in = makeInput(p), ker = makeKernel(p);
        in.fillRandom(rng);
        ker.fillRandom(rng);
        Tensor4 ref = makeOutput(p), seq = makeOutput(p),
                par = makeOutput(p);
        referenceConv(p, in, ker, ref);
        runConv(p, in, ker, seq, cfg, 1);
        runConv(p, in, ker, par, cfg, 3);
        EXPECT_LT(Tensor4::maxAbsDiff(ref, seq), kTol) << p.summary();
        EXPECT_DOUBLE_EQ(Tensor4::maxAbsDiff(seq, par), 0.0) << p.summary();
    }
}

TEST(Measure, ReportsStatistics)
{
    ConvProblem p;
    p.name = "meas";
    p.n = 1;
    p.k = 16;
    p.c = 4;
    p.r = 3;
    p.s = 3;
    p.h = 8;
    p.w = 8;
    MeasureOptions opts;
    opts.reps = 3;
    opts.warmups = 1;
    opts.flush_bytes = 1 << 20;
    const Measurement m = measureConfig(p, defaultConfig(p), opts);
    EXPECT_EQ(m.seconds.size(), 3u);
    EXPECT_GT(m.mean_gflops, 0.0);
    EXPECT_GE(m.ci95_gflops, 0.0);
    EXPECT_GT(m.mean_seconds, 0.0);
}

TEST(Measure, SampleCountIsDeterministic)
{
    // The measurement harness must be deterministic in *structure*
    // (sample counts, ordering) even though times vary run to run.
    ConvProblem p;
    p.name = "det";
    p.n = 1;
    p.k = 16;
    p.c = 4;
    p.r = 3;
    p.s = 3;
    p.h = 8;
    p.w = 8;
    MeasureOptions opts;
    opts.reps = 4;
    opts.warmups = 2;
    const Measurement a = measureConfig(p, defaultConfig(p), opts);
    const Measurement b = measureConfig(p, defaultConfig(p), opts);
    ASSERT_EQ(a.seconds.size(), 4u);
    ASSERT_EQ(b.seconds.size(), 4u);
    for (double s : a.seconds)
        EXPECT_GT(s, 0.0);
}

TEST(Measure, TimerIsMonotone)
{
    Timer t;
    double prev = 0.0;
    for (int i = 0; i < 100; ++i) {
        const double now = t.seconds();
        EXPECT_GE(now, prev);
        prev = now;
    }
    EXPECT_GE(prev, 0.0);
}

TEST(Measure, QuickMeasureIsPositive)
{
    ConvProblem p;
    p.name = "quick";
    p.n = 1;
    p.k = 16;
    p.c = 2;
    p.r = 1;
    p.s = 1;
    p.h = 6;
    p.w = 6;
    EXPECT_GT(quickMeasureSeconds(p, defaultConfig(p)), 0.0);
}

/** MOpt's chosen configuration also computes correctly. */
TEST(ConvExec, OptimizerOutputMatchesReference)
{
    ConvProblem p;
    p.name = "optx";
    p.n = 1;
    p.k = 32;
    p.c = 8;
    p.r = 3;
    p.s = 3;
    p.h = 12;
    p.w = 12;
    OptimizerOptions o;
    o.effort = OptimizerOptions::Effort::Fast;
    o.parallel = true;
    o.threads = 4;
    const OptimizeOutput out = optimizeConv(p, i7_9700k(), o);
    ASSERT_FALSE(out.candidates.empty());
    expectMatchesReference(p, out.candidates.front().config, 4);
}

} // namespace
} // namespace mopt
