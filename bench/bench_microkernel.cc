/**
 * @file
 * Sec. 6 microkernel benchmark (google-benchmark): throughput of the
 * outer-product register-tiled kernel on an L1-resident tile, with
 * full 16-channel blocks and with short blocks off the 8-lane grid,
 * and the naive reference loop. Full blocks should approach the core's
 * FMA peak; Little's-law sizing (6 x 16 block) is what makes that
 * possible.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "conv/reference.hh"
#include "exec/conv_exec.hh"
#include "exec/measure.hh"
#include "exec/microkernel.hh"
#include "tensor/packing.hh"

namespace {

using namespace mopt;

ConvProblem
l1Problem()
{
    // An L1-resident working set: 16 x 16 x 3 x 3 kernel on 12 x 12.
    ConvProblem p;
    p.name = "ukernel";
    p.n = 1;
    p.k = 16;
    p.c = 16;
    p.r = 3;
    p.s = 3;
    p.h = 12;
    p.w = 12;
    return p;
}

struct Fixture
{
    ConvProblem p = l1Problem();
    Tensor4 in, ker, out;
    PackedKernel pk;

    Fixture()
        : in(makeInput(p)), ker(makeKernel(p)), out(makeOutput(p)),
          pk([this] {
              Rng rng(1);
              in.fillRandom(rng);
              ker.fillRandom(rng);
              return PackedKernel(ker, MicroKernelShape::kVecLen);
          }())
    {
    }
};

void
BM_MicrokernelFastPath(benchmark::State &state)
{
    Fixture f;
    for (auto _ : state) {
        f.out.fill(0.0f);
        for (std::int64_t h = 0; h < f.p.h; ++h)
            for (std::int64_t w = 0; w < f.p.w; w += 6)
                computeRegisterTile(
                    f.p, f.in, f.pk, f.out, 0, h, w,
                    std::min<std::int64_t>(6, f.p.w - w), 0, 16, 0,
                    f.p.c, 0, f.p.r, 0, f.p.s);
        benchmark::DoNotOptimize(f.out.data());
    }
    state.counters["GFLOPS"] = benchmark::Counter(
        f.p.flops() * static_cast<double>(state.iterations()) / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MicrokernelFastPath);

void
BM_MicrokernelMisalignedShortK(benchmark::State &state)
{
    // 5-channel blocks from k0 = 1: every block starts off the 8-lane
    // grid and stores fewer than 16 lanes (the odd K tiles of
    // MobileNet plans). Counts only the 15 channels [1, 16) it computes.
    Fixture f;
    constexpr std::int64_t kb = 5;
    for (auto _ : state) {
        f.out.fill(0.0f);
        for (std::int64_t h = 0; h < f.p.h; ++h)
            for (std::int64_t w = 0; w < f.p.w; w += 6)
                for (std::int64_t k = 1; k < f.p.k; k += kb)
                    computeRegisterTile(
                        f.p, f.in, f.pk, f.out, 0, h, w,
                        std::min<std::int64_t>(6, f.p.w - w), k, kb, 0,
                        f.p.c, 0, f.p.r, 0, f.p.s);
        benchmark::DoNotOptimize(f.out.data());
    }
    state.counters["GFLOPS"] = benchmark::Counter(
        f.p.flops() * 15.0 / 16.0 *
            static_cast<double>(state.iterations()) / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MicrokernelMisalignedShortK);

void
BM_NaiveReference(benchmark::State &state)
{
    Fixture f;
    for (auto _ : state) {
        referenceConv(f.p, f.in, f.ker, f.out);
        benchmark::DoNotOptimize(f.out.data());
    }
    state.counters["GFLOPS"] = benchmark::Counter(
        f.p.flops() * static_cast<double>(state.iterations()) / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NaiveReference);

void
BM_TiledExecutorEndToEnd(benchmark::State &state)
{
    Fixture f;
    const ExecConfig cfg = defaultConfig(f.p);
    for (auto _ : state) {
        runConv(f.p, f.in, f.ker, f.out, cfg, 1);
        benchmark::DoNotOptimize(f.out.data());
    }
    state.counters["GFLOPS"] = benchmark::Counter(
        f.p.flops() * static_cast<double>(state.iterations()) / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TiledExecutorEndToEnd);

void
BM_KernelPacking(benchmark::State &state)
{
    Fixture f;
    for (auto _ : state) {
        PackedKernel pk(f.ker, MicroKernelShape::kVecLen);
        benchmark::DoNotOptimize(pk.size());
    }
}
BENCHMARK(BM_KernelPacking);

} // namespace

BENCHMARK_MAIN();
