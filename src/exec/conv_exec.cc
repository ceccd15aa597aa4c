#include "exec/conv_exec.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/timer.hh"
#include "exec/loop_nest.hh"
#include "exec/microkernel_tiles.hh"
#include "tensor/packing.hh"

namespace mopt {

namespace {

/**
 * Execute every register tile of group @p g's part of one
 * L2-and-inward region. The walkers iterate the *per-group* iteration
 * space (problemExtents is per group): the group's channel offsets
 * relocate the local k into the global kernel axis and the local c
 * into the global input axis. The tiles accumulate into @p acc, which
 * holds group g's outputs as [N][H][W][K/G] after the slabs of groups
 * 0..g-1, so a register tile's channels are contiguous.
 */
void
runRegion(const ConvProblem &p, const RegisterTiler &tiler, float *acc,
          const ExecConfig &cfg, const TileBounds &region, std::int64_t g)
{
    const std::int64_t kg = p.kPerGroup();
    const std::int64_t k_off = g * kg;
    const std::int64_t c_off = g * p.cPerGroup();
    walkTilesAtLevel(cfg, LvlL2, region, [&](const TileBounds &l2) {
        walkTilesAtLevel(cfg, LvlL1, l2, [&](const TileBounds &l1) {
            walkRegisterTiles(
                cfg, l1,
                [&](std::int64_t n, std::int64_t h, std::int64_t w0,
                    std::int64_t wb, std::int64_t k0, std::int64_t kb) {
                    float *o =
                        acc + (((g * p.n + n) * p.h + h) * p.w + w0) * kg +
                        k0;
                    tiler(n, h, w0, wb, k_off + k0, kb, l1.lo[DimC],
                          l1.hi[DimC], l1.lo[DimR], l1.hi[DimR],
                          l1.lo[DimS], l1.hi[DimS], c_off, o);
                });
        });
    });
}

/**
 * The depthwise counterpart of runRegion: group block @p gb's
 * kKU groups walk the region's L2, L1 and register tiles together,
 * exactly as each of them would alone (the per-group K and C extents
 * are 1, so every register tile is one (n, h, w0, wb) run).
 */
void
runDepthwiseRegion(const DepthwiseTiler &tiler, const ExecConfig &cfg,
                   const TileBounds &region, std::int64_t gb)
{
    walkTilesAtLevel(cfg, LvlL2, region, [&](const TileBounds &l2) {
        walkTilesAtLevel(cfg, LvlL1, l2, [&](const TileBounds &l1) {
            walkRegisterTiles(
                cfg, l1,
                [&](std::int64_t n, std::int64_t h, std::int64_t w0,
                    std::int64_t wb, std::int64_t, std::int64_t) {
                    tiler(gb, n, h, w0, wb, l1.lo[DimR], l1.hi[DimR],
                          l1.lo[DimS], l1.hi[DimS]);
                });
        });
    });
}

} // namespace

ExecStats
runConv(const ConvProblem &p, const Tensor4 &in, const Tensor4 &ker,
        Tensor4 &out, const ExecConfig &cfg, int threads)
{
    checkUser(out.dim(0) == p.n && out.dim(1) == p.k && out.dim(2) == p.h &&
                  out.dim(3) == p.w,
              "runConv: output shape mismatch");

    Timer total;

    std::int64_t want = 1;
    for (std::int64_t f : cfg.par)
        want *= f;
    ThreadPool::SubWidth pool = globalPool().subWidth(
        static_cast<std::size_t>(threads > 0 ? threads : want));

    Timer pack_timer;
    const PackedKernel pk(ker, MicroKernelShape::kVecLen, pool);
    const double pack_seconds = pack_timer.seconds();

    // K-contiguous accumulator: `blocks` slabs of [N][H][W][lanes],
    // block b holding output channels [b * lanes, b * lanes + lanes).
    // A block is one group, or kKU groups of a depthwise layer (one
    // input and one output channel per group).
    constexpr std::int64_t kKU = MicroKernelShape::kKU;
    const bool depthwise =
        p.kPerGroup() == 1 && p.cPerGroup() == 1 && p.groups > 1;
    const std::int64_t lanes = depthwise ? kKU : p.kPerGroup();
    const std::int64_t blocks = (p.k + lanes - 1) / lanes;
    const std::int64_t plane = p.h * p.w;
    const std::unique_ptr<float[]> acc(
        new float[static_cast<std::size_t>(blocks * p.n * plane * lanes)]);
    forRowBlocks(pool, blocks * p.n, plane, lanes,
                 [&](std::int64_t slab, std::int64_t lo, std::int64_t hi) {
                     std::fill(acc.get() + (slab * plane + lo) * lanes,
                               acc.get() + (slab * plane + hi) * lanes,
                               0.0f);
                 });

    // The group index is the implicit outermost loop (problem.hh): the
    // walkers cover one group's [0, k/G) x [0, c/G) channel space, and
    // the blocks of groups run that same nest side by side.
    const auto walk = [&](const auto &run_region) {
        walkTilesAtLevel(cfg, LvlL3, fullRegion(p), [&](const TileBounds &l3) {
            // Sec. 7: parallelize within the L3 tile. Chunks along
            // non-reduction dims write disjoint outputs, and so do
            // blocks, so every (block, chunk) pair of the tile joins
            // one fork-join with no synchronization inside it.
            const std::vector<TileBounds> chunks = splitRegion(l3, cfg.par);
            const std::size_t count =
                chunks.size() * static_cast<std::size_t>(blocks);
            const auto body = [&](std::size_t i) {
                run_region(chunks[i % chunks.size()],
                           static_cast<std::int64_t>(i / chunks.size()));
            };
            // One item or one thread runs inline, queueing no task.
            if (count == 1 || pool.width() == 1) {
                for (std::size_t i = 0; i < count; ++i)
                    body(i);
            } else {
                pool.parallelFor(count, body);
            }
        });
    };

    if (depthwise) {
        // Group-block the input, [G/kKU][N][inH][inW][kKU], with zero
        // lanes past G, so a vector load reads kKU groups' pixels.
        const std::int64_t in_plane = p.inH() * p.inW();
        const std::unique_ptr<float[]> in_blocked(new float[
            static_cast<std::size_t>(blocks * p.n * in_plane * kKU)]);
        forRowBlocks(
            pool, blocks * p.n, p.inH(), p.inW() * kKU,
            [&](std::int64_t slab, std::int64_t lo, std::int64_t hi) {
                const std::int64_t g0 = slab / p.n * kKU, n = slab % p.n;
                const std::int64_t live = std::min(kKU, p.groups - g0);
                const std::int64_t px0 = lo * p.inW(), px1 = hi * p.inW();
                float *dst = in_blocked.get() + (slab * in_plane + px0) * kKU;
                transposeInto(in.data() + in.offset(n, g0, lo, 0), live,
                              px1 - px0, in_plane, dst, kKU);
                if (live < kKU)
                    for (std::int64_t px = px0; px < px1; ++px, dst += kKU)
                        std::fill(dst + live, dst + kKU, 0.0f);
            });
        const DepthwiseTiler tiler(p, in_blocked.get(), pk, acc.get());
        walk([&](const TileBounds &region, std::int64_t gb) {
            runDepthwiseRegion(tiler, cfg, region, gb);
        });
    } else {
        const RegisterTiler tiler(p, in, pk, lanes, 1);
        walk([&](const TileBounds &region, std::int64_t g) {
            runRegion(p, tiler, acc.get(), cfg, region, g);
        });
    }

    // Write NKHW: each slab's [H*W][lanes] is the transpose of its
    // channels' output planes.
    forRowBlocks(pool, blocks * p.n, plane, lanes,
                 [&](std::int64_t slab, std::int64_t lo, std::int64_t hi) {
                     const std::int64_t k0 = slab / p.n * lanes;
                     const std::int64_t n = slab % p.n;
                     transposeInto(acc.get() + (slab * plane + lo) * lanes,
                                   hi - lo, std::min(lanes, p.k - k0), lanes,
                                   out.data() + out.offset(n, k0, 0, 0) + lo,
                                   plane);
                 });

    ExecStats stats;
    stats.seconds = total.seconds();
    stats.pack_seconds = pack_seconds;
    stats.gflops = p.flops() / stats.seconds / 1e9;
    return stats;
}

ExecConfig
defaultConfig(const ConvProblem &p)
{
    const IntTileVec extents = problemExtents(p);
    ExecConfig cfg;
    IntTileVec reg{1, 1, 1, 1, 1, 1, 1};
    reg[DimK] = std::min<std::int64_t>(MicroKernelShape::kKU, p.k);
    reg[DimW] = std::min<std::int64_t>(MicroKernelShape::kWU, p.w);
    cfg.perm[LvlReg] = Permutation::parse("nhwkcrs");
    cfg.tiles[LvlReg] = reg;
    for (int l = LvlL1; l <= LvlL3; ++l) {
        cfg.perm[static_cast<std::size_t>(l)] = Permutation();
        cfg.tiles[static_cast<std::size_t>(l)] = extents;
    }
    // Keep the L1 tile modest so the default is not pathological.
    cfg.tiles[LvlL1][DimC] = std::min<std::int64_t>(p.c, 64);
    cfg.tiles[LvlL1][DimH] = std::min<std::int64_t>(p.h, 8);
    cfg.tiles[LvlL1][DimW] = std::min<std::int64_t>(p.w, 48);
    cfg.tiles[LvlL1][DimK] = std::min<std::int64_t>(
        p.k, MicroKernelShape::kKU);
    for (int d = 0; d < NumDims; ++d)
        cfg.tiles[LvlL2][static_cast<std::size_t>(d)] = std::min(
            extents[static_cast<std::size_t>(d)],
            cfg.tiles[LvlL1][static_cast<std::size_t>(d)] * 4);
    return cfg;
}

} // namespace mopt
