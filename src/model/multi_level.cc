#include "model/multi_level.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "model/footprint.hh"

namespace mopt {

std::string
CostBreakdown::str() const
{
    std::ostringstream oss;
    for (int l = 0; l < NumMemLevels; ++l) {
        oss << memLevelName(l) << ": " << volume_words[static_cast<std::size_t>(l)]
            << " words, " << seconds[static_cast<std::size_t>(l)] * 1e3
            << " ms" << (l == bottleneck ? "  <-- bottleneck" : "") << "\n";
    }
    oss << "compute: " << compute_seconds * 1e3 << " ms, total: "
        << total_seconds * 1e3 << " ms, " << gflops << " GFLOPS\n";
    return oss.str();
}

TileVec
perCoreL3Tile(const MultiLevelConfig &cfg)
{
    TileVec t = cfg.level[LvlL3].tiles;
    for (int d = 0; d < NumDims; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        t[sd] = std::max(1.0, t[sd] / static_cast<double>(cfg.par[sd]));
    }
    return t;
}

CostBreakdown
evalMultiLevel(const MultiLevelConfig &cfg, const ConvProblem &p,
               const MachineSpec &m, bool parallel, DivMode mode)
{
    const TileVec extents = toTileVec(problemExtents(p));
    const std::int64_t active =
        parallel ? std::min<std::int64_t>(cfg.totalParallelism(), m.cores)
                 : 1;

    CostBreakdown out;
    for (int l = 0; l < NumMemLevels; ++l) {
        const auto sl = static_cast<std::size_t>(l);
        const LevelTiling &lt = cfg.level[sl];

        // Enclosing-tile extents for this level: the next outer
        // level's tile (problem extents for L3). In parallel mode the
        // enclosing tile of the L2 level is the per-core share of the
        // L3 tile (Sec. 7's substitution of PT_a3 for T_a3).
        TileVec outer;
        if (l == LvlL3)
            outer = extents;
        else if (l == LvlL2 && parallel)
            outer = perCoreL3Tile(cfg);
        else
            outer = cfg.level[sl + 1].tiles;

        // Total traffic = volume per enclosing tile x number of
        // enclosing tiles over the whole problem. Extents are per
        // group (see problemExtents); the implicit outermost group
        // loop repeats the whole per-group tile walk p.groups times.
        const double per_tile =
            totalDataVolume(lt.perm, lt.tiles, outer, p, mode);
        const double count =
            tileCount(outer, extents, mode) * static_cast<double>(p.groups);
        const double volume = per_tile * count;
        out.volume_words[sl] = volume;

        const double bytes = volume * 4.0;
        const double bw = m.bandwidth(l, parallel) * 1e9;
        // Private levels split their traffic across the active cores;
        // the shared DRAM<->L3 link is modeled with its aggregate
        // parallel bandwidth.
        const double ways =
            (parallel && l != LvlL3) ? static_cast<double>(active) : 1.0;
        out.seconds[sl] = bytes / (bw * ways);
    }

    out.bottleneck = LvlReg;
    for (int l = 1; l < NumMemLevels; ++l)
        if (out.seconds[static_cast<std::size_t>(l)] >
            out.seconds[static_cast<std::size_t>(out.bottleneck)])
            out.bottleneck = l;

    out.compute_seconds =
        p.flops() /
        (m.peakGflopsPerCore() * static_cast<double>(active) * 1e9);
    out.total_seconds =
        std::max(out.compute_seconds,
                 out.seconds[static_cast<std::size_t>(out.bottleneck)]);
    out.gflops = p.flops() / out.total_seconds / 1e9;
    return out;
}

bool
rankedBefore(const CostBreakdown &a, const CostBreakdown &b)
{
    if (a.total_seconds != b.total_seconds)
        return a.total_seconds < b.total_seconds;
    return a.seconds[static_cast<std::size_t>(a.bottleneck)] <
           b.seconds[static_cast<std::size_t>(b.bottleneck)];
}

double
rankingCost(const CostBreakdown &c)
{
    return c.total_seconds +
           1e-6 * c.seconds[static_cast<std::size_t>(c.bottleneck)];
}

double
capacityViolation(const MultiLevelConfig &cfg, const ConvProblem &p,
                  const MachineSpec &m)
{
    double worst = 0.0;
    // Register level: microkernel register budget.
    {
        const double used = registerFootprint(cfg.level[LvlReg].tiles, p,
                                              m.vec_lanes);
        const double cap = static_cast<double>(m.capacityWords(LvlReg));
        worst = std::max(worst, used / cap - 1.0);
    }
    for (int l = LvlL1; l <= LvlL3; ++l) {
        const double used =
            totalFootprint(cfg.level[static_cast<std::size_t>(l)].tiles, p);
        const double cap = static_cast<double>(m.capacityWords(l));
        worst = std::max(worst, used / cap - 1.0);
    }
    return std::max(0.0, worst);
}

CostBreakdown
evalMultiLevel(const ExecConfig &cfg, const ConvProblem &p,
               const MachineSpec &m, bool parallel)
{
    return evalMultiLevel(cfg.toModel(), p, m, parallel, DivMode::Ceil);
}

double
capacityViolation(const ExecConfig &cfg, const ConvProblem &p,
                  const MachineSpec &m)
{
    return capacityViolation(cfg.toModel(), p, m);
}

} // namespace mopt
