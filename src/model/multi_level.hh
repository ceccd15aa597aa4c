/**
 * @file
 * Multi-level cost model (Sec. 5 + Sec. 7 of the paper): composes the
 * single-level data-volume expressions across the Reg/L1/L2/L3
 * hierarchy and converts them into bandwidth-scaled times. The
 * predicted execution time is the maximum across levels (concurrent
 * transfers between different level pairs), also bounded below by the
 * FMA-throughput compute time.
 */

#ifndef MOPT_MODEL_MULTI_LEVEL_HH
#define MOPT_MODEL_MULTI_LEVEL_HH

#include <array>
#include <string>

#include "conv/problem.hh"
#include "machine/machine.hh"
#include "model/single_level.hh"
#include "model/tile_config.hh"

namespace mopt {

/** Full cost breakdown of a multi-level tiling configuration. */
struct CostBreakdown
{
    /** Total data volume (fp32 words, all cores) at each level. */
    std::array<double, NumMemLevels> volume_words{};

    /** Bandwidth-scaled time (seconds) of each level's traffic. */
    std::array<double, NumMemLevels> seconds{};

    /** Level with the maximum bandwidth-scaled time. */
    int bottleneck = LvlReg;

    /** FMA-throughput lower bound on execution time. */
    double compute_seconds = 0.0;

    /** max(compute, max_l seconds[l]): the model's predicted time. */
    double total_seconds = 0.0;

    /** flops / total_seconds / 1e9. */
    double gflops = 0.0;

    /** Human-readable per-level summary. */
    std::string str() const;
};

/**
 * Evaluate the multi-level model for @p cfg.
 *
 * @param cfg       tiling configuration (Reg..L3 permutations, tile
 *                  sizes, parallel split factors)
 * @param p         convolution shape
 * @param m         machine description
 * @param parallel  model parallel execution across cfg.par cores
 *                  (Sec. 7): per-core bandwidth calibration and
 *                  traffic divided across cores
 * @param mode      trip-count arithmetic (Ceil for integer configs)
 */
CostBreakdown evalMultiLevel(const MultiLevelConfig &cfg,
                             const ConvProblem &p, const MachineSpec &m,
                             bool parallel,
                             DivMode mode = DivMode::Continuous);

/**
 * The planner's ranking order: the lower predicted total first; on
 * equal totals (every compute-bound configuration predicts the same
 * FMA bound) the one whose bottleneck level moves less traffic.
 */
bool rankedBefore(const CostBreakdown &a, const CostBreakdown &b);

/**
 * A scalar with rankedBefore's order for scalar minimizers:
 * total + 1e-6 * seconds[bottleneck]. The bottleneck time never
 * exceeds the total, so it can only reorder totals within 1 ppm.
 */
double rankingCost(const CostBreakdown &c);

/**
 * Maximum relative capacity violation of @p cfg across hierarchy
 * levels: 0 when every level's tile footprint fits its capacity,
 * otherwise max over levels of footprint/capacity - 1. The register
 * level uses the microkernel register budget (footprint.hh).
 */
double capacityViolation(const MultiLevelConfig &cfg, const ConvProblem &p,
                         const MachineSpec &m);

/** Convenience wrappers for integer (executor) configurations. */
CostBreakdown evalMultiLevel(const ExecConfig &cfg, const ConvProblem &p,
                             const MachineSpec &m, bool parallel);
double capacityViolation(const ExecConfig &cfg, const ConvProblem &p,
                         const MachineSpec &m);

/**
 * The per-core L3-tile extents under cfg.par (the paper's PT_a3):
 * level-L3 tile sizes divided by the parallel split factors.
 */
TileVec perCoreL3Tile(const MultiLevelConfig &cfg);

} // namespace mopt

#endif // MOPT_MODEL_MULTI_LEVEL_HH
