/**
 * @file
 * The MOpt optimizer (Sec. 8, Algorithm 1 of the paper): sweep the
 * pruned permutation classes; for each, repeatedly solve constrained
 * NLPs to find the most-constrained memory level, fix its tile sizes,
 * and recurse on the remaining levels; finally integerize (floor),
 * load-balance, and rank candidates by predicted time (ties between
 * compute-bound candidates broken by bottleneck traffic, see
 * rankedBefore).
 *
 * Execution model: each round of Algorithm 1 is flattened into
 * independent (permutation combo x objective level x start point)
 * work items fanned across ThreadPool::parallelForIndexed, with one
 * reusable SolverScratch per worker and analytic gradients from
 * ConvNlp (one model evaluation per Adam step). Results are reduced
 * in job order after each round, so optimizeConv is deterministic:
 * the same (problem, machine, options-minus-threads) produce
 * bit-identical output for any thread count — the property the
 * service layer's CacheKey relies on (see docs/ARCHITECTURE.md).
 */

#ifndef MOPT_OPTIMIZER_MOPT_OPTIMIZER_HH
#define MOPT_OPTIMIZER_MOPT_OPTIMIZER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "conv/problem.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "model/tile_config.hh"

namespace mopt {

/**
 * Revision of what optimizeConv returns for fixed inputs. Bump it
 * whenever the search space or the ranking changes: it is folded into
 * CacheKey::settingsFingerprint, so plans journaled or replicated by
 * an older planner miss instead of being replayed as current ones.
 * Revision 1 keeps the filter window whole at every level and breaks
 * compute-bound ties by bottleneck traffic.
 */
constexpr std::uint64_t kPlannerRevision = 1;

/** Options controlling the optimizer. */
struct OptimizerOptions
{
    /** How many ranked candidates to return (paper's MOpt-5 uses 5). */
    int top_k = 5;

    /** Optimize for parallel execution on all cores (Sec. 7). */
    bool parallel = true;

    /** Permutation sweep mode. */
    enum class PermMode {
        Uniform,     //!< Same pruned class at L1/L2/L3 (8 cases).
        Independent, //!< Free class choice per level (8^3 cases).
    };
    PermMode perm_mode = PermMode::Uniform;

    /** Solver effort preset (inner iterations / starts). */
    enum class Effort { Fast, Standard, Thorough };
    Effort effort = Effort::Standard;

    /** Seed of the solver's random starts. Part of the solve's cache
     *  identity (service/cache_key.hh): changing it may change the
     *  returned configuration. */
    std::uint64_t seed = 7;

    /** Helper threads one solve recruits for the permutation sweep
     *  (0 = one per hardware thread). The solving thread takes part
     *  too, so a solve runs on threads + 1 participants; a
     *  SolveScheduler running N solves at once splits those evenly
     *  (solveWidth()). Never affects the result, only the wall time. */
    int threads = 0;
};

/** Participants (caller included) in each of @p concurrent_solves
 *  simultaneous solves: opts.threads + 1 split evenly, at least 1.
 *  The private-pool optimizeConv and a SolveScheduler both size their
 *  solves by it, so a budget-1 scheduler solves exactly as wide. */
std::size_t solveWidth(const OptimizerOptions &opts,
                       int concurrent_solves = 1);

/**
 * Parse an effort preset name: "fast", "standard", or "thorough"
 * (case-sensitive, the CLI spelling). Anything else is a fatal user
 * error — shared by every front end so they cannot drift.
 */
OptimizerOptions::Effort effortFromString(const std::string &s);

/** One ranked configuration. */
struct Candidate
{
    ExecConfig config;
    CostBreakdown predicted; //!< Ceil-mode model evaluation.
    std::string perm_label;  //!< Pruned-class names per level.
};

/** Output of optimizeConv. */
struct OptimizeOutput
{
    std::vector<Candidate> candidates; //!< Sorted, best first.
    double seconds = 0.0;              //!< Wall-clock search time.
    long solver_evals = 0;             //!< Total model evaluations.
};

/**
 * Register-tile sizes pinned by the microkernel (Sec. 8: machine-
 * dependent, problem-independent up to clamping): k = 2 vector
 * registers wide, 6 spatial points along w, the whole r x s filter
 * window, 1 elsewhere. The window does not occupy registers (see
 * registerFootprint); spanning it keeps the Out block resident for
 * the whole reduction and, through nesting, keeps every cache-level
 * tile from splitting the window.
 */
IntTileVec microkernelTiles(const ConvProblem &p, const MachineSpec &m);

/** The fixed register-level tile-loop order (n,h,w,k outer; c,r,s
 *  innermost so the Out accumulators are reused across the whole
 *  reduction, Sec. 6). */
Permutation microkernelPermutation();

/** Run the full optimizer for one conv2d operator. Spawns a private
 *  ThreadPool of solveWidth(opts) - 1 helpers for the duration of the
 *  call. */
OptimizeOutput optimizeConv(const ConvProblem &p, const MachineSpec &m,
                            const OptimizerOptions &opts =
                                OptimizerOptions());

/**
 * Same optimizer on a caller-provided (possibly width-capped) pool
 * handle: the sweep fans out across at most pool.width() threads,
 * caller included, and opts.threads is ignored. This is how the solve
 * scheduler (src/service/solve_scheduler.hh) runs several solves
 * concurrently, each on a partition of one shared pool's width. The
 * result is bit-identical to the private-pool overload for any width
 * (see docs/ARCHITECTURE.md, "Threading and determinism invariants").
 */
OptimizeOutput optimizeConv(const ConvProblem &p, const MachineSpec &m,
                            const OptimizerOptions &opts,
                            ThreadPool::SubWidth pool);

} // namespace mopt

#endif // MOPT_OPTIMIZER_MOPT_OPTIMIZER_HH
