#include "service/network_optimizer.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "common/table.hh"
#include "common/timer.hh"
#include "model/multi_level.hh"

namespace mopt {

double
NetworkPlanStats::hitRate() const
{
    if (unique_shapes == 0)
        return 1.0;
    return static_cast<double>(cache_hits) /
           static_cast<double>(unique_shapes);
}

double
NetworkPlan::predictedSeconds() const
{
    double s = 0.0;
    for (const LayerPlan &lp : layers)
        s += lp.best.predicted.total_seconds;
    return s;
}

std::string
NetworkPlan::str() const
{
    Table t({"Layer", "shape", "class", "L1 tile", "L2 tile", "L3 tile",
             "par", "pred ms", "pred GFLOPS"});
    for (const LayerPlan &lp : layers) {
        const ConvProblem &p = lp.problem;
        std::ostringstream shape;
        if (p.n > 1)
            shape << "N" << p.n << " ";
        shape << "K" << p.k << " C" << p.c << " H" << p.h << " R"
              << p.r;
        if (p.stride > 1)
            shape << "/" << p.stride;
        if (p.groups > 1)
            shape << " g" << p.groups;
        t.row()
            .add(p.name)
            .add(shape.str())
            .add(lp.best.perm_label)
            .add(tilesToString(lp.best.config.tiles[LvlL1]))
            .add(tilesToString(lp.best.config.tiles[LvlL2]))
            .add(tilesToString(lp.best.config.tiles[LvlL3]))
            .add(tilesToString(lp.best.config.par))
            .add(lp.best.predicted.total_seconds * 1e3, 3)
            .add(lp.best.predicted.gflops, 1);
    }
    return t.str();
}

std::vector<KeyGroup>
groupByKey(const std::vector<ConvProblem> &net, const MachineSpec &machine,
           const OptimizerOptions &opts)
{
    std::vector<KeyGroup> groups;
    // key hash -> group indices (collision chain).
    std::map<std::uint64_t, std::vector<std::size_t>> by_hash;
    for (std::size_t i = 0; i < net.size(); ++i) {
        net[i].validate();
        const CacheKey key = CacheKey::make(net[i], machine, opts);
        auto &chain = by_hash[key.hash()];
        const auto it = std::find_if(
            chain.begin(), chain.end(),
            [&](std::size_t gi) { return groups[gi].key == key; });
        if (it != chain.end()) {
            groups[*it].layers.push_back(i);
        } else {
            chain.push_back(groups.size());
            groups.push_back(KeyGroup{key, {i}});
        }
    }
    return groups;
}

NetworkPlan
assemblePlan(const std::vector<ConvProblem> &net, const MachineSpec &machine,
             const OptimizerOptions &opts, const PlanResolver &resolve)
{
    Timer total;
    NetworkPlan plan;
    plan.layers.resize(net.size());
    plan.stats.layers = net.size();

    const std::vector<KeyGroup> groups = groupByKey(net, machine, opts);
    plan.stats.unique_shapes = groups.size();
    std::vector<CacheKey> keys;
    keys.reserve(groups.size());
    for (const KeyGroup &g : groups)
        keys.push_back(g.key);
    const std::vector<ScheduledSolve> solved = resolve(keys);
    checkInvariant(solved.size() == groups.size(),
                   "assemblePlan: resolver returned the wrong count");

    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const KeyGroup &g = groups[gi];
        const ScheduledSolve &r = solved[gi];
        Candidate best;
        best.config = r.sol.config;
        best.perm_label = r.sol.perm_label;
        best.predicted =
            evalMultiLevel(best.config, net[g.layers.front()], machine,
                           opts.parallel);
        if (r.cache_hit) {
            plan.stats.cache_hits++;
        } else {
            plan.stats.cache_misses++;
            if (r.coalesced)
                plan.stats.coalesced++;
            plan.stats.solver_evals += r.solver_evals;
            plan.stats.solve_seconds += r.solve_seconds;
        }
        for (std::size_t li = 0; li < g.layers.size(); ++li) {
            LayerPlan &lp = plan.layers[g.layers[li]];
            lp.problem = net[g.layers[li]];
            lp.best = best;
            lp.cache_hit = r.cache_hit;
            lp.dedup_hit = li > 0;
            lp.solve_seconds = li == 0 ? r.solve_seconds : 0.0;
        }
    }

    plan.stats.total_seconds = total.seconds();
    return plan;
}

NetworkOptimizer::NetworkOptimizer(const MachineSpec &machine,
                                   const OptimizerOptions &opts,
                                   SolutionCache *cache,
                                   SolveScheduler *scheduler)
    : machine_(machine), opts_(opts),
      owned_(scheduler ? nullptr
                       : std::make_unique<SolveScheduler>(machine, opts,
                                                          cache)),
      scheduler_(scheduler ? scheduler : owned_.get())
{
    machine_.validate();
    // A scheduler built from different settings would cache and
    // coalesce under keys this optimizer never looks up.
    checkUser(scheduler_->machineFingerprint() ==
                      CacheKey::machineFingerprint(machine_) &&
                  scheduler_->settingsFingerprint() ==
                      CacheKey::settingsFingerprint(opts_),
              "NetworkOptimizer: scheduler was built for a "
              "different machine or settings");
}

NetworkPlan
NetworkOptimizer::optimize(const NetworkDef &net, Deadline dl) const
{
    return optimize(net.lower(), dl);
}

NetworkPlan
NetworkOptimizer::optimize(const std::vector<ConvProblem> &net,
                           Deadline dl) const
{
    NetworkPlan plan = assemblePlan(
        net, machine_, opts_, [&](const std::vector<CacheKey> &keys) {
            // A request given up on before it starts queues no solves.
            if (dl.expired())
                throw DeadlineExceeded(
                    "network solve ran past its deadline");
            // Submit every key up front so distinct cold shapes
            // overlap across the scheduler's budget (and duplicates
            // coalesce with any concurrent request for the same
            // shape), then join in network order.
            std::vector<SolveTicket> tickets;
            tickets.reserve(keys.size());
            for (const CacheKey &key : keys)
                tickets.push_back(scheduler_->submit(key.problem));
            std::vector<ScheduledSolve> solved(keys.size());
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (!tickets[i].waitFor(dl, solved[i])) {
                    // The remaining flights keep running and will land
                    // in the cache; only this caller's answer is
                    // abandoned.
                    throw DeadlineExceeded(
                        "network solve ran past its deadline (" +
                        std::to_string(keys.size() - i) + " of " +
                        std::to_string(keys.size()) +
                        " shapes still outstanding)");
                }
            }
            return solved;
        });
    plan.stats.peak_concurrency = scheduler_->stats().peak_concurrency;
    return plan;
}

} // namespace mopt
