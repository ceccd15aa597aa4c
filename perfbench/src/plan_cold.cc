/**
 * @file
 * plan_cold: cold network planning through the server.
 *
 * Each round starts a fresh in-process Server (default solve
 * concurrency) over an empty SolutionCache journaled in a fresh
 * directory. benchThreads() closed-loop clients, one connection each,
 * post solve_network for resnet18, vgg16, yolov3 and MobileNetV1
 * (inline IR) in a seeded order; the seed also draws each network's
 * batch, so a new seed means new cold keys. The solver, cost model
 * and optimizer do the work, with single-flight coalescing and the
 * cache's insert/journal path; the executor does none.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "rpc/client.hh"
#include "service/network_optimizer.hh"
#include "service/solution_cache.hh"
#include "span_trace.hh"
#include "workloads.hh"

namespace perfbench {

using namespace mopt;
namespace fs = std::filesystem;

namespace {

struct Reply
{
    std::size_t net = 0;
    bool ok = false;
    std::string plan_text;
    std::string error;
};

struct Round
{
    double wall_s = 0; //!< First send to last reply.
    std::vector<Reply> replies;
    std::int64_t solves = 0;
    std::int64_t coalesced = 0;
    std::int64_t inserts = 0;
};

/** A directory removed (with its contents) on destruction. */
struct ScratchDir
{
    explicit ScratchDir(fs::path p) : path(std::move(p))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    fs::path path;
};

SolutionCacheOptions
journaled(const ScratchDir &dir)
{
    SolutionCacheOptions co;
    co.journal_path = (dir.path / "journal.jsonl").string();
    return co;
}

/** A fresh server over an empty cache journaled in a fresh directory,
 *  with one answering connection per client. */
struct ColdServer
{
    ColdServer(const Options &o, int index)
        : dir(fs::path(o.work_dir) /
              ("plan_cold_server" + std::to_string(index))),
          cache(journaled(dir)), srv(&cache, benchServerOptions())
    {
        for (int c = 0; c < benchThreads(); ++c) {
            conns.emplace_back(srv.endpoint());
            RpcRequest req;
            req.op = RpcOp::Ping;
            RpcResponse resp;
            if (!conns.back().call(req, resp) || !resp.ok)
                throw std::runtime_error("plan_cold: server did not answer");
        }
    }

    ScratchDir dir; //!< Declared first: removed after the cache closes.
    SolutionCache cache;
    LiveServer srv;
    std::vector<Client> conns;
};

/** Seconds from nothing to a server answering every client. */
double
coldStart(const Options &o, int index)
{
    const double t0 = nowSeconds();
    return Tracer::get().timed("rpc.Server.coldStart", [&] {
        const ColdServer cold(o, index);
        return nowSeconds() - t0; // Teardown is not start-up.
    });
}

/** What the rounds are checked against: each network's plan from a
 *  local NetworkOptimizer solve. */
struct Reference
{
    std::vector<std::string> plan_text;
    double seconds = 0; //!< The solve + the median server cold start.
};

/** The workload's set-up: solve the reference plans locally, then
 *  start servers from nothing; set-up time counts the solve plus the
 *  median of several cold starts, so work moved into server start-up
 *  shows here. */
Reference
setUp(const Options &o, const std::vector<BenchNet> &nets)
{
    Tracer &tr = Tracer::get();
    Reference ref;
    const double t0 = nowSeconds();
    const NetworkOptimizer local(benchMachine(), benchOptimizerOptions());
    for (const BenchNet &n : nets)
        ref.plan_text.push_back(
            tr.timed("service.optimize", [&] { return local.optimize(n.def); })
                .str());
    const double solve_s = nowSeconds() - t0;
    std::vector<double> starts;
    for (int i = 0; i < 8; ++i)
        starts.push_back(coldStart(o, i));
    ref.seconds = solve_s + median(starts);
    return ref;
}

Round
runRound(const Options &o, const std::vector<BenchNet> &nets, Rng &rng,
         int index)
{
    Tracer &tr = Tracer::get();
    ColdServer cold(o, index);
    std::vector<std::vector<std::size_t>> orders(cold.conns.size());
    for (auto &order : orders) {
        for (std::size_t i = 0; i < nets.size(); ++i)
            order.push_back(i);
        rng.shuffle(order);
    }
    std::vector<double> first(orders.size()), last(orders.size());
    std::vector<std::vector<Reply>> replies(orders.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < orders.size(); ++c)
        threads.emplace_back([&, c] {
            first[c] = nowSeconds();
            for (std::size_t n : orders[c]) {
                RpcResponse resp;
                std::string err;
                const bool ok = tr.timed(
                    "rpc.Client.call.solve_network",
                    static_cast<std::int64_t>(n), [&] {
                        return cold.conns[c].call(networkRequest(nets[n]),
                                                  resp, &err);
                    });
                replies[c].push_back(
                    Reply{n, ok && resp.ok && resp.op == RpcOp::SolveNetwork,
                          std::move(resp.plan_text), ok ? resp.error : err});
            }
            last[c] = nowSeconds();
        });
    for (std::thread &t : threads)
        t.join();

    Round round;
    round.wall_s = *std::max_element(last.begin(), last.end()) -
                   *std::min_element(first.begin(), first.end());
    for (auto &rs : replies)
        for (Reply &r : rs)
            round.replies.push_back(std::move(r));
    const SolveSchedulerStats ss = cold.srv.server().schedulerStats();
    round.solves = ss.solves;
    round.coalesced = ss.coalesced;
    round.inserts = cold.cache.stats().inserts;
    return round;
}

struct Rounds
{
    std::vector<Round> rounds;
    std::vector<double> walls;
};

/** Rounds until @p seconds have passed (at least one). */
Rounds
measure(const Options &o, const std::vector<BenchNet> &nets, Rng &rng,
        double seconds)
{
    Rounds rs;
    const double end = nowSeconds() + seconds;
    do {
        rs.rounds.push_back(
            runRound(o, nets, rng, static_cast<int>(rs.rounds.size())));
        rs.walls.push_back(rs.rounds.back().wall_s);
    } while (nowSeconds() < end);
    std::printf("plan_cold%s: round median %.3f s over %zu rounds (%d "
                "clients):",
                Tracer::get().on() ? " traced" : "", median(rs.walls),
                rs.walls.size(), benchThreads());
    for (double w : rs.walls)
        std::printf(" %.3f", w);
    std::printf("\n");
    return rs;
}

/** Served plans must match the local solve byte for byte; the
 *  scheduler must solve (and the cache journal) every unique shape
 *  exactly once per round. */
void
checkRounds(const std::vector<BenchNet> &nets, const Reference &ref,
            const Rounds &rs, std::size_t unique, Result &r)
{
    const std::vector<std::string> &expect = ref.plan_text;
    for (std::size_t k = 0; k < rs.rounds.size(); ++k) {
        const Round &round = rs.rounds[k];
        const std::string tag = "plan_cold round " + std::to_string(k);
        for (const Reply &rep : round.replies)
            r.check(rep.ok && rep.plan_text == expect[rep.net],
                    tag + " " + nets[rep.net].label +
                        (rep.ok ? ": plan differs from the local solve"
                                : ": " + rep.error));
        r.check(round.solves == static_cast<std::int64_t>(unique),
                tag + ": " + std::to_string(round.solves) +
                    " scheduler solves for " + std::to_string(unique) +
                    " unique shapes");
        r.check(round.inserts == static_cast<std::int64_t>(unique),
                tag + ": " + std::to_string(round.inserts) +
                    " cache inserts for " + std::to_string(unique) +
                    " unique shapes");
    }
}

/** optimizeConv straight on every unique shape, then each winner
 *  inserted into a journaled cache: the solver's and the cache write
 *  side's own numbers. */
void
layerProbes(const Options &o, const std::vector<CacheKey> &keys, Result &r)
{
    Tracer &tr = Tracer::get();
    const MachineSpec m = benchMachine();
    const OptimizerOptions opts = benchOptimizerOptions();
    double solve_s = 0;
    long evals = 0;
    std::vector<CachedSolution> sols;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const OptimizeOutput out =
            tr.timed("optimizer.optimizeConv", static_cast<std::int64_t>(i),
                     [&] { return optimizeConv(keys[i].problem, m, opts); });
        solve_s += out.seconds;
        evals += out.solver_evals;
        const Candidate &best = out.candidates.front();
        sols.push_back(CachedSolution{best.config,
                                      best.predicted.total_seconds,
                                      best.perm_label});
    }
    {
        const ScratchDir dir(fs::path(o.work_dir) / "plan_cold_inserts");
        SolutionCache cache(journaled(dir));
        for (std::size_t i = 0; i < keys.size(); ++i)
            tr.timed("service.SolutionCache.insert",
                     static_cast<std::int64_t>(i),
                     [&] { cache.insert(keys[i], sols[i]); });
    }
    r.add("optimizer.solve_s", solve_s, "s");
    r.add("optimizer.evals", static_cast<double>(evals), "count");
    r.add("optimizer.eval_ns", solve_s / static_cast<double>(evals) * 1e9,
          "ns");
    r.add("service.insert_us",
          median(tr.durationsUs("service.SolutionCache.insert")), "us");
}

} // namespace

EndToEnd
runPlanCold(const Options &o, double seconds, Result &r)
{
    Tracer &tr = Tracer::get();
    const bool traced = tr.on();
    Rng rng(o.seed);
    const std::vector<BenchNet> nets = drawFourNetworks(o, rng);
    const std::vector<CacheKey> keys = uniqueKeys(nets);
    std::printf("plan_cold: batches");
    for (const BenchNet &n : nets)
        std::printf(" %s=%lld", n.label.c_str(),
                    static_cast<long long>(n.def.batch));
    std::printf(", %zu unique shapes\n", keys.size());

    const Reference ref = setUp(o, nets);
    const Rounds rs = measure(o, nets, rng, seconds);
    if (traced) {
        layerProbes(o, keys, r);
        const Round &last = rs.rounds.back();
        r.add("service.solves", static_cast<double>(last.solves), "count");
        r.add("service.coalesced", static_cast<double>(last.coalesced),
              "count");
    }
    checkRounds(nets, ref, rs, keys.size(), r);

    double replies = 0, served_s = 0;
    for (const Round &round : rs.rounds) {
        replies += static_cast<double>(round.replies.size());
        served_s += round.wall_s;
    }
    EndToEnd e;
    e.setup_s = ref.seconds;
    e.latency_ms = median(rs.walls) * 1e3;
    e.throughput_per_s = replies / served_s;
    return e;
}

} // namespace perfbench
