/**
 * @file
 * serve_warm: warm serving over RPC.
 *
 * Set-up starts a Server and warms its cache with a local
 * NetworkOptimizer solve of the four networks (each at a seeded
 * batch). benchThreads() closed-loop clients, one connection each,
 * then send a seeded mix for the measured time: 90% single-layer
 * solve of a uniformly drawn warm shape, 10% solve_network of one of
 * the four networks (MobileNetV1 as inline IR). The RPC layer, cache
 * lookups and the cost model's re-derivation of every hit do all the
 * work; the solver never runs.
 */
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "frontend/cfg_parser.hh"
#include "model/multi_level.hh"
#include "rpc/client.hh"
#include "service/network_optimizer.hh"
#include "service/solution_cache.hh"
#include "span_trace.hh"
#include "workloads.hh"

namespace perfbench {

using namespace mopt;

namespace {

constexpr double kNetworkShare = 0.10;

/** A warmed server plus the answers it must give. */
struct Warm
{
    std::unique_ptr<SolutionCache> cache; //!< Outlives the server.
    std::unique_ptr<LiveServer> srv;
    std::vector<std::string> plan_text;   //!< Local solve, per network.
    std::vector<CacheKey> keys;           //!< The warm shapes.
    std::vector<CachedSolution> sols;     //!< Their cached answers.
    std::vector<RpcRequest> layer_reqs, net_reqs;
};

Warm
setUp(const std::vector<BenchNet> &nets)
{
    Tracer &tr = Tracer::get();
    Warm w;
    w.cache = std::make_unique<SolutionCache>();
    const NetworkOptimizer local(benchMachine(), benchOptimizerOptions(),
                                 w.cache.get());
    for (const BenchNet &n : nets) {
        w.plan_text.push_back(
            tr.timed("service.optimize", [&] { return local.optimize(n.def); })
                .str());
        w.net_reqs.push_back(networkRequest(n));
    }
    w.keys = uniqueKeys(nets);
    for (const CacheKey &k : w.keys) {
        CachedSolution sol;
        if (!w.cache->lookup(k, &sol))
            throw std::runtime_error("serve_warm: warm-up left a miss");
        w.sols.push_back(sol);
        w.layer_reqs.push_back(layerRequest(k.problem));
    }
    w.srv = tr.timed("rpc.Server.start", [&] {
        return std::make_unique<LiveServer>(w.cache.get(),
                                            benchServerOptions());
    });
    return w;
}

struct Window
{
    std::vector<double> layer_us, net_ms;
    double seconds = 0;
    std::int64_t failed = 0;
    std::string first_error;
    std::int64_t solves = 0; //!< Scheduler solves during the window.
    std::int64_t misses = 0; //!< Cache misses during the window.

    std::size_t served() const { return layer_us.size() + net_ms.size(); }
};

Window
measure(Warm &w, Rng &rng, double seconds)
{
    Tracer &tr = Tracer::get();
    const int clients = benchThreads();
    std::vector<Window> per(static_cast<std::size_t>(clients));
    std::vector<Rng> rngs;
    for (int c = 0; c < clients; ++c)
        rngs.push_back(rng.split());
    const std::int64_t solves0 = w.srv->server().schedulerStats().solves;
    const std::int64_t misses0 = w.cache->stats().misses;
    const double start = nowSeconds();
    const double end = start + seconds;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < per.size(); ++c)
        threads.emplace_back([&, c] {
            Client client(w.srv->endpoint());
            Window &mine = per[c];
            Rng &crng = rngs[c];
            while (nowSeconds() < end) {
                const bool net = crng.uniform01() < kNetworkShare;
                const std::size_t i =
                    crng.index(net ? w.net_reqs.size() : w.keys.size());
                RpcResponse resp;
                std::string err;
                const double t0 = nowSeconds();
                const bool ok = tr.timed(
                    net ? "rpc.Client.call.solve_network"
                        : "rpc.Client.call.solve",
                    static_cast<std::int64_t>(i), [&] {
                        return client.call(net ? w.net_reqs[i]
                                               : w.layer_reqs[i],
                                           resp, &err);
                    });
                const double dt = nowSeconds() - t0;
                bool good = ok && resp.ok;
                if (good && net)
                    good = resp.cache_misses == 0 &&
                           resp.solver_evals == 0 &&
                           resp.plan_text == w.plan_text[i];
                else if (good)
                    good = resp.solve.cache_hit && resp.solve.sol == w.sols[i];
                if (!good) {
                    if (mine.failed++ == 0)
                        mine.first_error =
                            !ok ? err
                                : !resp.ok ? resp.error
                                           : std::string(net ? "network"
                                                             : "layer") +
                                                 " reply differs from the "
                                                 "local solve";
                } else if (net) {
                    mine.net_ms.push_back(dt * 1e3);
                } else {
                    mine.layer_us.push_back(dt * 1e6);
                }
            }
        });
    for (std::thread &t : threads)
        t.join();
    Window all;
    all.seconds = nowSeconds() - start;
    for (Window &p : per) {
        all.layer_us.insert(all.layer_us.end(), p.layer_us.begin(),
                            p.layer_us.end());
        all.net_ms.insert(all.net_ms.end(), p.net_ms.begin(), p.net_ms.end());
        all.failed += p.failed;
        if (all.first_error.empty())
            all.first_error = p.first_error;
    }
    all.solves = w.srv->server().schedulerStats().solves - solves0;
    all.misses = w.cache->stats().misses - misses0;
    std::printf("serve_warm%s: layer p50 %.1f us p99 %.1f us (%zu samples), "
                "network p50 %.3f ms p99 %.3f ms (%zu samples), %.0f req/s, "
                "%d clients\n",
                tr.on() ? " traced" : "", percentile(all.layer_us, 50),
                percentile(all.layer_us, 99), all.layer_us.size(),
                percentile(all.net_ms, 50), percentile(all.net_ms, 99),
                all.net_ms.size(),
                static_cast<double>(all.served()) / all.seconds, clients);
    return all;
}

/** Every request served from the cache, correct, and with no solve. */
void
checkWindow(const Window &w, Result &r)
{
    r.attempted += static_cast<std::int64_t>(w.served());
    for (std::int64_t i = 0; i < w.failed; ++i)
        r.check(false, "serve_warm request: " + w.first_error);
    r.check(w.solves == 0 && w.misses == 0,
            "serve_warm: hit rate below 1.0 (" + std::to_string(w.misses) +
                " misses, " + std::to_string(w.solves) + " solves)");
}

/** Mean over the four networks of each one's median span (µs). */
double
perNetworkUs(const char *span, std::size_t nets)
{
    double sum = 0;
    for (std::size_t i = 0; i < nets; ++i)
        sum += median(Tracer::get().durationsUs(
            span, static_cast<std::int64_t>(i)));
    return sum / static_cast<double>(nets);
}

/**
 * Each step of serving, run in-process on the warm set, timed one
 * public call at a time: request codecs, cache lookup, the cost
 * model's re-derivation, warm network planning and rendering,
 * response codecs, and the frontend's .cfg and IR decoders.
 */
void
layerProbes(const Options &o, Warm &w, const std::vector<BenchNet> &nets,
            const Window &win, Result &r)
{
    Tracer &tr = Tracer::get();
    const MachineSpec m = benchMachine();
    const OptimizerOptions opts = benchOptimizerOptions();
    constexpr int kReps = 200;

    for (int rep = 0; rep < kReps; ++rep)
        for (std::size_t i = 0; i < w.keys.size(); ++i) {
            const auto arg = static_cast<std::int64_t>(i);
            const std::string line =
                tr.timed("rpc.requestToJsonLine", arg,
                         [&] { return requestToJsonLine(w.layer_reqs[i]); });
            RpcRequest req;
            std::string err;
            tr.timed("rpc.requestFromJsonLine", arg,
                     [&] { return requestFromJsonLine(line, req, &err); });
            CachedSolution sol;
            tr.timed("service.SolutionCache.lookup", arg, [&] {
                return w.cache->lookup(CacheKey::make(req.problem, m, opts),
                                       &sol);
            });
            tr.timed("model.evalMultiLevel", arg, [&] {
                return evalMultiLevel(sol.config, req.problem, m,
                                      opts.parallel);
            });
            // The reply a warm single-layer solve sends (server.cc).
            RpcResponse resp;
            resp.ok = true;
            resp.op = RpcOp::Solve;
            resp.solve = RpcSolveResult{CacheKey::make(req.problem, m, opts),
                                        sol, true};
            tr.timed("rpc.responseToJsonLine.solve", arg,
                     [&] { return responseToJsonLine(resp); });
        }

    const NetworkOptimizer warm(m, opts, w.cache.get());
    std::int64_t net_bytes = 0;
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const auto arg = static_cast<std::int64_t>(i);
        const RpcResponse resp = w.srv->server().handle(w.net_reqs[i]);
        const std::string line = responseToJsonLine(resp);
        net_bytes += static_cast<std::int64_t>(line.size()) + 1; // + '\n'
        for (int rep = 0; rep < kReps / 4; ++rep) {
            const NetworkPlan plan =
                tr.timed("service.optimize.warm", arg,
                         [&] { return warm.optimize(nets[i].def); });
            tr.timed("service.NetworkPlan.str", arg,
                     [&] { return plan.str(); });
            tr.timed("rpc.responseToJsonLine.solve_network", arg,
                     [&] { return responseToJsonLine(resp); });
            RpcResponse back;
            std::string err;
            tr.timed("rpc.responseFromJsonLine.solve_network", arg,
                     [&] { return responseFromJsonLine(line, back, &err); });
        }
    }

    const std::string cfg_text = readFile(o.cfg_path);
    const NetworkDef mobilenet = mobilenetDef(o);
    for (int rep = 0; rep < kReps; ++rep) {
        tr.timed("frontend.parseCfgText",
                 [&] { return parseCfgText(cfg_text, o.cfg_path); });
        tr.timed("frontend.networkDefJson", [&] {
            JsonValue v;
            NetworkDef back;
            std::string err;
            return jsonParse(networkDefToJson(mobilenet), v) &&
                   networkDefFromJson(v, back, &err);
        });
    }

    const auto med = [&](const char *span) {
        return median(tr.durationsUs(span));
    };
    const auto perNet = [&](const char *span) {
        return perNetworkUs(span, nets.size());
    };
    const double req_decode = med("rpc.requestFromJsonLine");
    const double lookup = med("service.SolutionCache.lookup");
    const double layer_encode = med("rpc.responseToJsonLine.solve");
    r.add("rpc.req_encode_us", med("rpc.requestToJsonLine"), "us");
    r.add("rpc.req_decode_us", req_decode, "us");
    r.add("service.lookup_us", lookup, "us");
    r.add("model.eval_us", med("model.evalMultiLevel"), "us");
    r.add("rpc.layer_p50_us", percentile(win.layer_us, 50), "us");
    r.add("rpc.layer_p99_us", percentile(win.layer_us, 99), "us");
    r.add("rpc.net_p50_ms", percentile(win.net_ms, 50), "ms");
    r.add("rpc.net_p99_ms", percentile(win.net_ms, 99), "ms");
    r.add("rpc.residual_us",
          percentile(win.layer_us, 50) - (req_decode + lookup + layer_encode),
          "us");
    r.add("service.warm_optimize_us", perNet("service.optimize.warm"), "us");
    r.add("service.plan_render_us", perNet("service.NetworkPlan.str"), "us");
    r.add("rpc.resp_encode_us",
          perNet("rpc.responseToJsonLine.solve_network"), "us");
    r.add("rpc.resp_decode_us",
          perNet("rpc.responseFromJsonLine.solve_network"), "us");
    r.add("rpc.resp_bytes.net", static_cast<double>(net_bytes), "bytes");
    r.add("frontend.cfg_parse_us", med("frontend.parseCfgText"), "us");
    r.add("frontend.ir_json_us", med("frontend.networkDefJson"), "us");
}

} // namespace

EndToEnd
runServeWarm(const Options &o, double seconds, Result &r)
{
    const bool traced = Tracer::get().on();
    Rng rng(o.seed);
    const std::vector<BenchNet> nets = drawFourNetworks(o, rng);
    std::vector<double> setups;
    std::unique_ptr<Warm> w;
    for (int i = 0; i < (traced ? 1 : kSetups); ++i) {
        w.reset();
        const double t0 = nowSeconds();
        w = std::make_unique<Warm>(setUp(nets));
        setups.push_back(nowSeconds() - t0);
    }
    std::printf("serve_warm: %zu warm shapes, setup median %.3f s\n",
                w->keys.size(), median(setups));
    const Window win = measure(*w, rng, seconds);
    checkWindow(win, r);
    if (traced)
        layerProbes(o, *w, nets, win, r);

    std::vector<double> all_ms;
    for (double us : win.layer_us)
        all_ms.push_back(us / 1e3);
    all_ms.insert(all_ms.end(), win.net_ms.begin(), win.net_ms.end());
    EndToEnd e;
    e.setup_s = median(setups);
    e.latency_ms = median(all_ms);
    e.throughput_per_s = static_cast<double>(win.served()) / win.seconds;
    return e;
}

} // namespace perfbench
