/**
 * @file
 * exec_nets: execute whole networks under their MOpt plans.
 *
 * Set-up plans ResNet-18 (dense convs: the microkernel's vector path)
 * and MobileNetV1 (13 depthwise convs: its scalar fallback) at
 * Standard effort on the i7 preset, then allocates and seeds every
 * layer's tensors once. The timed part alternates whole-network
 * forwards — one runConv per layer — so the executor and kernel
 * packing do all the work and the solver none. Every layer's output
 * is checked against referenceConv once, after the timed part.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "baselines/heuristic_lib.hh"
#include "common/timer.hh"
#include "conv/reference.hh"
#include "exec/conv_exec.hh"
#include "exec/microkernel.hh"
#include "frontend/registry.hh"
#include "service/network_optimizer.hh"
#include "span_trace.hh"
#include "tensor/packing.hh"
#include "workloads.hh"

namespace perfbench {

using namespace mopt;

namespace {

/** One planned network with its seeded per-layer tensors. Layers are
 *  independent: each reads its own input, as in the paper's per-layer
 *  measurements. */
struct NetRun
{
    std::string label;
    NetworkPlan plan;
    std::vector<Tensor4> in, ker, out;
    const char *span = ""; //!< "exec.runConv.<label>"
};

NetRun
prepare(const std::string &label, const NetworkDef &def,
        const NetworkOptimizer &opt, Rng &rng)
{
    Tracer &tr = Tracer::get();
    NetRun run;
    run.label = label;
    run.plan = tr.timed("service.optimize",
                        [&] { return opt.optimize(def); });
    for (const LayerPlan &lp : run.plan.layers) {
        run.in.push_back(makeInput(lp.problem));
        run.in.back().fillRandom(rng);
        run.ker.push_back(makeKernel(lp.problem));
        run.ker.back().fillRandom(rng);
        run.out.push_back(makeOutput(lp.problem));
    }
    run.span = tr.intern("exec.runConv." + label);
    return run;
}

struct Nets
{
    NetRun resnet18, mobilenet;
};

Nets
setUp(const Options &o)
{
    const NetworkOptimizer opt(benchMachine(), benchOptimizerOptions());
    Rng rng(o.seed);
    NetRun a = prepare("resnet18", resnet18Def(), opt, rng);
    NetRun b = prepare("mobilenet", mobilenetDef(o), opt, rng);
    return Nets{std::move(a), std::move(b)};
}

struct Forward
{
    double seconds = 0;
    double pack_seconds = 0;
};

Forward
forward(NetRun &run)
{
    Tracer &tr = Tracer::get();
    Forward f;
    Timer t;
    for (std::size_t i = 0; i < run.plan.layers.size(); ++i) {
        const LayerPlan &lp = run.plan.layers[i];
        const ExecStats s =
            tr.timed(run.span, static_cast<std::int64_t>(i), [&] {
                return runConv(lp.problem, run.in[i], run.ker[i],
                               run.out[i], lp.best.config, benchThreads());
            });
        f.pack_seconds += s.pack_seconds;
    }
    f.seconds = t.seconds();
    return f;
}

struct Window
{
    std::vector<double> resnet18_ms, mobilenet_ms, pack_ms;
};

/** Alternate forwards of both networks for @p seconds (at least one
 *  pair). */
Window
measure(Nets &nets, double seconds)
{
    Window w;
    const double end = nowSeconds() + seconds;
    do {
        const Forward a = forward(nets.resnet18);
        const Forward b = forward(nets.mobilenet);
        w.resnet18_ms.push_back(a.seconds * 1e3);
        w.mobilenet_ms.push_back(b.seconds * 1e3);
        w.pack_ms.push_back((a.pack_seconds + b.pack_seconds) * 1e3);
    } while (nowSeconds() < end);
    return w;
}

/** Each layer's last output against the naive reference, within a
 *  tolerance that grows with the reduction length. */
void
checkOutputs(const NetRun &run, Result &r)
{
    for (std::size_t i = 0; i < run.plan.layers.size(); ++i) {
        const ConvProblem &p = run.plan.layers[i].problem;
        Tensor4 ref = makeOutput(p);
        referenceConv(p, run.in[i], run.ker[i], ref);
        const double diff = Tensor4::maxAbsDiff(run.out[i], ref);
        const double tol =
            2e-6 * static_cast<double>(p.cPerGroup() * p.r * p.s);
        r.check(diff <= tol, run.label + " layer " + p.name +
                                 ": max |runConv - referenceConv| = " +
                                 std::to_string(diff) + " > " +
                                 std::to_string(tol));
    }
}

void
printWindow(const char *what, const Window &w)
{
    auto range = [](const std::vector<double> &v) {
        const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
        char buf[96];
        std::snprintf(buf, sizeof buf, "median %.2f ms [%.2f .. %.2f]",
                      median(v), *lo, *hi);
        return std::string(buf);
    };
    std::printf("%s: resnet18 %s, mobilenet %s (%zu forwards each, %d "
                "threads)\n",
                what, range(w.resnet18_ms).c_str(),
                range(w.mobilenet_ms).c_str(), w.resnet18_ms.size(),
                benchThreads());
}

/** GFLOPS of the register-tile kernel alone: one thread, a 6 x 16
 *  block over a 32-channel 3x3 reduction whose operands (~21 KB)
 *  stay in L1. */
double
kernelGflops()
{
    ConvProblem p;
    p.name = "microkernel";
    p.k = 16;
    p.c = 32;
    p.r = p.s = 3;
    p.h = 1;
    p.w = 6;
    Rng rng(1);
    Tensor4 in = makeInput(p), ker = makeKernel(p), out = makeOutput(p);
    in.fillRandom(rng);
    ker.fillRandom(rng);
    const PackedKernel pk(ker, MicroKernelShape::kVecLen);
    constexpr int kCalls = 2000;
    std::vector<double> gflops;
    for (int rep = 0; rep < 15; ++rep) {
        const double s =
            Tracer::get().timed("exec.computeRegisterTile", [&] {
                Timer t;
                for (int i = 0; i < kCalls; ++i)
                    computeRegisterTile(p, in, pk, out, 0, 0, 0, p.w, 0,
                                        p.k, 0, p.c, 0, p.r, 0, p.s);
                return t.seconds();
            });
        gflops.push_back(p.flops() * kCalls / s / 1e9);
    }
    return median(gflops);
}

/** Seconds of one heuristic-plan runConv per layer. */
std::vector<double>
heuristicSeconds(NetRun &run)
{
    Tracer &tr = Tracer::get();
    const char *span = tr.intern("baselines.heuristicRun." + run.label);
    std::vector<double> out;
    for (std::size_t i = 0; i < run.plan.layers.size(); ++i) {
        const ConvProblem &p = run.plan.layers[i].problem;
        const ExecConfig cfg = tr.timed("baselines.heuristicConfig", [&] {
            return heuristicConfig(p, benchMachine());
        });
        Tensor4 scratch = makeOutput(p);
        out.push_back(
            tr.timed(span, static_cast<std::int64_t>(i), [&] {
                  return runConv(p, run.in[i], run.ker[i], scratch, cfg,
                                 benchThreads());
              }).seconds);
    }
    return out;
}

/** Flops and measured seconds, split by dense (groups = 1) and
 *  grouped layers. */
struct FlopSplit
{
    double dense_flops = 0, dense_s = 0;
    double grouped_flops = 0, grouped_s = 0;
};

/** Per-layer rows plus the traced run's per-network metrics. */
void
reportLayers(NetRun &run, Result &r, FlopSplit &split)
{
    const std::vector<double> heur = heuristicSeconds(run);
    double pred_sum = 0, meas_sum = 0, heur_sum = 0;
    std::printf("%-10s %-14s %6s %10s %10s %10s %-5s\n", "net", "layer",
                "groups", "pred_ms", "meas_ms", "heur_ms", "bneck");
    for (std::size_t i = 0; i < run.plan.layers.size(); ++i) {
        const LayerPlan &lp = run.plan.layers[i];
        const double meas_s =
            median(Tracer::get().durationsUs(
                run.span, static_cast<std::int64_t>(i))) /
            1e6;
        const double pred_s = lp.best.predicted.total_seconds;
        pred_sum += pred_s;
        meas_sum += meas_s;
        heur_sum += heur[i];
        if (lp.problem.groups == 1) {
            split.dense_flops += lp.problem.flops();
            split.dense_s += meas_s;
        } else {
            split.grouped_flops += lp.problem.flops();
            split.grouped_s += meas_s;
        }
        std::printf("%-10s %-14s %6lld %10.3f %10.3f %10.3f %-5s\n",
                    run.label.c_str(), lp.problem.name.c_str(),
                    static_cast<long long>(lp.problem.groups),
                    pred_s * 1e3, meas_s * 1e3, heur[i] * 1e3,
                    memLevelName(lp.best.predicted.bottleneck));
    }
    r.add("model.pred_over_meas." + run.label, pred_sum / meas_sum, "ratio");
    r.add("baselines.heuristic_over_mopt." + run.label, heur_sum / meas_sum,
          "ratio");
}

/** The traced run's per-layer metrics and per-conv-layer rows. */
void
addLayerMetrics(Nets &nets, const Window &w, Result &r)
{
    FlopSplit split;
    reportLayers(nets.resnet18, r, split);
    reportLayers(nets.mobilenet, r, split);
    const double kernel = kernelGflops();
    const double dense = split.dense_flops / split.dense_s / 1e9;
    r.add("exec.resnet18_ms", median(w.resnet18_ms), "ms");
    r.add("exec.mobilenet_ms", median(w.mobilenet_ms), "ms");
    r.add("exec.dense_gflops", dense, "GFLOPS");
    r.add("exec.grouped_gflops", split.grouped_flops / split.grouped_s / 1e9,
          "GFLOPS");
    r.add("exec.kernel_gflops", kernel, "GFLOPS");
    r.add("exec.kernel_frac", dense / (kernel * benchThreads()), "ratio");
    r.add("tensor.pack_ms", median(w.pack_ms), "ms");
}

} // namespace

EndToEnd
runExecNets(const Options &o, double seconds, Result &r)
{
    Tracer &tr = Tracer::get();
    const bool traced = tr.on();
    std::vector<double> setups;
    std::optional<Nets> nets;
    for (int i = 0; i < (traced ? 1 : kSetups); ++i) {
        nets.reset();
        const double t0 = nowSeconds();
        nets.emplace(setUp(o));
        setups.push_back(nowSeconds() - t0);
    }
    tr.setOn(false); // Warm-up forwards stay out of the per-layer spans.
    forward(nets->resnet18);
    forward(nets->mobilenet);
    tr.setOn(traced);
    const Window w = measure(*nets, seconds);
    printWindow(traced ? "exec_nets traced" : "exec_nets", w);
    r.attempted += static_cast<std::int64_t>(2 * w.resnet18_ms.size());
    if (traced)
        addLayerMetrics(*nets, w, r);
    tr.setOn(false);
    checkOutputs(nets->resnet18, r);
    checkOutputs(nets->mobilenet, r);
    tr.setOn(traced);

    std::vector<double> pair_ms;
    double total_ms = 0;
    for (std::size_t i = 0; i < w.resnet18_ms.size(); ++i) {
        pair_ms.push_back(w.resnet18_ms[i] + w.mobilenet_ms[i]);
        total_ms += pair_ms.back();
    }
    EndToEnd e;
    e.setup_s = median(setups);
    e.latency_ms = median(pair_ms);
    e.throughput_per_s = 2e3 * static_cast<double>(pair_ms.size()) / total_ms;
    return e;
}

} // namespace perfbench
