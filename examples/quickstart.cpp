/**
 * @file
 * Quickstart: optimize one conv2d operator with MOpt, inspect the
 * chosen tiling, predict its cost, execute it, and check the result
 * against the naive reference.
 *
 *   ./quickstart [--layer=R9] [--machine=i7] [--threads=8]
 */

#include <iostream>
#include <thread>

#include "common/flags.hh"
#include "common/rng.hh"
#include "conv/reference.hh"
#include "conv/workloads.hh"
#include "exec/conv_exec.hh"
#include "exec/microkernel.hh"
#include "machine/machine.hh"
#include "model/multi_level.hh"
#include "optimizer/mopt_optimizer.hh"

int
main(int argc, char **argv)
{
    using namespace mopt;
    const Flags flags(argc, argv);
    const ConvProblem p = workloadByName(flags.getString("layer", "R9"));
    const MachineSpec m = machineByName(flags.getString("machine", "i7"));
    const int threads = static_cast<int>(flags.getInt(
        "threads",
        std::min<std::int64_t>(m.cores,
                               std::thread::hardware_concurrency())));

    std::cout << "Operator: " << p.summary() << "\n";
    std::cout << "Machine:  " << m.name << " (" << m.cores << " cores, "
              << m.peakGflops() << " peak GFLOPS)\n";
    std::cout << "Kernel:   " << kernelIsa()
              << " register tile, chosen at run time for this host\n\n";

    // 1. Search the pruned design space (Algorithm 1).
    OptimizerOptions opts;
    opts.parallel = true;
    opts.effort = OptimizerOptions::Effort::Standard;
    const OptimizeOutput out = optimizeConv(p, m, opts);
    const Candidate &best = out.candidates.front();

    std::cout << "Search finished in " << out.seconds << " s ("
              << out.solver_evals << " model evaluations).\n";
    std::cout << "Best permutation class: " << best.perm_label << "\n";
    std::cout << best.config.str() << "\n";
    std::cout << "Predicted cost breakdown:\n"
              << best.predicted.str() << "\n";

    // 2. Execute it.
    Rng rng(1);
    Tensor4 in = makeInput(p), ker = makeKernel(p), result = makeOutput(p);
    in.fillRandom(rng);
    ker.fillRandom(rng);
    const ExecStats stats =
        runConv(p, in, ker, result, best.config, threads);
    std::cout << "Measured: " << stats.seconds * 1e3 << " ms ("
              << stats.gflops << " GFLOPS, packing "
              << stats.pack_seconds * 1e3 << " ms)\n";

    // 3. Verify against the reference implementation.
    Tensor4 expected = makeOutput(p);
    referenceConv(p, in, ker, expected);
    const double err = Tensor4::maxAbsDiff(expected, result);
    std::cout << "Max abs error vs naive reference: " << err << "\n";
    return err < 1e-2 ? 0 : 1;
}
