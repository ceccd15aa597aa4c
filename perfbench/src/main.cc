/**
 * @file
 * The repository benchmark's program. Usage:
 *
 *   mopt_perfbench --workload exec_nets|plan_cold|serve_warm --seed N
 *                  --seconds S --trace 0|1 --cfg mobilenet_v1.cfg
 *                  --work-dir DIR
 *
 * Prints the host record, human-readable summaries, and as its last
 * stdout line one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. --trace 0 reports the workload's end-to-end metrics.
 * --trace 1 runs the workload untraced for half the time, then runs
 * every workload for half the time with each call into the library
 * wrapped in a span. It reports every layer's metrics and the
 * workload's tracing overhead, and writes the spans to
 * DIR/trace-<workload>.json. Exit status 1 (and no result) on bad
 * usage or when a workload cannot run at all.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "span_trace.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

using Workload = EndToEnd (*)(const Options &, double, Result &);

const std::vector<std::pair<std::string, Workload>> kWorkloads = {
    {"exec_nets", runExecNets},
    {"plan_cold", runPlanCold},
    {"serve_warm", runServeWarm},
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "mopt_perfbench: " << msg
              << "\nusage: mopt_perfbench --workload "
                 "exec_nets|plan_cold|serve_warm --seed N --seconds S "
                 "--trace 0|1 --cfg PATH --work-dir DIR\n";
    std::exit(1);
}

Workload
workloadNamed(const std::string &name)
{
    for (const auto &[n, run] : kWorkloads)
        if (n == name)
            return run;
    return nullptr;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = v;
            else if (flag == "--seed") {
                o.seed = std::stoull(v);
                have_seed = true;
            } else if (flag == "--seconds")
                o.seconds = std::stod(v);
            else if (flag == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (flag == "--cfg")
                o.cfg_path = v;
            else if (flag == "--work-dir")
                o.work_dir = v;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (!workloadNamed(o.workload))
        usage("unknown workload '" + o.workload + "'");
    if (!have_seed || !(o.seconds > 0) || o.cfg_path.empty() ||
        o.work_dir.empty())
        usage("--seed, --seconds, --cfg and --work-dir are required");
    return o;
}

void
addEndToEnd(const std::string &prefix, const EndToEnd &e, Result &r)
{
    r.add(prefix + "setup_s", e.setup_s, "s");
    r.add(prefix + "latency_ms", e.latency_ms, "ms");
    r.add(prefix + "throughput_per_s", e.throughput_per_s, "1/s");
}

/** The traced run: the workload untraced, then every workload traced,
 *  each for half the time. */
void
runTraced(const Options &o, Result &r)
{
    Tracer &tr = Tracer::get();
    const double half = o.seconds / 2;
    const EndToEnd plain = workloadNamed(o.workload)(o, half, r);
    EndToEnd traced;
    for (const auto &[name, run] : kWorkloads) {
        tr.setOn(true);
        const EndToEnd e = run(o, half, r);
        tr.setOn(false);
        if (name == o.workload)
            traced = e;
    }
    addEndToEnd("trace.overhead.",
                EndToEnd{traced.setup_s - plain.setup_s,
                         traced.latency_ms - plain.latency_ms,
                         traced.throughput_per_s - plain.throughput_per_s},
                r);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    Result r;
    try {
        std::filesystem::create_directories(o.work_dir);
        const std::string host = hostJson();
        std::printf("host: %s\n", host.c_str());
        std::fflush(stdout);
        if (!o.trace) {
            addEndToEnd("", workloadNamed(o.workload)(o, o.seconds, r), r);
        } else {
            runTraced(o, r);
            const std::string path =
                o.work_dir + "/trace-" + o.workload + ".json";
            const std::string meta = "{\"workload\": \"" + o.workload +
                                     "\", \"seed\": " +
                                     std::to_string(o.seed) +
                                     ", \"host\": " + host + "}";
            if (!Tracer::get().write(path, meta))
                throw std::runtime_error("cannot write " + path);
            std::printf("trace: %zu spans written to %s\n",
                        Tracer::get().size(), path.c_str());
        }
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::cerr << "mopt_perfbench: " << o.workload << ": " << e.what()
                  << "\n";
        return 1;
    }
    for (const Metric &m : r.metrics)
        std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%s\n", resultJson(r).c_str());
    return 0;
}
