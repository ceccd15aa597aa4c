/**
 * @file
 * The benchmark's three workloads.
 *
 * Every workload reports the same end-to-end metrics, each over the
 * workload's own operation (see README.md): exec_nets' operation is
 * one forward of ResNet-18 then MobileNetV1, plan_cold's is one cold
 * round, serve_warm's is one request. A workload run counts every
 * checked operation in @p r. With tracing off, exec_nets and
 * serve_warm set up kSetups times and report the median set-up
 * (plan_cold always takes the median of its server cold starts). With
 * tracing on (Tracer::get().on()) a workload sets up once, records
 * spans, probes its layers' public calls and adds their per-layer
 * metrics to @p r as well.
 */
#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "bench_util.hh"

namespace perfbench {

/** A workload's end-to-end metrics. */
struct EndToEnd
{
    double setup_s = 0;          //!< Median set-up time.
    double latency_ms = 0;       //!< Median latency of one operation.
    double throughput_per_s = 0; //!< Networks or requests served per second.
};

/** Untraced set-ups per run; the run reports their median. */
constexpr int kSetups = 3;

/** Whole-network forwards of planned ResNet-18 and MobileNetV1 for
 *  @p seconds. */
EndToEnd runExecNets(const Options &o, double seconds, Result &r);
/** Rounds of cold solve_network requests against fresh servers. */
EndToEnd runPlanCold(const Options &o, double seconds, Result &r);
/** Mixed layer/network requests against a pre-warmed server. */
EndToEnd runServeWarm(const Options &o, double seconds, Result &r);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
