/**
 * @file
 * Shared pieces of the repository benchmark: command-line options, the
 * result record printed as the last stdout line, order statistics, the
 * host record, the benchmark's networks, and an in-process server.
 */
#ifndef PERFBENCH_BENCH_UTIL_HH
#define PERFBENCH_BENCH_UTIL_HH

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "frontend/network_def.hh"
#include "machine/machine.hh"
#include "optimizer/mopt_optimizer.hh"
#include "rpc/protocol.hh"
#include "rpc/server.hh"

namespace perfbench {

/** Parsed command line (see main.cc for the flags). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string cfg_path;  //!< MobileNetV1 .cfg kept with the benchmark.
    std::string work_dir;  //!< Scratch space inside the checkout.
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one run reports; printed by resultJson as the last line. */
struct Result
{
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const std::string &unit);
    /** Count one checked operation; a failure prints @p what. */
    void check(bool ok, const std::string &what);
};

/** {"correct":..,"attempted":..,"failed":..,"metrics":{..}} */
std::string resultJson(const Result &r);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);
/** Nearest-rank percentile, @p q in (0, 100] (0 when empty). */
double percentile(std::vector<double> v, double q);

/** Worker, client and executor threads: nproc - 1, capped at 3 so the
 *  offered load is the same on every host. */
int benchThreads();

/** The machine preset every workload plans for (the CLI default). */
mopt::MachineSpec benchMachine();
/** Standard effort (the CLI default) on benchThreads() workers. */
mopt::OptimizerOptions benchOptimizerOptions();

/** Host record: CPU, thread counts, preset, ISA, DRAM bandwidth. */
std::string hostJson();

/** A network the benchmark plans or serves. */
struct BenchNet
{
    std::string label;     //!< "resnet18", "vgg16", "yolov3", "mobilenet".
    mopt::NetworkDef def;  //!< At the batch the workload drew.
    bool inline_ir = false; //!< Sent as inline IR, not by name.
};

/** Read a whole file; throws std::runtime_error when unreadable. */
std::string readFile(const std::string &path);
/** The kept MobileNetV1 .cfg, parsed. */
mopt::NetworkDef mobilenetDef(const Options &o);
/** resnet18, vgg16, yolov3 and MobileNet (inline IR), each at a batch
 *  drawn by @p rng from {1, 2, 4}. */
std::vector<BenchNet> drawFourNetworks(const Options &o, mopt::Rng &rng);

/** The solve_network request for @p net, identity-checked. */
mopt::RpcRequest networkRequest(const BenchNet &net);
/** The single-layer solve request for @p p, identity-checked. */
mopt::RpcRequest layerRequest(const mopt::ConvProblem &p);
/** The distinct cache keys of @p nets' layers, first-seen order. */
std::vector<mopt::CacheKey> uniqueKeys(const std::vector<BenchNet> &nets);

/** A Server running its event loop on a thread of its own; stops and
 *  joins on destruction. */
class LiveServer
{
  public:
    LiveServer(mopt::SolutionCache *cache, mopt::ServerOptions so);
    ~LiveServer();
    LiveServer(const LiveServer &) = delete;
    LiveServer &operator=(const LiveServer &) = delete;

    mopt::Server &server() { return server_; }
    mopt::RpcEndpoint endpoint() const;

  private:
    mopt::Server server_;
    std::thread loop_;
};

/** ServerOptions with benchThreads() workers, everything else default. */
mopt::ServerOptions benchServerOptions();

/** Seconds since an arbitrary fixed point (steady clock). */
double nowSeconds();

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_HH
