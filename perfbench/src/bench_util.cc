#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/json.hh"
#include "frontend/cfg_parser.hh"
#include "frontend/registry.hh"
#include "machine/bandwidth_probe.hh"
#include "service/cache_key.hh"

namespace perfbench {

using namespace mopt;

void
Result::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back(Metric{name, value, unit});
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    correct = false;
    if (failed <= 20) // The first few say enough.
        std::cout << "FAILED: " << what << "\n";
}

std::string
resultJson(const Result &r)
{
    std::ostringstream os;
    os << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
    char num[64];
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        // Every digit as measured; non-finite values are not JSON.
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(num, sizeof num, "%.17g", v);
        os << (i ? ", " : "") << "\"" << jsonEscape(m.name)
           << "\": {\"value\": " << num << ", \"unit\": \""
           << jsonEscape(m.unit) << "\"}";
    }
    os << "}}";
    return os.str();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
    const double hi = v[mid];
    if (v.size() % 2)
        return hi;
    const double lo = *std::max_element(v.begin(),
                                        v.begin() + static_cast<long>(mid));
    return (lo + hi) / 2;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[idx - 1];
}

int
benchThreads()
{
    const int n = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(n - 1, 1, 3);
}

MachineSpec
benchMachine()
{
    return machineByName("i7");
}

OptimizerOptions
benchOptimizerOptions()
{
    OptimizerOptions o;
    o.effort = OptimizerOptions::Effort::Standard;
    o.threads = benchThreads();
    return o;
}

namespace {

/** CPU brand string from cpuid (no file access needed). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char *>(regs), sizeof regs);
        s = s.c_str(); // Drop the NUL padding.
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

} // namespace

std::string
hostJson()
{
#if defined(__AVX2__)
    const bool avx2 = true;
#else
    const bool avx2 = false;
#endif
    // DRAM-resident working set, one thread: the figure the i7
    // preset's L3<->DRAM bandwidth is compared against.
    const ProbeResult bw = probeBandwidth(64ll << 20, 1, 0.05);
    char gbps[32];
    std::snprintf(gbps, sizeof gbps, "%.3f", bw.gbps);
    std::ostringstream os;
    os << "{\"cpu\": \"" << jsonEscape(cpuModel()) << "\", \"nproc\": "
       << std::thread::hardware_concurrency()
       << ", \"threads\": " << benchThreads() << ", \"preset\": \""
       << benchMachine().name << "\", \"avx2\": "
       << (avx2 ? "true" : "false") << ", \"dram_gbps_1t\": " << gbps
       << "}";
    return os.str();
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

NetworkDef
mobilenetDef(const Options &o)
{
    return parseCfgText(readFile(o.cfg_path), o.cfg_path);
}

std::vector<BenchNet>
drawFourNetworks(const Options &o, Rng &rng)
{
    std::vector<BenchNet> nets = {
        {"resnet18", resnet18Def(), false},
        {"vgg16", vgg16Def(), false},
        {"yolov3", yolov3Def(), false},
        {"mobilenet", mobilenetDef(o), true},
    };
    static const std::int64_t kBatches[] = {1, 2, 4};
    for (BenchNet &n : nets)
        n.def.batch = kBatches[rng.index(3)];
    return nets;
}

RpcRequest
networkRequest(const BenchNet &net)
{
    RpcRequest req;
    req.op = RpcOp::SolveNetwork;
    if (net.inline_ir) {
        req.ir = net.def;
        req.has_ir = true;
    } else {
        req.net = net.def.name;
    }
    req.batch = net.def.batch;
    req.machine_fp = CacheKey::machineFingerprint(benchMachine());
    req.settings_fp = CacheKey::settingsFingerprint(benchOptimizerOptions());
    return req;
}

RpcRequest
layerRequest(const ConvProblem &p)
{
    RpcRequest req;
    req.op = RpcOp::Solve;
    req.problem = p;
    req.machine_fp = CacheKey::machineFingerprint(benchMachine());
    req.settings_fp = CacheKey::settingsFingerprint(benchOptimizerOptions());
    return req;
}

std::vector<CacheKey>
uniqueKeys(const std::vector<BenchNet> &nets)
{
    const MachineSpec m = benchMachine();
    const OptimizerOptions o = benchOptimizerOptions();
    std::vector<CacheKey> keys;
    for (const BenchNet &n : nets)
        for (const ConvProblem &p : n.def.lower()) {
            CacheKey k = CacheKey::make(p, m, o);
            if (std::find(keys.begin(), keys.end(), k) == keys.end())
                keys.push_back(std::move(k));
        }
    return keys;
}

ServerOptions
benchServerOptions()
{
    ServerOptions so;
    so.workers = benchThreads();
    return so;
}

LiveServer::LiveServer(SolutionCache *cache, ServerOptions so)
    : server_(benchMachine(), benchOptimizerOptions(), cache, so)
{
    std::string err;
    if (!server_.start(&err))
        throw std::runtime_error("cannot start server: " + err);
    loop_ = std::thread([this] { server_.serve(); });
}

LiveServer::~LiveServer()
{
    server_.stop();
    loop_.join();
}

RpcEndpoint
LiveServer::endpoint() const
{
    return RpcEndpoint{"127.0.0.1", server_.port()};
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench
