/**
 * @file
 * The benchmark's own test: the kept MobileNetV1 .cfg lowers to 27
 * convolutions, 13 of them depthwise, each reading the previous
 * layer's output shape. Usage: perfbench_selftest <mobilenet_v1.cfg>.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "frontend/cfg_parser.hh"
#include "frontend/network_def.hh"

int
main(int argc, char **argv)
{
    using namespace mopt;
    if (argc != 2) {
        std::fprintf(stderr, "usage: perfbench_selftest <cfg>\n");
        return 2;
    }
    int failures = 0;
    auto expect = [&](bool ok, const std::string &what) {
        if (!ok) {
            std::fprintf(stderr, "perfbench_selftest: FAILED: %s\n",
                         what.c_str());
            ++failures;
        }
    };
    const NetworkDef def = parseCfgFile(argv[1]);
    const std::vector<ConvProblem> convs = def.lower();
    expect(convs.size() == 27,
           "27 convolutions, got " + std::to_string(convs.size()));
    int depthwise = 0;
    for (std::size_t i = 0; i < def.layers.size(); ++i) {
        const LayerDef &l = def.layers[i];
        if (l.kind == LayerKind::Depthwise) {
            ++depthwise;
            expect(convs[i].groups == convs[i].c && convs[i].c == convs[i].k,
                   l.name + ": depthwise lowers to groups == c == k");
        }
        if (i > 0) {
            const LayerDef &prev = def.layers[i - 1];
            expect(l.in_c == prev.filters && l.in_h == prev.outH() &&
                       l.in_w == prev.outW(),
                   l.name + ": reads the previous layer's output shape");
        }
    }
    expect(depthwise == 13,
           "13 depthwise convolutions, got " + std::to_string(depthwise));
    expect(def.layers.back().filters == 1024 && def.layers.back().outH() == 7,
           "last layer produces 1024 x 7 x 7");
    if (failures == 0)
        std::printf("perfbench_selftest: %s lowers to %zu convs, %d "
                    "depthwise: PASS\n",
                    argv[1], convs.size(), depthwise);
    return failures == 0 ? 0 : 1;
}
