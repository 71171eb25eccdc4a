/**
 * @file
 * Reproduces paper Table 2: cryostat-level and chip-level wiring of five
 * topologies (square, hexagon, heavy square, heavy hexagon, low-density),
 * Google-style dedicated wiring vs YOUTIAO: #XY/#Z lines, DEMUX control
 * lines, #DAC, wiring cost, chip interfaces and routed area, plus the
 * routed wire length, airbridge crossovers and failed connections.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "chip/topology_builder.hpp"
#include "core/baselines.hpp"
#include "routing/chip_router.hpp"
#include "routing/drc.hpp"

namespace {

using namespace youtiao;

const std::vector<TopologyFamily> kFamilies{
    TopologyFamily::Square, TopologyFamily::Hexagon,
    TopologyFamily::HeavySquare, TopologyFamily::HeavyHexagon,
    TopologyFamily::LowDensity};

struct SideMetrics
{
    WiringCounts counts;
    double costUsd = 0.0;
    std::size_t interfaces = 0;
    double areaMm2 = 0.0;
    double wireMm = 0.0;
    std::size_t crossovers = 0;
    std::size_t failed = 0;
    bool drcClean = false;
};

void
recordRoute(SideMetrics &side, const ChipRoutingResult &route,
            std::size_t nets)
{
    side.areaMm2 = route.routingAreaMm2;
    side.wireMm = route.totalLengthMm;
    side.crossovers = route.crossovers.size();
    side.failed = route.failedConnections;
    side.drcClean =
        route.grid && checkRoutingDrc(*route.grid, nets, route.crossovers)
                          .clean;
}

SideMetrics
googleSide(const ChipTopology &chip, const YoutiaoConfig &config)
{
    const BaselineDesign design = designGoogleWiring(chip, config);
    SideMetrics side;
    side.counts = design.counts;
    side.costUsd = design.costUsd;
    const auto nets = buildWiringNets(chip, design.xyPlan, design.zPlan,
                                      design.readoutPlan);
    const ChipRoutingResult route = routeChip(chip, nets);
    side.interfaces = design.counts.interfaces();
    recordRoute(side, route, nets.size());
    return side;
}

SideMetrics
youtiaoSide(const ChipTopology &chip, const YoutiaoConfig &config)
{
    Prng prng(0x7AB1E2 + chip.qubitCount());
    const ChipCharacterization data = characterizeChip(chip, prng);
    const YoutiaoDesign design =
        bench::designFromMeasurements(chip, data, config);
    SideMetrics side;
    side.counts = design.counts;
    side.costUsd = design.costUsd;
    const FdmPlan readout =
        groupFdmLocalCluster(chip, config.cost.readoutFeedCapacity);
    const auto nets =
        buildWiringNets(chip, design.xyPlan, design.zPlan, readout);
    const ChipRoutingResult route = routeChip(chip, nets);
    side.interfaces = design.counts.interfaces();
    recordRoute(side, route, nets.size());
    return side;
}

struct FamilyRow
{
    std::size_t qubits = 0;
    SideMetrics google;
    SideMetrics ours;
};

void
printTable()
{
    const YoutiaoConfig config;
    std::printf("Table 2: evaluation of the quantum wiring system\n");
    bench::rule(122);
    std::printf("%-14s %6s | %5s %5s %6s %5s %9s %7s %7s %8s %6s %5s | "
                "level\n",
                "topology", "#qubit", "#XY", "#Z", "#DEMUX", "#DAC",
                "cost", "#iface", "area", "wire", "#xover", "#fail");
    bench::rule(122);
    const std::vector<FamilyRow> rows =
        bench::tableRows(kFamilies, [&](TopologyFamily family) {
            const ChipTopology chip = makeTopology(family);
            FamilyRow row;
            row.qubits = chip.qubitCount();
            row.google = googleSide(chip, config);
            row.ours = youtiaoSide(chip, config);
            return row;
        });
    std::size_t drc_clean = 0;
    for (std::size_t f = 0; f < kFamilies.size(); ++f) {
        const FamilyRow &row = rows[f];
        drc_clean += (row.google.drcClean ? 1 : 0) +
                     (row.ours.drcClean ? 1 : 0);
        const SideMetrics &google = row.google;
        const SideMetrics &ours = row.ours;
        std::printf("%-14s %6zu | %5zu %5zu %6zu %5zu %9s %7zu %7.2f "
                    "%8.2f %6zu %5zu | Google\n",
                    topologyFamilyName(kFamilies[f]), row.qubits,
                    google.counts.xyLines, google.counts.zLines,
                    google.counts.demuxSelectLines, google.counts.dacs(),
                    bench::money(google.costUsd).c_str(),
                    google.interfaces, google.areaMm2, google.wireMm,
                    google.crossovers, google.failed);
        std::printf("%-14s %6s | %5zu %5zu %6zu %5zu %9s %7zu %7.2f "
                    "%8.2f %6zu %5zu | YOUTIAO (%.1fx cost, %.1fx area)\n",
                    "", "", ours.counts.xyLines, ours.counts.zLines,
                    ours.counts.demuxSelectLines, ours.counts.dacs(),
                    bench::money(ours.costUsd).c_str(), ours.interfaces,
                    ours.areaMm2, ours.wireMm, ours.crossovers, ours.failed,
                    google.costUsd / ours.costUsd,
                    google.areaMm2 / ours.areaMm2);
    }
    bench::rule(122);
    std::printf("DRC: %zu of %zu routed grids clean\n", drc_clean,
                2 * kFamilies.size());
    std::printf("paper: ~3.1x cryostat-level cost reduction, ~1.3x "
                "routing-area reduction, ~1.6x fewer interfaces\n\n");
}

void
BM_YoutiaoDesign(benchmark::State &state)
{
    const ChipTopology chip =
        makeTopology(kFamilies[static_cast<std::size_t>(state.range(0))]);
    Prng prng(1);
    const ChipCharacterization data = characterizeChip(chip, prng);
    const YoutiaoConfig config;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench::designFromMeasurements(chip, data, config));
    }
}
BENCHMARK(BM_YoutiaoDesign)->DenseRange(0, 4)
    ->Unit(benchmark::kMicrosecond);

void
BM_RouteChip(benchmark::State &state)
{
    const ChipTopology chip =
        makeTopology(kFamilies[static_cast<std::size_t>(state.range(0))]);
    const BaselineDesign design = designGoogleWiring(chip);
    const auto nets = buildWiringNets(chip, design.xyPlan, design.zPlan,
                                      design.readoutPlan);
    for (auto _ : state)
        benchmark::DoNotOptimize(routeChip(chip, nets));
}
BENCHMARK(BM_RouteChip)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    youtiao::bench::PerfReport perf("table2_wiring", argc, argv);
    printTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
