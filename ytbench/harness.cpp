/**
 * @file
 * yt_bench -- closed-loop benchmark harness for the YOUTIAO designer.
 *
 *   yt_bench --workload flat-route|design-fit|hier-scale --seed S
 *            --seconds T --trace 0|1 [--trace-out FILE] [--tiny]
 *   yt_bench --self-test-checks
 *
 * One process runs one workload: one design job at a time, each job a
 * sequence of the public calls a youtiao_cli user makes, timed from here.
 * Every job's output is checked against the paper's constraints from
 * outside the library; a violated check counts the job as failed.
 *
 * The harness prints one JSON report as its last stdout line; the
 * benchmark front end (run.py) turns it into the result line. With
 * --trace 0 the report carries the end-to-end metrics of an untraced
 * run; with --trace 1 it runs one untraced reference pass, then one
 * traced set-up plus pass with trace::Tracer on, writes the Chrome trace
 * to --trace-out and reports the per-layer metrics of the traced pass.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "chip/chip_bin.hpp"
#include "chip/topology_builder.hpp"
#include "circuit/benchmarks.hpp"
#include "circuit/transpiler.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "common/simd.hpp"
#include "common/trace.hpp"
#include "core/baselines.hpp"
#include "core/design_bin.hpp"
#include "core/hierarchical.hpp"
#include "core/youtiao.hpp"
#include "cost/cost_model.hpp"
#include "routing/chip_router.hpp"
#include "routing/drc.hpp"
#include "sim/fidelity_estimator.hpp"

#ifndef YTBENCH_BUILD_TYPE
#define YTBENCH_BUILD_TYPE ""
#endif

namespace {

using namespace youtiao;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

enum class Workload { FlatRoute, DesignFit, HierScale };

/**
 * Wall-clock totals of the harness's own spans, keyed by span name. Each
 * span also lands in the Chrome trace (category "bench") when tracing is
 * on, around exactly one public call.
 */
struct SpanTotals
{
    std::map<std::string, double> seconds;

    template <typename Fn>
    auto timed(const char *name, Fn &&fn)
    {
        const trace::TraceSpan span(name, "bench");
        const Clock::time_point start = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            seconds[name] += secondsSince(start);
        } else {
            auto out = fn();
            seconds[name] += secondsSince(start);
            return out;
        }
    }

    double get(const std::string &name) const
    {
        auto it = seconds.find(name);
        return it == seconds.end() ? 0.0 : it->second;
    }

    double total() const
    {
        double sum = 0.0;
        for (const auto &entry : seconds)
            sum += entry.second;
        return sum;
    }
};

/** The design-quality figures of one job (all deterministic). */
struct Quality
{
    double coaxLines = 0.0;
    double costUsd = 0.0;
    double xtalkObjective = 0.0;
    double wireMm = 0.0;
    double crossovers = 0.0;
    double fidelity = 0.0;
    double xyLines = 0.0;
    double zLines = 0.0;
    double designBytes = 0.0;

    bool operator==(const Quality &) const = default;
};

/** One design job: a chip, its calibration and the run configuration. */
struct Job
{
    std::string label;
    ChipTopology chip;
    ChipCharacterization data;
    YoutiaoConfig config;
    std::uint64_t circuitSeed = 0;
    /** Dedicated-wiring bill, computed once outside the timed loop. */
    std::optional<BaselineDesign> google;
    /** design-fit only: routed quality, scored once outside the loop. */
    std::optional<std::pair<double, double>> scoredRoute;
};

YoutiaoConfig
cliConfig(std::uint64_t seed)
{
    // The settings youtiao_cli uses: FDM capacity 5, theta 4, 25 trees.
    YoutiaoConfig config;
    config.seed = seed;
    config.fdm.lineCapacity = 5;
    config.tdm.parallelismThreshold = 4.0;
    config.fit.forest.treeCount = 25;
    return config;
}

/**
 * Set-up: build every job's chip and calibration. Times its components
 * into @p spans (chip.build, chip.bin_roundtrip, noise.characterize).
 */
std::vector<Job>
setUp(Workload workload, std::uint64_t seed, bool tiny, SpanTotals &spans)
{
    std::vector<Job> jobs;
    // @p input_seed draws the calibration and the design seed; the
    // benchmark circuit always comes from the workload seed.
    auto add = [&](std::string label, std::function<ChipTopology()> build,
                   std::uint64_t input_seed, std::uint64_t slot,
                   bool characterize) {
        Job job;
        job.label = std::move(label);
        job.chip = spans.timed("chip.build", build);
        job.config = cliConfig(taskSeed(input_seed, slot));
        job.circuitSeed = taskSeed(seed, 0xC1C0 + slot);
        if (characterize) {
            Prng prng(taskSeed(input_seed, 0xCA1B0 + slot));
            job.data = spans.timed("noise.characterize", [&] {
                return characterizeChip(job.chip, prng);
            });
        }
        jobs.push_back(std::move(job));
    };
    BuilderOptions opts;
    opts.seed = taskSeed(seed, 0xB01D);
    // Chip, calibration and design seed of the two routing workloads:
    // fixed, so every run routes the same nets. The routing work is the
    // measure there, and seed-to-seed design changes would move it by
    // more than the noise of the machine.
    constexpr std::uint64_t kFixedInputSeed = 2025;

    switch (workload) {
      case Workload::FlatRoute: {
        // The paper's five Table 2 chips.
        const std::vector<TopologyFamily> families =
            tiny ? std::vector<TopologyFamily>{TopologyFamily::Square}
                 : std::vector<TopologyFamily>{
                       TopologyFamily::Square, TopologyFamily::Hexagon,
                       TopologyFamily::HeavySquare,
                       TopologyFamily::HeavyHexagon,
                       TopologyFamily::LowDensity};
        for (std::size_t f = 0; f < families.size(); ++f)
            add(topologyFamilyName(families[f]),
                [&] { return makeTopology(families[f]); }, kFixedInputSeed,
                f, true);
        break;
      }
      case Workload::DesignFit: {
        // The five families at their Table 2 sizes, then square grids
        // from 4x4 to 10x10. The seed draws the chips' frequency
        // jitter, their calibration and the design seed; shapes stay
        // fixed so every draw does about the same work.
        add("square", [&] { return makeSquareGrid(3, 3, opts); }, seed, 0,
            true);
        add("hexagon", [&] { return makeHexagon(2, 2, opts); }, seed, 1,
            true);
        if (!tiny) {
            add("heavy-square",
                [&] { return makeHeavy(makeSquareGrid(3, 3, opts), opts); },
                seed, 2, true);
            add("heavy-hexagon",
                [&] { return makeHeavy(makeHexagon(1, 2, opts), opts); },
                seed, 3, true);
            add("low-density", [&] { return makeLowDensity(opts); }, seed,
                4, true);
            for (std::size_t side = 4; side <= 10; side += 2)
                add("grid-" + std::to_string(side),
                    [&] { return makeSquareGrid(side, side, opts); }, seed,
                    1 + side, true);
        }
        break;
      }
      case Workload::HierScale: {
        // One 2,304-qubit grid (36 tiles of 64), saved to and loaded
        // back from the binary chip format as a user's chip file would.
        // Seed-drawn grids are not used: some fail the checks (see
        // README.md, "Known defects").
        const std::size_t side = tiny ? 16 : 48;
        BuilderOptions fixed;
        fixed.seed = taskSeed(kFixedInputSeed, 0xB01D);
        add("grid-" + std::to_string(side),
            [&] {
                const ChipTopology built = makeSquareGrid(side, side, fixed);
                return spans.timed("chip.bin_roundtrip", [&] {
                    const std::vector<unsigned char> bytes =
                        chipToBinary(built);
                    return chipFromBinary(bytes.data(), bytes.size());
                });
            },
            kFixedInputSeed, 0, false);
        break;
      }
    }
    return jobs;
}

// ---------------------------------------------------------------------
// Output checks, from outside the library.

using Failures = std::vector<std::string>;

void
checkDesign(const ChipTopology &chip, const YoutiaoDesign &design,
            const YoutiaoConfig &config, const BaselineDesign &google,
            Failures &fail)
{
    const std::size_t q_count = chip.qubitCount();
    // Each qubit on exactly one XY line; no line over FDM capacity.
    std::vector<int> seen(q_count, 0);
    for (const auto &line : design.xyPlan.lines) {
        if (line.size() > config.fdm.lineCapacity)
            fail.push_back("xy line over FDM capacity");
        for (std::size_t q : line) {
            if (q >= q_count) {
                fail.push_back("xy line names a missing qubit");
                continue;
            }
            ++seen[q];
        }
    }
    for (std::size_t q = 0; q < q_count; ++q)
        if (seen[q] != 1) {
            fail.push_back("qubit " + std::to_string(q) + " on " +
                           std::to_string(seen[q]) + " xy lines");
            break;
        }
    // Frequencies in band.
    const std::vector<double> &freq = design.frequencyPlan.frequencyGHz;
    if (freq.size() != q_count)
        fail.push_back("frequency plan does not cover every qubit");
    for (double f : freq)
        if (!(f >= config.frequency.loGHz && f <= config.frequency.hiGHz)) {
            fail.push_back("frequency out of band");
            break;
        }
    // TDM groups cover every device exactly once, within DEMUX fan-out.
    const std::size_t max_fanout = std::max(config.tdm.lowParallelismFanout,
                                            config.tdm.highParallelismFanout);
    std::vector<int> dev_seen(chip.deviceCount(), 0);
    for (const TdmGroup &g : design.zPlan.groups) {
        if (g.devices.size() > g.fanout || g.fanout > max_fanout)
            fail.push_back("tdm group exceeds its DEMUX fan-out");
        for (std::size_t d : g.devices) {
            if (d >= dev_seen.size()) {
                fail.push_back("tdm group names a missing device");
                continue;
            }
            ++dev_seen[d];
        }
    }
    for (std::size_t d = 0; d < dev_seen.size(); ++d)
        if (dev_seen[d] != 1) {
            fail.push_back("device " + std::to_string(d) + " in " +
                           std::to_string(dev_seen[d]) + " tdm groups");
            break;
        }
    // Cheaper than dedicated wiring.
    if (!(design.counts.coax() < google.counts.coax()))
        fail.push_back("coax lines not below dedicated wiring");
    if (!(design.costUsd < google.costUsd))
        fail.push_back("cost not below dedicated wiring");
}

void
checkRouting(const ChipRoutingResult &result, Failures &fail)
{
    if (result.failedConnections != 0)
        fail.push_back(std::to_string(result.failedConnections) +
                       " failed routing connections");
    if (!result.grid.has_value()) {
        fail.push_back("routing returned no grid");
        return;
    }
    const DrcReport drc =
        checkRoutingDrc(*result.grid, result.netCount, result.crossovers);
    if (!drc.clean)
        fail.push_back("routing DRC: " + drc.violations.front());
}

/** The binary design must re-save byte-identically after a load. */
void
checkResave(const std::vector<unsigned char> &bytes,
            const YoutiaoDesign &loaded, Failures &fail)
{
    if (designToBinary(loaded) != bytes)
        fail.push_back("binary design does not re-save byte-identically");
}

// ---------------------------------------------------------------------
// Jobs.

/** Fidelity of one seeded VQC circuit transpiled onto @p chip. */
double
scoreFidelity(const ChipTopology &chip, const YoutiaoDesign &design,
              const YoutiaoConfig &config, std::uint64_t circuit_seed,
              SpanTotals &spans)
{
    Prng prng(circuit_seed);
    const std::size_t width = std::min<std::size_t>(chip.qubitCount(), 8);
    const QuantumCircuit logical =
        makeBenchmark(BenchmarkKind::VQC, width, prng);
    const TranspileResult compiled = spans.timed(
        "circuit.transpile", [&] { return transpile(logical, chip); });
    return spans.timed("sim.fidelity", [&] {
        const FidelityContext ctx =
            YoutiaoDesigner(config).makeFidelityContext(chip, design);
        return estimateFidelity(compiled.physical, ctx).fidelity;
    });
}

YoutiaoDesign
designOrFail(const Job &job, SpanTotals &spans, Failures &fail)
{
    Expected<YoutiaoDesign, DesignError> result =
        spans.timed("core.design", [&] {
            return YoutiaoDesigner(job.config).designRobust(job.chip,
                                                            job.data);
        });
    if (!result.hasValue()) {
        fail.push_back("design failed: " + result.error().toString());
        return {};
    }
    if (!result.value().degradation.empty())
        fail.push_back("design degraded: " +
                       result.value().degradation.summary());
    return std::move(result.value());
}

struct JobRun
{
    Quality quality;
    Failures failures;
};

/** Flat jobs (flat-route, design-fit): timed calls, then checks. */
JobRun
runFlatJob(Job &job, bool route, SpanTotals &spans, SpanTotals &checks)
{
    JobRun run;
    Quality &q = run.quality;
    const YoutiaoDesign design = designOrFail(job, spans, run.failures);
    if (!run.failures.empty())
        return run;
    std::optional<RoutedWiring> routed;
    if (route) {
        const std::vector<NetSpec> nets =
            spans.timed("routing.build_nets", [&] {
                return buildWiringNets(job.chip, design.xyPlan,
                                       design.zPlan, design.readoutPlan);
            });
        routed = spans.timed("routing.route", [&] {
            return routeChipWithFallback(job.chip, nets);
        });
    }
    q.fidelity = scoreFidelity(job.chip, design, job.config,
                               job.circuitSeed, spans);

    checks.timed("bench.check", [&] {
        if (!job.google)
            job.google = designGoogleWiring(job.chip, job.config);
        checkDesign(job.chip, design, job.config, *job.google,
                    run.failures);
        const std::vector<unsigned char> bytes = designToBinary(design);
        checkResave(bytes, designFromBinary(bytes.data(), bytes.size()),
                    run.failures);
        q.designBytes = static_cast<double>(bytes.size());
        if (routed) {
            checkRouting(routed->result, run.failures);
            if (routed->dedicatedNetFallbacks != 0)
                run.failures.push_back("routing fell back to dedicated "
                                       "lines");
            q.wireMm = routed->result.totalLengthMm;
            q.crossovers =
                static_cast<double>(routed->result.crossovers.size());
        } else {
            // design-fit routes nothing in its timed loop; its wiring is
            // scored once per job with the tile router's configuration
            // so every workload reports wire length and crossovers.
            if (!job.scoredRoute) {
                const ChipRoutingConfig cfg = tunedTileRoutingConfig();
                const std::vector<NetSpec> nets =
                    buildWiringNets(job.chip, design.xyPlan, design.zPlan,
                                    design.readoutPlan, cfg);
                const RoutedWiring scored =
                    routeChipWithFallback(job.chip, nets, cfg);
                checkRouting(scored.result, run.failures);
                job.scoredRoute = {
                    scored.result.totalLengthMm,
                    static_cast<double>(scored.result.crossovers.size())};
            }
            q.wireMm = job.scoredRoute->first;
            q.crossovers = job.scoredRoute->second;
        }
    });
    q.coaxLines = static_cast<double>(design.counts.coax());
    q.costUsd = design.costUsd;
    q.xtalkObjective = design.frequencyPlan.crosstalkCost;
    q.xyLines = static_cast<double>(design.xyPlan.lineCount());
    q.zLines = static_cast<double>(design.zPlan.lineCount());
    return run;
}

/** hier-scale: tiled design, tile + corridor routing, design codec. */
JobRun
runHierJob(Job &job, SpanTotals &spans, SpanTotals &checks)
{
    JobRun run;
    Quality &q = run.quality;
    const HierarchicalDesigner designer(job.config, HierarchicalConfig{});
    Expected<HierarchicalDesign, DesignError> result =
        spans.timed("core.design", [&] {
            return designer.designSynthesizedRobust(job.chip);
        });
    if (!result.hasValue()) {
        run.failures.push_back("design failed: " +
                               result.error().toString());
        return run;
    }
    const HierarchicalDesign &design = result.value();
    const HierarchicalRouting routing = spans.timed(
        "routing.route", [&] { return routeHierarchical(job.chip, design); });
    // Design codec: every tile design through YTDSGBIN and back. The
    // stitched design of a synthesized run carries no chip-wide
    // crosstalk matrices; designToBinary writes it, but designFromBinary
    // rejects the file, so the stitched design is not round-tripped.
    std::vector<std::vector<unsigned char>> bytes(design.tiles.size());
    std::vector<YoutiaoDesign> loaded(design.tiles.size());
    spans.timed("core.serialize", [&] {
        for (std::size_t t = 0; t < design.tiles.size(); ++t) {
            bytes[t] = designToBinary(design.tiles[t].design);
            loaded[t] = designFromBinary(bytes[t].data(), bytes[t].size());
        }
    });
    // Without chip-wide matrices the circuit runs on tile 0, with that
    // tile's matrices and the shipped (stitched) frequencies.
    const HierarchicalTile &tile = design.tiles.front();
    YoutiaoDesign tile_design = loaded.front();
    for (std::size_t l = 0; l < tile.qubits.size(); ++l)
        tile_design.frequencyPlan.frequencyGHz[l] =
            design.merged.frequencyPlan.frequencyGHz[tile.qubits[l]];
    q.fidelity = scoreFidelity(tile.chip, tile_design, job.config,
                               job.circuitSeed, spans);

    checks.timed("bench.check", [&] {
        if (!job.google)
            job.google = designGoogleWiring(job.chip, job.config);
        checkDesign(job.chip, design.merged, job.config, *job.google,
                    run.failures);
        for (std::size_t t = 0; t < bytes.size(); ++t)
            checkResave(bytes[t], loaded[t], run.failures);
        if (!design.merged.degradation.empty())
            run.failures.push_back("design degraded");
        if (routing.failedConnections != 0)
            run.failures.push_back("hierarchical routing failed " +
                                   std::to_string(
                                       routing.failedConnections) +
                                   " connections");
        for (const RoutedWiring &t : routing.tiles)
            checkRouting(t.result, run.failures);
        const CorridorDrcReport corridor =
            checkCorridorDrc(routing.lattice, routing.corridor,
                             routing.corridorEntries);
        if (!corridor.clean || routing.corridor.failedNets != 0)
            run.failures.push_back("corridor routing not DRC-clean");
    });
    const YoutiaoDesign &merged = design.merged;
    q.coaxLines = static_cast<double>(merged.counts.coax());
    q.costUsd = merged.costUsd;
    q.xtalkObjective = merged.frequencyPlan.crosstalkCost;
    q.wireMm = routing.totalLengthMm;
    for (const RoutedWiring &t : routing.tiles)
        q.crossovers += static_cast<double>(t.result.crossovers.size());
    q.xyLines = static_cast<double>(merged.xyPlan.lineCount());
    q.zLines = static_cast<double>(merged.zPlan.lineCount());
    for (const auto &b : bytes)
        q.designBytes += static_cast<double>(b.size());
    return run;
}

struct PassResult
{
    /** Wall time of the jobs' public calls (checks excluded). */
    double seconds = 0.0;
    std::vector<Quality> quality;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    Failures failures;
};

PassResult
runPass(Workload workload, std::vector<Job> &jobs, SpanTotals &spans,
        SpanTotals &checks)
{
    const trace::TraceSpan pass_span("bench.pass", "bench");
    PassResult pass;
    for (Job &job : jobs) {
        const trace::TraceSpan job_span("bench.job", "bench");
        const double before = spans.total();
        JobRun run;
        try {
            run = workload == Workload::HierScale
                      ? runHierJob(job, spans, checks)
                      : runFlatJob(job, workload == Workload::FlatRoute,
                                   spans, checks);
        } catch (const std::exception &e) {
            run.failures.push_back(std::string("exception: ") + e.what());
        }
        pass.seconds += spans.total() - before;
        ++pass.attempted;
        if (!run.failures.empty()) {
            ++pass.failed;
            for (const std::string &f : run.failures)
                pass.failures.push_back(job.label + ": " + f);
        }
        pass.quality.push_back(run.quality);
    }
    return pass;
}

Quality
totals(const std::vector<Quality> &per_job)
{
    Quality t;
    for (const Quality &q : per_job) {
        t.coaxLines += q.coaxLines;
        t.costUsd += q.costUsd;
        t.xtalkObjective += q.xtalkObjective;
        t.wireMm += q.wireMm;
        t.crossovers += q.crossovers;
        t.fidelity += q.fidelity;
        t.xyLines += q.xyLines;
        t.zLines += q.zLines;
        t.designBytes += q.designBytes;
    }
    t.fidelity /= static_cast<double>(std::max<std::size_t>(1, per_job.size()));
    return t;
}

// ---------------------------------------------------------------------
// Report.

std::string
jsonString(const std::string &s)
{
    return "\"" + json::escape(s) + "\"";
}

struct Report
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void add(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, {value, unit}});
    }
};

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Self-test: the checks must reject deliberately corrupted designs. */
int
selfTestChecks()
{
    const ChipTopology chip = makeSquareGrid(3, 3);
    Prng prng(7);
    Job job;
    job.chip = chip;
    job.data = characterizeChip(chip, prng);
    job.config = cliConfig(7);
    job.config.fit.forest.treeCount = 4;
    SpanTotals spans;
    Failures none;
    const YoutiaoDesign good = designOrFail(job, spans, none);
    const BaselineDesign google = designGoogleWiring(chip, job.config);
    checkDesign(chip, good, job.config, google, none);
    if (!none.empty()) {
        std::fprintf(stderr, "self-test: clean design rejected: %s\n",
                     none.front().c_str());
        return 1;
    }
    const std::vector<std::pair<const char *,
                                std::function<void(YoutiaoDesign &)>>>
        corruptions = {
            {"qubit on two xy lines",
             [](YoutiaoDesign &d) {
                 d.xyPlan.lines.back().push_back(d.xyPlan.lines.front()[0]);
             }},
            {"qubit on no xy line",
             [](YoutiaoDesign &d) {
                 auto &line = d.xyPlan.lines.front();
                 line.erase(line.begin());
             }},
            {"xy line over capacity",
             [](YoutiaoDesign &d) {
                 std::vector<std::size_t> all;
                 for (auto &line : d.xyPlan.lines)
                     all.insert(all.end(), line.begin(), line.end());
                 d.xyPlan.lines = {all};
             }},
            {"frequency out of band",
             [](YoutiaoDesign &d) {
                 d.frequencyPlan.frequencyGHz[0] = 9.5;
             }},
            {"device missing from tdm",
             [](YoutiaoDesign &d) {
                 d.zPlan.groups.front().devices.pop_back();
             }},
            {"tdm group over fan-out",
             [](YoutiaoDesign &d) {
                 d.zPlan.groups.front().devices.push_back(
                     d.zPlan.groups.back().devices.front());
                 d.zPlan.groups.front().fanout = 8;
             }},
            {"cost above dedicated wiring",
             [](YoutiaoDesign &d) { d.costUsd = 1e12; }},
        };
    int bad = 0;
    for (const auto &[name, corrupt] : corruptions) {
        YoutiaoDesign d = good;
        corrupt(d);
        Failures fail;
        checkDesign(chip, d, job.config, google, fail);
        std::printf("corruption %-28s %s\n", name,
                    fail.empty() ? "ACCEPTED" : "rejected");
        bad += fail.empty() ? 1 : 0;
    }
    // A re-save that differs from the stored bytes must be caught too.
    std::vector<unsigned char> bytes = designToBinary(good);
    Failures resave;
    YoutiaoDesign changed = good;
    changed.costUsd += 1.0;
    checkResave(bytes, changed, resave);
    std::printf("corruption %-28s %s\n", "re-save differs",
                resave.empty() ? "ACCEPTED" : "rejected");
    bad += resave.empty() ? 1 : 0;
    // So must a routing that left a connection open.
    const ChipRoutingConfig cfg = tunedTileRoutingConfig();
    RoutedWiring routed = routeChipWithFallback(
        chip,
        buildWiringNets(chip, good.xyPlan, good.zPlan, good.readoutPlan, cfg),
        cfg);
    Failures route_fail;
    checkRouting(routed.result, route_fail);
    routed.result.failedConnections = 1;
    Failures open_fail;
    checkRouting(routed.result, open_fail);
    std::printf("corruption %-28s %s\n", "failed routing connection",
                open_fail.empty() ? "ACCEPTED" : "rejected");
    bad += open_fail.empty() || !route_fail.empty() ? 1 : 0;
    return bad == 0 ? 0 : 1;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: yt_bench --workload flat-route|design-fit|"
                 "hier-scale --seed S --seconds T --trace 0|1\n"
                 "                [--trace-out FILE] [--tiny]\n"
                 "       yt_bench --self-test-checks\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "yt_bench: refusing to time an unoptimised "
                         "build\n");
    return 2;
#endif
    std::string workload_name;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace_mode = -1;
    std::string trace_out;
    bool tiny = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--workload")
            workload_name = next();
        else if (arg == "--seed")
            seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(next().c_str(), nullptr);
        else if (arg == "--trace")
            trace_mode = std::atoi(next().c_str());
        else if (arg == "--trace-out")
            trace_out = next();
        else if (arg == "--tiny")
            tiny = true;
        else if (arg == "--self-test-checks")
            return selfTestChecks();
        else
            usage();
    }
    Workload workload;
    if (workload_name == "flat-route")
        workload = Workload::FlatRoute;
    else if (workload_name == "design-fit")
        workload = Workload::DesignFit;
    else if (workload_name == "hier-scale")
        workload = Workload::HierScale;
    else
        usage();
    if ((trace_mode != 0 && trace_mode != 1) || !(seconds > 0.0) ||
        (trace_mode == 1 && trace_out.empty()))
        usage();

    // Environment stamp; no workload may use more than half the cores.
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    const std::size_t threads = configuredThreadCount();
    const std::size_t max_threads =
        static_cast<std::size_t>(std::max(1L, nproc / 2));
    const char *sha = std::getenv("YTBENCH_GIT_SHA");
    std::printf("{\"env\": {\"build_type\": %s, \"simd\": %s, "
                "\"youtiao_threads\": %zu, \"nproc\": %ld, "
                "\"git_sha\": %s, \"workload\": %s, \"seed\": %llu}}\n",
                jsonString(YTBENCH_BUILD_TYPE).c_str(),
                jsonString(simd::levelName(simd::active())).c_str(),
                threads, nproc, jsonString(sha ? sha : "unknown").c_str(),
                jsonString(workload_name).c_str(),
                static_cast<unsigned long long>(seed));
    if (threads > max_threads) {
        std::fprintf(stderr,
                     "yt_bench: %zu threads exceed half of nproc (%ld)\n",
                     threads, nproc);
        return 2;
    }

    // Set-up, repeated for at least 31 repetitions and 1 s, so that a
    // slow start of the process does not move the median repetition,
    // which is the set-up time.
    constexpr std::size_t kMinSetupReps = 31;
    constexpr double kMinSetupSeconds = 1.0;
    std::vector<double> setup_s, build_s, bin_s, char_s;
    std::vector<Job> jobs;
    const Clock::time_point setup_start = Clock::now();
    while (setup_s.size() < kMinSetupReps ||
           secondsSince(setup_start) < kMinSetupSeconds) {
        SpanTotals spans;
        const Clock::time_point start = Clock::now();
        jobs = setUp(workload, seed, tiny, spans);
        setup_s.push_back(secondsSince(start));
        build_s.push_back(spans.get("chip.build") -
                          spans.get("chip.bin_roundtrip"));
        bin_s.push_back(spans.get("chip.bin_roundtrip"));
        char_s.push_back(spans.get("noise.characterize"));
    }

    Report report;
    std::size_t attempted = 0, failed = 0;
    Failures failures;
    std::vector<Quality> reference;
    bool deterministic = true;
    auto account = [&](const PassResult &pass) {
        attempted += pass.attempted;
        failed += pass.failed;
        failures.insert(failures.end(), pass.failures.begin(),
                        pass.failures.end());
        if (reference.empty())
            reference = pass.quality;
        else if (!(pass.quality == reference))
            deterministic = false;
    };

    if (trace_mode == 0) {
        // Closed loop: whole passes over the jobs while another pass of
        // median length still fits in the time (at least one pass).
        std::vector<double> pass_s;
        SpanTotals spans, checks;
        const Clock::time_point start = Clock::now();
        do {
            const PassResult pass = runPass(workload, jobs, spans, checks);
            pass_s.push_back(pass.seconds);
            std::fprintf(stderr, "yt_bench: pass %zu took %.6f s\n",
                         pass_s.size(), pass.seconds);
            account(pass);
        } while (secondsSince(start) + median(pass_s) <= seconds);
        const Quality q = totals(reference);
        report.add("setup_s", median(setup_s), "s");
        report.add("wall_s", median(pass_s), "s");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        report.add("coax_lines", q.coaxLines, "count");
        report.add("cost_usd", q.costUsd, "USD");
        report.add("xtalk_objective", q.xtalkObjective, "1");
        report.add("wire_mm", q.wireMm, "mm");
        report.add("crossovers", q.crossovers, "count");
        report.add("fidelity_est", q.fidelity, "1");
        report.add("bench.passes", static_cast<double>(pass_s.size()),
                   "count");
    } else {
        // One untraced reference pass, then a traced set-up and pass.
        SpanTotals ref_spans, ref_checks;
        const PassResult ref = runPass(workload, jobs, ref_spans, ref_checks);
        account(ref);

        metrics::Registry::global().reset();
        trace::Tracer::global().enable();
        const Clock::time_point traced_start = Clock::now();
        SpanTotals setup_spans;
        {
            const trace::TraceSpan span("bench.setup", "bench");
            std::vector<Job> fresh =
                setUp(workload, seed, tiny, setup_spans);
            // Keep the scored routes and baselines of the reference pass.
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                fresh[j].google = jobs[j].google;
                fresh[j].scoredRoute = jobs[j].scoredRoute;
            }
            jobs = std::move(fresh);
        }
        SpanTotals spans, checks;
        const PassResult pass = runPass(workload, jobs, spans, checks);
        const double traced_wall = secondsSince(traced_start);
        trace::Tracer::global().disable();
        account(pass);
        if (!trace::Tracer::global().writeJson(trace_out)) {
            std::fprintf(stderr, "yt_bench: cannot write %s\n",
                         trace_out.c_str());
            return 1;
        }

        const auto phases = metrics::Registry::global().phases();
        const auto counters = metrics::Registry::global().counters();
        const auto histograms = metrics::Registry::global().histograms();
        auto phase = [&](const char *name) {
            auto it = phases.find(name);
            return it == phases.end() ? 0.0 : it->second.seconds;
        };
        auto counter = [&](const char *name) {
            auto it = counters.find(name);
            return it == counters.end()
                       ? 0.0
                       : static_cast<double>(it->second);
        };
        const Quality q = totals(pass.quality);
        const double lanes = static_cast<double>(threads);

        report.add("chip.build_s", median(build_s), "s");
        report.add("chip.bin_roundtrip_s", median(bin_s), "s");
        report.add("noise.characterize_s", median(char_s), "s");
        report.add("noise.fit_s", phase("noise.forest_fit"), "s");
        report.add("noise.trees_fitted", counter("noise.trees_fitted"),
                   "count");
        report.add("noise.predict_s", phase("noise.forest_predict"), "s");
        report.add("noise.rows_predicted", counter("noise.rows_predicted"),
                   "count");
        report.add("graph.distance_s", phase("design.distance_matrices"),
                   "s");
        report.add("partition.partition_s", phase("design.partition"), "s");
        report.add("multiplex.xy_group_s", phase("design.xy_grouping"), "s");
        report.add("multiplex.freq_alloc_s",
                   phase("design.frequency_allocation"), "s");
        report.add("multiplex.tdm_group_s", phase("design.tdm_grouping"),
                   "s");
        report.add("multiplex.readout_s", phase("design.readout_planning"),
                   "s");
        report.add("multiplex.sparse_entries", counter("freq.sparse_entries"),
                   "count");
        report.add("multiplex.xy_lines", q.xyLines, "count");
        report.add("multiplex.z_lines", q.zLines, "count");

        // Stage phases of the designer; in hier-scale they run on the
        // tile pool, so their busy time is spread over the lanes.
        const double stage_busy =
            phase("design.characterization_fit") +
            phase("design.crosstalk_predict") +
            phase("design.distance_matrices") + phase("design.partition") +
            phase("design.xy_grouping") +
            phase("design.frequency_allocation") +
            phase("design.tdm_grouping") + phase("design.readout_planning");
        const double design_s = spans.get("core.design");
        const double stitch_s = phase("hier.seam_stitch");
        const double design_lanes =
            workload == Workload::HierScale ? lanes : 1.0;
        report.add("core.design_s", design_s, "s");
        report.add("core.design_other_s",
                   design_s - stage_busy / design_lanes - stitch_s, "s");
        report.add("core.seam_stitch_s", stitch_s, "s");
        report.add("core.seam_retunes", counter("hier.seam_retunes"),
                   "count");
        report.add("core.tiles", counter("hier.tiles_designed"), "count");
        report.add("core.design_parallel_eff",
                   design_s > 0.0 ? stage_busy / (design_lanes * design_s)
                                  : 0.0,
                   "ratio");
        report.add("core.serialize_s", spans.get("core.serialize"), "s");
        report.add("core.design_bytes", q.designBytes, "bytes");

        const double route_s = spans.get("routing.route");
        const double corridor_s = phase("corridor.route");
        const double tile_busy = phase("routing.route_chip");
        const double cells = counter("astar.cells_expanded");
        const double path_cells = counter("astar.path_cells");
        auto hist = histograms.find("routing.net_seconds");
        report.add("routing.build_nets_s", phase("routing.build_nets"), "s");
        report.add("routing.route_s", route_s, "s");
        report.add("routing.astar_cells", cells, "count");
        report.add("routing.path_cells", path_cells, "count");
        report.add("routing.useful_ratio",
                   cells > 0.0 ? path_cells / cells : 0.0, "ratio");
        report.add("routing.retry_passes", counter("routing.retry_passes"),
                   "count");
        report.add("routing.fallback_nets",
                   counter("routing.dedicated_net_fallbacks"), "count");
        report.add("routing.net_p90_s",
                   hist == histograms.end() ? 0.0
                                            : hist->second.quantile(0.9),
                   "s");
        report.add("routing.tile_busy_s", tile_busy, "s");
        report.add("routing.parallel_eff",
                   route_s - corridor_s > 0.0
                       ? tile_busy / (lanes * (route_s - corridor_s))
                       : 0.0,
                   "ratio");
        report.add("routing.corridor_s", corridor_s, "s");
        report.add("routing.corridor_segments",
                   counter("corridor.segments_expanded"), "count");
        report.add("circuit.transpile_s", spans.get("circuit.transpile"),
                   "s");
        report.add("sim.fidelity_s", spans.get("sim.fidelity"), "s");
        report.add("bench.check_s", checks.get("bench.check"), "s");
        report.add("bench.trace_overhead",
                   ref.seconds > 0.0 ? pass.seconds / ref.seconds : 0.0,
                   "ratio");
        report.add("bench.traced_wall_s", traced_wall, "s");
        report.add("bench.trace_dropped_events",
                   static_cast<double>(
                       trace::Tracer::global().droppedEvents()),
                   "count");
    }

    // Last line: the report run.py reads. Numbers are shortest
    // round-trip decimals, so equal figures print identically.
    const Quality q = totals(reference);
    const std::pair<const char *, double> quality[] = {
        {"coax_lines", q.coaxLines},     {"cost_usd", q.costUsd},
        {"xtalk_objective", q.xtalkObjective}, {"wire_mm", q.wireMm},
        {"crossovers", q.crossovers},   {"fidelity_est", q.fidelity}};
    std::string out = "{\"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"deterministic\": " +
                      (deterministic ? "true" : "false") + ", \"quality\": {";
    for (std::size_t i = 0; i < std::size(quality); ++i)
        out += (i ? ", " : "") + jsonString(quality[i].first) + ": " +
               json::formatDouble(quality[i].second);
    out += "}, \"failures\": [";
    for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
        out += (i ? ", " : "") + jsonString(failures[i]);
    out += "], \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const auto &[name, vu] = report.metrics[i];
        out += (i ? ", " : "") + jsonString(name) + ": {\"value\": " +
               json::formatDouble(vu.first) +
               ", \"unit\": " + jsonString(vu.second) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
