/**
 * @file
 * youtiao_cli -- design the multiplexed wiring of a chip from the shell.
 *
 *   youtiao_cli [--topology NAME] [--rows N] [--cols N] [--seed S]
 *               [--capacity K] [--theta T] [--compare] [--profile]
 *               [--repeat N] [--route] [--hierarchical] [--tile-size N]
 *               [--hop] [--hop-save FILE]
 *               [--drift-trace FILE] [--drift-epochs N]
 *               [--trace FILE] [--inject-faults SPEC]
 *               [--deadline SECONDS] [--checkpoint DIR] [--resume]
 *               [--log-level LEVEL]
 *
 * Topologies: square, hexagon, heavy-square, heavy-hexagon, low-density,
 * grid (with --rows/--cols). Prints the full wiring report; --compare
 * adds the dedicated-wiring baseline bill; --profile appends the
 * per-phase wall-clock table, counters, and latency histograms of the
 * design pipeline. --repeat N (with --profile) re-runs the design
 * pipeline N times after one discarded warmup run and reports the
 * per-phase median, so profile numbers are stable enough to compare
 * across builds. --route also routes the wiring nets on the chip and
 * prints a routing summary. --hierarchical switches to the tiled
 * scale-out pipeline (hierarchical.hpp): per-tile synthetic
 * characterization and design, boundary stitching, and (with --route)
 * tile-level maze routing plus seam-corridor routing; --tile-size sets
 * the qubits per tile and the process exits 1 if the stitched routing
 * is not DRC-clean. --trace FILE records a span timeline of the
 * run as Chrome trace-event JSON (schema "youtiao-trace-1", open in
 * Perfetto or chrome://tracing) and implies --route so the timeline
 * covers per-net routing work. --inject-faults SPEC (also the
 * YOUTIAO_FAULTS environment variable) arms deterministic fault
 * injection at the pipeline's named sites -- grammar
 * site[:rate[:seed]][,...], see docs/FAULT_INJECTION.md; the design
 * then runs through the graceful-degradation pipeline and any
 * concessions are appended to the report. --hop appends the design's
 * seeded FHSS hop schedule (one channel table + rotation sequence per
 * FDM line); --hop-save FILE writes it as JSON (schema youtiao-hop-1).
 * --drift-trace FILE simulates a seeded drift trace (--drift-epochs
 * epochs, default 48) over the designed chip, replays it under the
 * static / hopping / re-allocating policies, prints the comparison
 * table and writes trace + per-policy series as JSON (schema
 * youtiao-drift-adaptation-1). --log-level raises the
 * structured-log threshold (error|warn|info|debug; also YOUTIAO_LOG).
 *
 * Observability: the crash flight recorder is armed on startup
 * (FLIGHT_youtiao_cli.json on a fatal signal, uncaught exception, or
 * DesignError; see common/flight.hpp), YOUTIAO_WATCHDOG starts the
 * resource sampler with optional per-phase stall budgets, and when
 * $YOUTIAO_RUN_LEDGER is set every invocation appends a run manifest
 * (schema "youtiao-run-1") with input hashes, phase timings and peak
 * RSS, ready for trend analysis with tools/perf_trend. All three are
 * observation-only: the designed wiring is byte-identical with or
 * without them.
 *
 * Robustness: --deadline SECONDS arms a cooperative deadline
 * (common/cancel.hpp); a run that exceeds it aborts cleanly with a
 * structured deadline_exceeded error, a flight dump, and exit code 3.
 * --checkpoint DIR journals the pipeline's natural barriers (per tile
 * for --hierarchical design and routing, per epoch for --drift-trace)
 * into DIR; --resume (requires --checkpoint) replays a prior
 * interrupted run's journal -- the manifest must hash to the same chip,
 * seed and configuration -- and the finished artifacts are
 * byte-identical to an uninterrupted run (see docs/CHECKPOINTS.md).
 * All artifact files are written atomically (temp + fsync + rename).
 *
 * Exit codes: 0 success, 1 runtime failure (including structured design
 * failures), 2 usage / bad argument (including chip files that fail to
 * parse), 3 cancelled / deadline exceeded.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "chip/chip_bin.hpp"
#include "chip/chip_io.hpp"
#include "chip/topology_builder.hpp"
#include "common/atomic_io.hpp"
#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/cli_parse.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/flight.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/runledger.hpp"
#include "core/hierarchical.hpp"
#include "common/trace.hpp"
#include "common/watchdog.hpp"
#include "core/baselines.hpp"
#include "core/drift_adaptation.hpp"
#include "core/report.hpp"
#include "core/serialization.hpp"
#include "core/youtiao.hpp"
#include "routing/chip_router.hpp"

namespace {

using namespace youtiao;

/** Thrown instead of std::exit so the run-ledger recorder in main()
 *  still observes the failure and finishes its manifest. */
struct ExitFailure {
    int code;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--topology square|hexagon|heavy-square|heavy-hexagon|"
        "low-density|grid]\n"
        "          [--rows N] [--cols N] [--seed S] [--capacity K] "
        "[--theta T] [--compare]\n"
        "          [--save FILE] [--chip FILE] [--save-chip-bin FILE] "
        "[--profile]\n"
        "          [--repeat N] [--route]\n"
        "          [--hierarchical] [--tile-size N]\n"
        "          [--hop] [--hop-save FILE] [--drift-trace FILE] "
        "[--drift-epochs N]\n"
        "          [--trace FILE] [--inject-faults SPEC]\n"
        "          [--deadline SECONDS] [--checkpoint DIR] [--resume]\n"
        "          [--log-level error|warn|info|debug]\n"
        "  --rows/--cols/--capacity take integers >= 1, --theta a "
        "positive number;\n"
        "  --chip loads a chip file, text or binary (recognized by "
        "magic);\n"
        "  --save-chip-bin writes the chip as a binary YTCHPBIN file "
        "and exits;\n"
        "  --profile appends the per-phase wall-clock table, counters "
        "and histograms;\n"
        "  --repeat N (requires --profile) re-runs the design N times "
        "after a\n"
        "  discarded warmup and reports the per-phase median;\n"
        "  --route also routes the wiring nets and prints a summary;\n"
        "  --hierarchical designs the chip tile by tile (--tile-size "
        "qubits per\n"
        "  tile, default 64) with boundary stitching and corridor "
        "routing; exits 1\n"
        "  if the stitched routing fails DRC;\n"
        "  --hop appends the seeded FHSS hop schedule; --hop-save FILE "
        "writes it as\n"
        "  JSON; --drift-trace FILE replays a seeded drift trace "
        "(--drift-epochs\n"
        "  epochs, default 48) under the static/hopping/re-allocating "
        "policies and\n"
        "  writes trace + results as JSON;\n"
        "  --trace FILE writes a Chrome trace-event timeline of the run "
        "(implies\n"
        "  --route); --inject-faults arms deterministic fault injection "
        "(grammar\n"
        "  site[:rate[:seed]][,...]; also YOUTIAO_FAULTS);\n"
        "  --deadline SECONDS cancels the run cooperatively when the "
        "budget runs\n"
        "  out (exit 3); --checkpoint DIR journals per-tile/per-epoch "
        "snapshots;\n"
        "  --resume replays a matching journal so the finished artifact "
        "is\n"
        "  byte-identical to an uninterrupted run; --log-level "
        "sets the\n"
        "  structured-log threshold (also the YOUTIAO_LOG environment "
        "variable)\n",
        argv0);
    std::exit(2);
}

/** Element-wise median of per-run phase snapshots (seconds and calls). */
std::map<std::string, metrics::PhaseStats>
medianPhases(std::vector<std::map<std::string, metrics::PhaseStats>> &runs)
{
    std::map<std::string, std::vector<double>> seconds;
    std::map<std::string, std::vector<std::uint64_t>> calls;
    for (const auto &run : runs) {
        for (const auto &[name, stats] : run) {
            seconds[name].push_back(stats.seconds);
            calls[name].push_back(stats.calls);
        }
    }
    std::map<std::string, metrics::PhaseStats> out;
    for (auto &[name, values] : seconds) {
        std::sort(values.begin(), values.end());
        auto &counts = calls[name];
        std::sort(counts.begin(), counts.end());
        metrics::PhaseStats stats;
        const std::size_t mid = values.size() / 2;
        stats.seconds = values.size() % 2 == 1
                            ? values[mid]
                            : 0.5 * (values[mid - 1] + values[mid]);
        stats.calls = counts[counts.size() / 2];
        out[name] = stats;
    }
    return out;
}

/**
 * Report a design the robust entry point could not produce -- log line,
 * "design error: ..." on stderr, then any partial-progress notes -- and
 * return the exit code: 3 with a flight dump for a cooperative abort
 * (cancel or deadline), 1 for any other failure.
 */
int
designFailureExit(std::string_view log_message, const DesignError &error,
                  const DegradationReport &partial = {})
{
    const std::string what = error.toString();
    log::error(log_message, {{"error", what}});
    std::fprintf(stderr, "design error: %s\n", what.c_str());
    for (const std::string &note : partial.notes)
        std::fprintf(stderr, "  partial: %s\n", note.c_str());
    if (error.isCancellation()) {
        flight::dump("cancelled");
        return 3;
    }
    return 1;
}

} // namespace

int
runCli(int argc, char **argv, runledger::Recorder &recorder)
{
    std::string topology = "grid";
    std::size_t rows = 6, cols = 6;
    std::uint64_t seed = 2025;
    std::size_t capacity = 5;
    double theta = 4.0;
    bool compare = false;
    bool profile = false;
    bool route = false;
    bool hierarchical = false;
    std::size_t tile_size = 64;
    std::size_t repeat = 1;
    std::string save_path;
    std::string chip_path;
    std::string save_chip_bin_path;
    std::string trace_path;
    std::string fault_spec;
    bool hop = false;
    std::string hop_save_path;
    std::string drift_path;
    std::size_t drift_epochs = 48;
    double deadline_s = 0.0;
    std::string checkpoint_dir;
    bool resume = false;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> const char * {
                if (i + 1 >= argc)
                    usage(argv[0]);
                return argv[++i];
            };
            if (arg == "--topology")
                topology = next();
            else if (arg == "--rows")
                rows = parseSizeArg(next(), "--rows");
            else if (arg == "--cols")
                cols = parseSizeArg(next(), "--cols");
            else if (arg == "--seed")
                seed = parseUint64Arg(next(), "--seed");
            else if (arg == "--capacity")
                capacity = parseSizeArg(next(), "--capacity");
            else if (arg == "--theta")
                theta = parsePositiveDoubleArg(next(), "--theta");
            else if (arg == "--compare")
                compare = true;
            else if (arg == "--profile")
                profile = true;
            else if (arg == "--repeat")
                repeat = parseSizeArg(next(), "--repeat", 1, 10000);
            else if (arg == "--route")
                route = true;
            else if (arg == "--hierarchical")
                hierarchical = true;
            else if (arg == "--tile-size")
                tile_size = parseSizeArg(next(), "--tile-size");
            else if (arg == "--save")
                save_path = next();
            else if (arg == "--chip")
                chip_path = next();
            else if (arg == "--save-chip-bin")
                save_chip_bin_path = next();
            else if (arg == "--hop")
                hop = true;
            else if (arg == "--hop-save")
                hop_save_path = next();
            else if (arg == "--drift-trace")
                drift_path = next();
            else if (arg == "--drift-epochs")
                drift_epochs = parseSizeArg(next(), "--drift-epochs");
            else if (arg == "--trace")
                trace_path = next();
            else if (arg == "--deadline")
                deadline_s =
                    parsePositiveDoubleArg(next(), "--deadline");
            else if (arg == "--checkpoint")
                checkpoint_dir = next();
            else if (arg == "--resume")
                resume = true;
            else if (arg == "--inject-faults")
                fault_spec = next();
            else if (arg == "--log-level") {
                const char *name = next();
                if (!log::setLevelByName(name)) {
                    std::fprintf(stderr,
                                 "error: unknown log level '%s'\n", name);
                    return 2;
                }
            } else
                usage(argv[0]);
        }
        // A malformed fault spec is a bad argument, caught here; the
        // environment spec goes through the same validation.
        if (!fault_spec.empty()) {
            fault::configure(fault_spec);
            fault::enable();
        } else {
            fault::configureFromEnv();
        }
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    if (repeat > 1 && !profile) {
        std::fprintf(stderr, "error: --repeat requires --profile\n");
        return 2;
    }
    if (resume && checkpoint_dir.empty()) {
        std::fprintf(stderr,
                     "error: --resume requires --checkpoint DIR\n");
        return 2;
    }
    // The hierarchical path has its own report, routing and exit
    // semantics; flags tied to the flat single-design flow are rejected
    // up front rather than silently ignored.
    if (hierarchical &&
        (!save_path.empty() || compare || repeat > 1 ||
         !fault_spec.empty() || hop || !hop_save_path.empty() ||
         !drift_path.empty())) {
        std::fprintf(stderr,
                     "error: --hierarchical is incompatible with "
                     "--save, --compare, --repeat, --inject-faults, "
                     "--hop, --hop-save and --drift-trace\n");
        return 2;
    }
    // A trace without the routing stage would miss the per-net spans
    // that make the timeline worth reading.
    if (!trace_path.empty())
        route = true;

    TopologyFamily family;
    if (topology == "square")
        family = TopologyFamily::Square;
    else if (topology == "hexagon")
        family = TopologyFamily::Hexagon;
    else if (topology == "heavy-square")
        family = TopologyFamily::HeavySquare;
    else if (topology == "heavy-hexagon")
        family = TopologyFamily::HeavyHexagon;
    else if (topology == "low-density")
        family = TopologyFamily::LowDensity;
    else if (topology == "grid")
        family = TopologyFamily::SquareGrid;
    else
        usage(argv[0]);

    watchdog::startFromEnv();

    try {
        ChipTopology chip;
        if (chip_path.empty()) {
            chip = makeTopology(family, rows, cols);
        } else {
            try {
                // Text or binary, told apart by the leading magic.
                chip = loadChipAuto(chip_path);
            } catch (const ConfigError &e) {
                // A chip file that cannot be read or does not parse is
                // a bad argument, reported with a usage exit code.
                std::fprintf(stderr, "error: %s\n", e.what());
                return 2;
            }
        }
        if (!save_chip_bin_path.empty()) {
            // Conversion mode: write the chip (built or loaded) as a
            // binary file and stop -- no design work.
            saveChipBinary(save_chip_bin_path, chip);
            std::printf("chip saved to %s (%zu qubits, %zu couplers, "
                        "binary)\n",
                        save_chip_bin_path.c_str(), chip.qubitCount(),
                        chip.couplerCount());
            return 0;
        }
        if (!trace_path.empty())
            trace::Tracer::global().enable();

        YoutiaoConfig config;
        config.seed = seed;
        config.fdm.lineCapacity = capacity;
        config.tdm.parallelismThreshold = theta;
        config.fit.forest.treeCount = 25;

        // Input provenance for the run ledger: identical inputs hash
        // identically, so drift in a manifest's hashes flags a changed
        // chip or configuration before anyone compares timings.
        if (runledger::ledgerConfigured()) {
            recorder.hashBytes("chip", chipToString(chip));
            recorder.setHash("seed", std::to_string(seed));
            recorder.hashBytes(
                "config",
                "topology=" + topology +
                    ",capacity=" + std::to_string(capacity) +
                    ",theta=" + std::to_string(theta) +
                    ",hierarchical=" + (hierarchical ? "1" : "0") +
                    ",tile_size=" + std::to_string(tile_size) +
                    ",faults=" + fault_spec);
        }

        if (deadline_s > 0.0)
            cancel::armDeadline(deadline_s);
        if (!checkpoint_dir.empty()) {
            // The manifest hashes mirror the run-ledger provenance
            // values: a resume under a different chip, seed or
            // configuration is refused up front instead of splicing
            // incompatible snapshots.
            try {
                checkpoint::open(
                    checkpoint_dir, "youtiao_cli",
                    {{"chip", runledger::fnv1aHex(chipToString(chip))},
                     {"seed", std::to_string(seed)},
                     {"config",
                      runledger::fnv1aHex(
                          "topology=" + topology +
                          ",capacity=" + std::to_string(capacity) +
                          ",theta=" + std::to_string(theta) +
                          ",hierarchical=" +
                          (hierarchical ? "1" : "0") +
                          ",tile_size=" + std::to_string(tile_size) +
                          ",faults=" + fault_spec)}},
                    resume);
            } catch (const ConfigError &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return 2;
            }
            const checkpoint::Stats st = checkpoint::stats();
            if (resume)
                std::printf("checkpoint: resumed %zu snapshot(s) from "
                            "%s (%zu rejected)\n",
                            st.snapshotsLoaded, checkpoint_dir.c_str(),
                            st.snapshotsRejected);
        }
        // From here every return path must release the journal.
        struct CheckpointCloser {
            ~CheckpointCloser() { checkpoint::close(); }
        } checkpoint_closer;

        if (hierarchical) {
            // Tiled scale-out: per-tile synthetic characterization
            // (O(tile^2), not O(chip^2) -- the global matrices would
            // not fit memory at 10k+ qubits), per-tile design on the
            // pool, boundary stitch, corridor routing.
            HierarchicalConfig hier;
            hier.tileSizeQubits = tile_size;
            const HierarchicalDesigner hdesigner(config, hier);
            DegradationReport hier_partial;
            Expected<HierarchicalDesign, DesignError> hresult =
                hdesigner.designSynthesizedRobust(chip, 0.6,
                                                  &hier_partial);
            if (!hresult.hasValue())
                return designFailureExit("hierarchical design failed",
                                         hresult.error(), hier_partial);
            const HierarchicalDesign &hdesign = hresult.value();
            std::fputs(hierarchicalReport(chip, hdesign, config).c_str(),
                       stdout);
            bool clean = true;
            if (route) {
                const HierarchicalRouting routing =
                    routeHierarchical(chip, hdesign);
                std::size_t tile_violations = 0;
                for (const DrcReport &drc : routing.tileDrc)
                    tile_violations += drc.violations.size();
                std::printf(
                    "\n-- hierarchical routing --\n"
                    "nets routed            %zu\n"
                    "failed connections     %zu\n"
                    "total wire length      %.1f mm\n"
                    "corridor nets failed   %zu\n"
                    "max corridor width     %.2f mm\n"
                    "tile DRC violations    %zu\n"
                    "corridor DRC           %s\n"
                    "DRC %s\n",
                    routing.totalNets, routing.failedConnections,
                    routing.totalLengthMm, routing.corridor.failedNets,
                    routing.corridor.maxCorridorWidthMm,
                    tile_violations,
                    routing.corridorDrc.clean ? "clean" : "dirty",
                    routing.clean() ? "clean" : "DIRTY");
                clean = routing.clean();
            }
            if (profile)
                std::fputs(metrics::phaseTable().c_str(), stdout);
            if (!trace_path.empty()) {
                trace::Tracer::global().disable();
                if (!trace::Tracer::global().writeJson(trace_path)) {
                    std::fprintf(stderr, "error: cannot write %s\n",
                                 trace_path.c_str());
                    return 1;
                }
                std::printf("\ntrace written to %s\n",
                            trace_path.c_str());
            }
            return clean ? 0 : 1;
        }

        Prng prng(seed);
        const ChipCharacterization data = characterizeChip(chip, prng);
        const YoutiaoDesigner designer(config);
        // The robust entry point (design() is valueOrThrow over it)
        // keeps the structured DesignError, so a failure maps to its
        // exit code instead of a generic "error:" line.
        auto run_design = [&designer, &chip, &data]() -> YoutiaoDesign {
            Expected<YoutiaoDesign, DesignError> result =
                designer.designRobust(chip, data);
            if (!result.hasValue())
                throw ExitFailure{
                    designFailureExit("design failed", result.error())};
            return std::move(result.value());
        };
        std::map<std::string, metrics::PhaseStats> profile_phases;
        std::map<std::string, std::uint64_t> profile_counters;
        std::optional<YoutiaoDesign> maybe_design;
        if (repeat > 1) {
            // Warmup run (discarded), then N measured runs: per-run
            // registry snapshots, median per phase. The design is
            // deterministic, so every run yields the same output and
            // keeping the last is keeping any.
            metrics::Registry::global().reset();
            (void)run_design();
            std::vector<std::map<std::string, metrics::PhaseStats>> runs;
            runs.reserve(repeat);
            for (std::size_t r = 0; r < repeat; ++r) {
                metrics::Registry::global().reset();
                maybe_design = run_design();
                runs.push_back(metrics::Registry::global().phases());
                if (r == 0)
                    profile_counters =
                        metrics::Registry::global().counters();
            }
            profile_phases = medianPhases(runs);
        } else {
            maybe_design = run_design();
        }
        const YoutiaoDesign &design = *maybe_design;
        if (runledger::ledgerConfigured()) {
            for (const std::string &note : design.degradation.notes)
                recorder.addNote("degradation: " + note);
        }

        std::fputs(wiringReport(chip, design, config).c_str(), stdout);
        if (!save_path.empty()) {
            std::ostringstream out;
            saveDesign(out, design);
            io::atomicWriteFile(save_path, out.str());
            std::printf("\ndesign saved to %s\n", save_path.c_str());
        }
        if (compare) {
            const BaselineDesign google = designGoogleWiring(chip, config);
            std::printf("\n%s\n",
                        costComparison(design, google, "dedicated")
                            .c_str());
        }
        if (route) {
            const auto nets = buildWiringNets(
                chip, design.xyPlan, design.zPlan, design.readoutPlan);
            const RoutedWiring routed = routeChipWithFallback(chip, nets);
            std::printf("\n-- chip routing --\n"
                        "nets routed            %zu\n"
                        "failed connections     %zu\n"
                        "total wire length      %.1f mm\n"
                        "routing area           %.2f mm^2\n"
                        "airbridge crossovers   %zu\n",
                        routed.result.netCount,
                        routed.result.failedConnections,
                        routed.result.totalLengthMm,
                        routed.result.routingAreaMm2,
                        routed.result.crossovers.size());
            // Extra lines only when the ladder engaged, so clean runs
            // keep the historical routing summary byte for byte.
            if (routed.dedicatedNetFallbacks > 0)
                std::printf("dedicated fallbacks    %zu lines (from %zu "
                            "nets)\n",
                            routed.dedicatedNetFallbacks,
                            routed.fallbackNets.size());
        }
        if (hop || !hop_save_path.empty()) {
            const HopPlan hop_plan =
                buildHopPlan(design.xyPlan, design.frequencyPlan,
                             FhssConfig{seed, 4});
            if (hop)
                std::printf("\n%s", hopPlanReport(hop_plan).c_str());
            if (!hop_save_path.empty()) {
                io::atomicWriteFile(hop_save_path,
                                    hopPlanToJson(hop_plan));
                std::printf("\nhop schedule saved to %s\n",
                            hop_save_path.c_str());
            }
        }
        if (!drift_path.empty()) {
            // Seeded days-long drift replay: same trace and the same
            // per-epoch evaluation circuits under all three policies,
            // so the printed table is a like-for-like comparison.
            DriftConfig drift_config;
            drift_config.epochs = drift_epochs;
            drift_config.seed = taskSeed(seed, 0xD21F7);
            const DriftTrace trace_data =
                simulateDrift(chip.qubitCount(), drift_config);
            std::vector<DriftAdaptationResult> results;
            for (DriftPolicy policy :
                 {DriftPolicy::Static, DriftPolicy::Hopping,
                  DriftPolicy::Reallocate}) {
                DriftAdaptationConfig adapt;
                adapt.policy = policy;
                adapt.hop.seed = seed;
                const DriftAdapter adapter(config, adapt);
                results.push_back(
                    adapter.run(chip, design, data, trace_data));
            }
            std::printf("\n%s",
                        driftAdaptationReport(results).c_str());
            io::atomicWriteFile(drift_path,
                                driftResultsToJson(trace_data, results));
            std::printf("\ndrift replay saved to %s\n",
                        drift_path.c_str());
        }
        if (profile) {
            if (repeat > 1) {
                std::printf("\n(median of %zu measured runs, 1 warmup "
                            "discarded)\n",
                            repeat);
                std::fputs(metrics::phaseTable(profile_phases,
                                               profile_counters)
                               .c_str(),
                           stdout);
            } else {
                std::fputs(metrics::phaseTable().c_str(), stdout);
            }
        }
        if (!trace_path.empty()) {
            trace::Tracer::global().disable();
            if (!trace::Tracer::global().writeJson(trace_path)) {
                std::fprintf(stderr, "error: cannot write %s\n",
                             trace_path.c_str());
                return 1;
            }
            std::printf("\ntrace written to %s\n", trace_path.c_str());
        }
    } catch (const ExitFailure &e) {
        return e.code;
    } catch (const cancel::Cancelled &e) {
        // A Cancelled that escaped a non-robust path (routing, drift
        // replay, hop schedule): same structured exit as the design
        // ladder's DeadlineExceeded.
        flight::dump("cancelled");
        log::error("run cancelled", {{"where", e.where()}});
        std::fprintf(stderr, "error: %s\n", e.what());
        return 3;
    } catch (const std::exception &e) {
        log::error("run failed", {{"what", e.what()}});
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}

int
main(int argc, char **argv)
{
    flight::install("youtiao_cli");
    runledger::Recorder recorder("youtiao_cli", argc, argv);
    const int status = runCli(argc, argv, recorder);
    watchdog::stop();
    recorder.setExitStatus(status);
    recorder.finish();
    return status;
}
