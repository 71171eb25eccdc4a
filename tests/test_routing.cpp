#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <queue>
#include <string>
#include <vector>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/prng.hpp"
#include "core/baselines.hpp"
#include "core/hierarchical.hpp"
#include "core/youtiao.hpp"
#include "routing/astar_router.hpp"
#include "routing/chip_router.hpp"
#include "routing/drc.hpp"

namespace youtiao {
namespace {

TEST(RoutingGrid, GeometryRoundTrip)
{
    RoutingGrid grid(Point{0, 0}, Point{3, 3});
    const Cell c = grid.cellAt(Point{1.5, 1.5});
    const Point p = grid.pointAt(c);
    EXPECT_NEAR(p.x, 1.5, grid.cellMm());
    EXPECT_NEAR(p.y, 1.5, grid.cellMm());
}

TEST(RoutingGrid, BlockAndClear)
{
    RoutingGrid grid(Point{0, 0}, Point{2, 2});
    grid.blockSquare(Point{1, 1}, 0.2);
    const Cell c = grid.cellAt(Point{1, 1});
    EXPECT_EQ(grid.owner(c), RoutingGrid::kObstacle);
    grid.clearSquare(Point{1, 1}, 0.2);
    EXPECT_EQ(grid.owner(c), RoutingGrid::kFree);
}

TEST(RoutingGrid, ClearOnlyRemovesObstacles)
{
    RoutingGrid grid(Point{0, 0}, Point{2, 2});
    const Cell c = grid.cellAt(Point{1, 1});
    grid.setOwner(c, 3);
    grid.clearSquare(Point{1, 1}, 0.1);
    EXPECT_EQ(grid.owner(c), 3);
}

TEST(AstarRouter, StateIndexGuardRejectsOversizedGrids)
{
    // The A* state index packs cell * 4 + direction into 32 bits; a
    // grid beyond that silently truncated the index and routed garbage.
    // It must fail loudly instead, before any search memory is touched.
    const std::size_t limit = astarMaxCells();
    EXPECT_LT(limit, std::size_t{1} << 31);
    EXPECT_GE(limit, (std::size_t{1} << 30) - 1);
    EXPECT_NO_THROW(requireAstarIndexable(1, limit));
    EXPECT_THROW(requireAstarIndexable(1, limit + 1), ConfigError);
    EXPECT_THROW(requireAstarIndexable(std::size_t{1} << 16,
                                       std::size_t{1} << 16),
                 ConfigError);
    // The width * height product overflowing std::size_t must not slip
    // through the guard either.
    const std::size_t huge = std::numeric_limits<std::size_t>::max();
    EXPECT_THROW(requireAstarIndexable(huge, huge), ConfigError);
    EXPECT_NO_THROW(requireAstarIndexable(1000, 1000));
    EXPECT_NO_THROW(requireAstarIndexable(0, huge));
}

TEST(AstarRouter, StraightLineRoute)
{
    RoutingGrid grid(Point{0, 0}, Point{5, 5});
    const Cell a = grid.cellAt(Point{0.5, 2.5});
    const Cell b = grid.cellAt(Point{4.5, 2.5});
    const auto path = routeAstar(grid, a, b, 0);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->cells.front(), a);
    EXPECT_EQ(path->cells.back(), b);
    // Manhattan-optimal: newCells == |dx| + 1 along a straight line.
    EXPECT_EQ(path->newCells, b.x - a.x + 1);
}

TEST(AstarRouter, SharedArenaMatchesFreshBuffersExactly)
{
    // Property test: one SearchArena reused across many sequential
    // searches must reproduce the fresh-buffer overload exactly --
    // same paths, same costs, same claimed cells -- because stale
    // entries from earlier generations read back as "unvisited".
    auto make_grid = [] {
        RoutingGrid grid(Point{0, 0}, Point{8, 8});
        grid.blockSquare(Point{3, 3}, 0.8);
        grid.blockSquare(Point{5.5, 2}, 0.6);
        grid.blockSquare(Point{2, 6}, 1.0);
        return grid;
    };
    RoutingGrid fresh_grid = make_grid();
    RoutingGrid arena_grid = make_grid();
    SearchArena arena;

    const std::vector<std::pair<Point, Point>> nets = {
        {{0.5, 0.5}, {7.5, 7.5}}, {{0.5, 7.5}, {7.5, 0.5}},
        {{1.0, 4.0}, {7.0, 4.0}}, {{4.0, 0.5}, {4.0, 7.5}},
        {{0.5, 2.0}, {7.5, 6.0}}, {{6.5, 7.0}, {1.5, 1.0}},
    };
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const auto net_id = static_cast<std::int32_t>(i + 1);
        const Cell from = fresh_grid.cellAt(nets[i].first);
        const Cell to = fresh_grid.cellAt(nets[i].second);
        const auto fresh = routeAstar(fresh_grid, from, to, net_id);
        const auto reused = routeAstar(arena_grid, from, to, net_id, arena);
        ASSERT_EQ(fresh.has_value(), reused.has_value()) << "net " << i;
        if (!fresh)
            continue;
        EXPECT_EQ(fresh->cells, reused->cells) << "net " << i;
        EXPECT_EQ(fresh->newCells, reused->newCells) << "net " << i;
        ASSERT_EQ(fresh->crossovers.size(), reused->crossovers.size());
        for (std::size_t k = 0; k < fresh->crossovers.size(); ++k) {
            EXPECT_EQ(fresh->crossovers[k].cell, reused->crossovers[k].cell);
            EXPECT_EQ(fresh->crossovers[k].byNet,
                      reused->crossovers[k].byNet);
            EXPECT_EQ(fresh->crossovers[k].overNet,
                      reused->crossovers[k].overNet);
        }
    }
    for (std::size_t y = 0; y < fresh_grid.height(); ++y)
        for (std::size_t x = 0; x < fresh_grid.width(); ++x) {
            const Cell c{x, y};
            ASSERT_EQ(fresh_grid.owner(c), arena_grid.owner(c))
                << "cell (" << x << ", " << y << ")";
        }
}

TEST(AstarRouter, DominatedDirectionStatesAreSkipped)
{
    // The start cell is seeded in all four directions at g = 0. The
    // first seed to close expands every neighbour; the other three are
    // dominated and must close without expanding, yet still count as
    // closed states.
    RoutingGrid grid(Point{0, 0}, Point{2, 2});
    const Cell a = grid.cellAt(Point{0.5, 1.0});
    const Cell b = grid.cellAt(Point{1.5, 1.0});
    const auto counter = [](const char *name) {
        const auto counters = metrics::Registry::global().counters();
        const auto it = counters.find(name);
        return it == counters.end() ? std::uint64_t{0} : it->second;
    };
    const std::uint64_t skips = counter("astar.dominated_skips");
    const std::uint64_t closed = counter("astar.cells_expanded");
    ASSERT_TRUE(routeAstar(grid, a, b, 0).has_value());
    EXPECT_GE(counter("astar.dominated_skips") - skips, 3u);
    EXPECT_GT(counter("astar.cells_expanded") - closed,
              counter("astar.dominated_skips") - skips);
}

TEST(AstarRouter, RoutesAroundObstacle)
{
    RoutingGrid grid(Point{0, 0}, Point{5, 5});
    // Wall across the middle with a gap at the top.
    for (double y = 0.0; y <= 4.0; y += grid.cellMm() / 2)
        grid.blockSquare(Point{3.0, y}, 0.01);
    const Cell a = grid.cellAt(Point{1.0, 2.0});
    const Cell b = grid.cellAt(Point{5.0, 2.0});
    const auto path = routeAstar(grid, a, b, 1);
    ASSERT_TRUE(path.has_value());
    EXPECT_GT(path->newCells, grid.cellAt(Point{5.0, 2.0}).x -
                                  grid.cellAt(Point{1.0, 2.0}).x + 1);
}

TEST(AstarRouter, OtherNetCrossedViaAirbridge)
{
    RoutingGrid grid(Point{0, 0}, Point{2, 0.0});
    const Cell a = grid.cellAt(Point{0.0, 0.0});
    const Cell b = grid.cellAt(Point{2.0, 0.0});
    // Another net owns the full column between them (grid is a strip):
    // the route must hop it with exactly one perpendicular airbridge.
    for (std::size_t y = 0; y < grid.height(); ++y)
        grid.setOwner(Cell{grid.width() / 2, y}, 7);
    const auto path = routeAstar(grid, a, b, 1);
    ASSERT_TRUE(path.has_value());
    ASSERT_EQ(path->crossovers.size(), 1u);
    EXPECT_EQ(path->crossovers[0].overNet, 7);
    EXPECT_EQ(path->crossovers[0].byNet, 1);
    // The bridged cell keeps its original owner.
    EXPECT_EQ(grid.owner(path->crossovers[0].cell), 7);
}

TEST(AstarRouter, ObstacleWallStillBlocks)
{
    RoutingGrid grid(Point{0, 0}, Point{2, 0.0});
    const Cell a = grid.cellAt(Point{0.0, 0.0});
    const Cell b = grid.cellAt(Point{2.0, 0.0});
    for (std::size_t y = 0; y < grid.height(); ++y)
        grid.setOwner(Cell{grid.width() / 2, y}, RoutingGrid::kObstacle);
    EXPECT_FALSE(routeAstar(grid, a, b, 1).has_value());
}

TEST(AstarRouter, SameNetReuseCheap)
{
    RoutingGrid grid(Point{0, 0}, Point{4, 4});
    const Cell a = grid.cellAt(Point{0.0, 2.0});
    const Cell b = grid.cellAt(Point{4.0, 2.0});
    const auto trunk = routeAstar(grid, a, b, 0);
    ASSERT_TRUE(trunk.has_value());
    // Second terminal hooks onto the trunk: new metal is only the stub.
    const Cell t = grid.cellAt(Point{2.0, 3.0});
    const auto stub = routeAstar(grid, t, a, 0);
    ASSERT_TRUE(stub.has_value());
    EXPECT_LE(stub->newCells,
              grid.cellAt(Point{2.0, 3.0}).y - grid.cellAt(Point{2.0, 2.0}).y
                  + 1);
}

TEST(AstarRouter, NegativeNetIdThrows)
{
    RoutingGrid grid(Point{0, 0}, Point{1, 1});
    EXPECT_THROW(routeAstar(grid, Cell{0, 0}, Cell{1, 1}, -1),
                 ConfigError);
}

TEST(ChipRouter, RoutesGoogleWiringOnSquareChip)
{
    const ChipTopology chip = makeSquare();
    const BaselineDesign google = designGoogleWiring(chip);
    const auto nets = buildWiringNets(chip, google.xyPlan, google.zPlan,
                                      google.readoutPlan);
    const ChipRoutingResult result = routeChip(chip, nets);
    EXPECT_EQ(result.failedConnections, 0u);
    EXPECT_GT(result.totalLengthMm, 0.0);
    EXPECT_GT(result.routingAreaMm2, 0.0);
    EXPECT_EQ(result.interfaceCount, nets.size());
}

TEST(ChipRouter, RoutedGridPassesDrc)
{
    const ChipTopology chip = makeSquare();
    const BaselineDesign google = designGoogleWiring(chip);
    const auto nets = buildWiringNets(chip, google.xyPlan, google.zPlan,
                                      google.readoutPlan);
    const ChipRoutingResult result = routeChip(chip, nets);
    ASSERT_TRUE(result.grid.has_value());
    const DrcReport report =
        checkRoutingDrc(*result.grid, nets.size(), result.crossovers);
    EXPECT_TRUE(report.clean) << (report.violations.empty()
                                      ? ""
                                      : report.violations.front());
}

TEST(ChipRouter, YoutiaoUsesFewerInterfacesAndLessArea)
{
    const ChipTopology chip = makeSquare();
    Prng prng(5);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 10;
    const YoutiaoDesigner designer(config);
    const YoutiaoDesign ours = designer.design(chip, data);
    const BaselineDesign google = designGoogleWiring(chip);

    const auto our_nets = buildWiringNets(chip, ours.xyPlan, ours.zPlan,
                                          ours.readoutPlan);
    const auto google_nets = buildWiringNets(chip, google.xyPlan,
                                             google.zPlan,
                                             google.readoutPlan);
    const ChipRoutingResult our_route = routeChip(chip, our_nets);
    const ChipRoutingResult google_route = routeChip(chip, google_nets);
    EXPECT_LT(our_route.interfaceCount, google_route.interfaceCount);
    EXPECT_LT(our_route.routingAreaMm2, google_route.routingAreaMm2);
    EXPECT_EQ(our_route.failedConnections, 0u);
}

TEST(ChipRouter, EmptyNetListThrows)
{
    const ChipTopology chip = makeSquare();
    EXPECT_THROW(routeChip(chip, {}), ConfigError);
}

TEST(Drc, DetectsFragmentedNet)
{
    RoutingGrid grid(Point{0, 0}, Point{2, 2});
    grid.setOwner(Cell{0, 0}, 0);
    grid.setOwner(Cell{5, 5}, 0); // disconnected piece of net 0
    const DrcReport report = checkRoutingDrc(grid, 1);
    EXPECT_FALSE(report.clean);
    EXPECT_FALSE(report.violations.empty());
}

TEST(Drc, CleanGridPasses)
{
    RoutingGrid grid(Point{0, 0}, Point{2, 2});
    grid.setOwner(Cell{0, 0}, 0);
    grid.setOwner(Cell{1, 0}, 0);
    const DrcReport report = checkRoutingDrc(grid, 1);
    EXPECT_TRUE(report.clean);
}

TEST(Drc, UnknownOwnerFlagged)
{
    RoutingGrid grid(Point{0, 0}, Point{1, 1});
    grid.setOwner(Cell{0, 0}, 9);
    const DrcReport report = checkRoutingDrc(grid, 1);
    EXPECT_FALSE(report.clean);
}

} // namespace
} // namespace youtiao

// -- whole-chip routing across every topology family ----------------------

namespace youtiao {
namespace {

class RouteEveryTopology
    : public ::testing::TestWithParam<TopologyFamily>
{};

TEST_P(RouteEveryTopology, GoogleWiringRoutesClean)
{
    const ChipTopology chip = makeTopology(GetParam());
    const BaselineDesign design = designGoogleWiring(chip);
    ChipRoutingConfig config;
    config.grid.marginMm = 1.5; // small margin keeps the test fast
    const auto nets = buildWiringNets(chip, design.xyPlan, design.zPlan,
                                      design.readoutPlan, config);
    const ChipRoutingResult result = routeChip(chip, nets, config);
    EXPECT_EQ(result.failedConnections, 0u)
        << topologyFamilyName(GetParam());
    ASSERT_TRUE(result.grid.has_value());
    const DrcReport report =
        checkRoutingDrc(*result.grid, nets.size(), result.crossovers);
    EXPECT_TRUE(report.clean)
        << topologyFamilyName(GetParam()) << ": "
        << (report.violations.empty() ? "" : report.violations.front());
}

INSTANTIATE_TEST_SUITE_P(Families, RouteEveryTopology,
                         ::testing::Values(TopologyFamily::Square,
                                           TopologyFamily::Hexagon,
                                           TopologyFamily::HeavySquare,
                                           TopologyFamily::HeavyHexagon,
                                           TopologyFamily::LowDensity));

TEST(ChipRouterExtra, CrossoversReportedAndDeduplicated)
{
    const ChipTopology chip = makeSquare();
    const BaselineDesign design = designGoogleWiring(chip);
    const auto nets = buildWiringNets(chip, design.xyPlan, design.zPlan,
                                      design.readoutPlan);
    const ChipRoutingResult result = routeChip(chip, nets);
    for (std::size_t a = 0; a < result.crossovers.size(); ++a) {
        const Crossover &x = result.crossovers[a];
        EXPECT_NE(x.byNet, x.overNet);
        // The bridged cell still belongs to the net below.
        ASSERT_TRUE(result.grid.has_value());
        EXPECT_EQ(result.grid->owner(x.cell), x.overNet);
        for (std::size_t b = a + 1; b < result.crossovers.size(); ++b) {
            const Crossover &y = result.crossovers[b];
            EXPECT_FALSE(x.cell == y.cell && x.byNet == y.byNet)
                << "duplicate crossover record";
        }
    }
}

TEST(ChipRouterExtra, DenseChipShrinksInterfacePitch)
{
    // A 5x5 grid's Google wiring needs more interfaces than 0.5 mm pads
    // fit on the perimeter; the router must shrink the pitch, not throw.
    const ChipTopology chip = makeSquareGrid(5, 5);
    const BaselineDesign design = designGoogleWiring(chip);
    ChipRoutingConfig config;
    config.grid.marginMm = 1.0;
    const auto nets = buildWiringNets(chip, design.xyPlan, design.zPlan,
                                      design.readoutPlan, config);
    const ChipRoutingResult result = routeChip(chip, nets, config);
    EXPECT_EQ(result.interfaceCount, nets.size());
    EXPECT_LE(result.failedConnections, 1u);
}

TEST(ChipRouterExtra, PinPortsAvoidNeighbourPads)
{
    // Heavy-square midpoint qubits crowd their east/west ports; every
    // generated pin must sit outside every other device's keep-out.
    const ChipTopology chip = makeHeavySquare();
    const BaselineDesign design = designGoogleWiring(chip);
    ChipRoutingConfig config;
    const auto nets = buildWiringNets(chip, design.xyPlan, design.zPlan,
                                      design.readoutPlan, config);
    for (const NetSpec &net : nets) {
        for (const Point &pin : net.terminals) {
            for (std::size_t d = 0; d < chip.deviceCount(); ++d) {
                const double pad =
                    (chip.deviceKind(d) == DeviceKind::Qubit ? 1.0
                                                             : 0.5) *
                    config.grid.devicePadMm;
                const Point o = chip.devicePosition(d);
                const bool inside =
                    std::abs(pin.x - o.x) < pad - 1e-9 &&
                    std::abs(pin.y - o.y) < pad - 1e-9;
                EXPECT_FALSE(inside)
                    << "pin (" << pin.x << "," << pin.y
                    << ") inside device " << d << " keep-out";
            }
        }
    }
}

TEST(ChipRouterExtra, InterfaceNeverClaimsAnotherNetsCell)
{
    // Smallest input found that shows it: at the tile router's pitch the
    // last top-edge slot and the last right-edge slot of this box round
    // to one grid cell. Net 6 claimed that cell after net 5 had, and
    // overwrote net 5's interface: net 5 ended up fragmented while the
    // router reported every connection made. (Found on a 48x48 grid,
    // where net 109 of a tile overwrote a cell of net 104.)
    ChipTopology chip("corner slots");
    chip.addQubit(QubitInfo{});
    const std::vector<Point> pins = {{1.52, 1.02}, {1.47, 0.97},
                                     {0.93, 0.81}, {1.31, 0.73},
                                     {1.18, 0.92}, {1.11, 0.92},
                                     {1.06, 0.88}};
    std::vector<NetSpec> nets;
    for (const Point &pin : pins)
        nets.push_back(NetSpec{{pin}});
    const ChipRoutingConfig config = tunedTileRoutingConfig();
    const ChipRoutingResult result = routeChip(chip, nets, config);
    ASSERT_TRUE(result.grid.has_value());
    const DrcReport report =
        checkRoutingDrc(*result.grid, nets.size(), result.crossovers);
    EXPECT_TRUE(report.clean) << (report.violations.empty()
                                      ? ""
                                      : report.violations.front());
    EXPECT_EQ(result.failedConnections, 0u);
    ASSERT_EQ(result.interfaces.size(), nets.size());
    for (std::size_t n = 0; n < nets.size(); ++n) {
        const Cell iface = result.grid->cellAt(result.interfaces[n]);
        EXPECT_EQ(result.grid->owner(iface), static_cast<std::int32_t>(n))
            << "interface of net " << n << " belongs to another net";
    }
}

TEST(ChipRouterExtra, RoutingAreaEqualsLengthTimesPitch)
{
    const ChipTopology chip = makeSquare();
    const BaselineDesign design = designGoogleWiring(chip);
    ChipRoutingConfig config;
    const auto nets = buildWiringNets(chip, design.xyPlan, design.zPlan,
                                      design.readoutPlan, config);
    const ChipRoutingResult result = routeChip(chip, nets, config);
    EXPECT_NEAR(result.routingAreaMm2,
                result.totalLengthMm * config.grid.cellMm, 1e-9);
}

} // namespace
} // namespace youtiao

// -- routing exactness golden ---------------------------------------------
//
// Recorded before the A* hot path was reworked (unchecked grid reads,
// skipped dominated direction states). Every figure is exact: a change
// meant to be a pure speedup must reproduce the same routes, the same
// number of expanded search states and the same final owner grid. The
// closed-state count may fall only by closing fewer dominated states
// (routeAstar's push filter queues fewer of them). A change that alters
// routes on purpose regenerates these numbers and says so.

namespace youtiao {
namespace {

struct RoutingGolden
{
    double totalLengthMm;
    std::size_t crossovers;
    std::uint64_t cellsExpanded;
    std::uint64_t gridHash;
    /** Closed states that were expanded (cells_expanded minus
     *  dominated_skips): the search order, which skipping work must not
     *  move. */
    std::uint64_t expansions;
};

/** FNV-1a over every cell owner (row-major, 4 little-endian bytes). */
std::uint64_t
ownerGridHash(const RoutingGrid &grid)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (std::size_t y = 0; y < grid.height(); ++y) {
        for (std::size_t x = 0; x < grid.width(); ++x) {
            const auto owner =
                static_cast<std::uint32_t>(grid.owner(Cell{x, y}));
            for (int b = 0; b < 4; ++b) {
                hash ^= (owner >> (8 * b)) & 0xFFu;
                hash *= 1099511628211ull;
            }
        }
    }
    return hash;
}

std::uint64_t
counterSoFar(const char *name)
{
    const auto counters = metrics::Registry::global().counters();
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

/** Route the YOUTIAO design of @p chip (calibration seeded as in the
 *  Table 2 bench) and compare against @p golden. */
void
expectRoutingGolden(const ChipTopology &chip,
                    const ChipRoutingConfig &config,
                    const RoutingGolden &golden)
{
    Prng prng(0x7AB1E2 + chip.qubitCount());
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig design_config;
    design_config.fit.forest.treeCount = 10;
    const YoutiaoDesign design =
        YoutiaoDesigner(design_config).design(chip, data);
    const auto nets = buildWiringNets(chip, design.xyPlan, design.zPlan,
                                      design.readoutPlan, config);

    const std::uint64_t before = counterSoFar("astar.cells_expanded");
    const std::uint64_t skips_before = counterSoFar("astar.dominated_skips");
    const ChipRoutingResult result = routeChip(chip, nets, config);
    const std::uint64_t expanded =
        counterSoFar("astar.cells_expanded") - before;
    const std::uint64_t skips =
        counterSoFar("astar.dominated_skips") - skips_before;

    ASSERT_TRUE(result.grid.has_value());
    EXPECT_EQ(result.failedConnections, 0u);
    EXPECT_EQ(result.totalLengthMm, golden.totalLengthMm);
    EXPECT_EQ(result.crossovers.size(), golden.crossovers);
    EXPECT_EQ(expanded, golden.cellsExpanded);
    EXPECT_EQ(ownerGridHash(*result.grid), golden.gridHash);
    EXPECT_EQ(expanded - skips, golden.expansions);
}

struct FamilyGolden
{
    TopologyFamily family;
    RoutingGolden golden;
};

/** Names the parameter in test listings (the default prints raw bytes,
 *  padding included, so the listed name would change from run to run). */
void
PrintTo(const FamilyGolden &golden, std::ostream *os)
{
    *os << topologyFamilyName(golden.family);
}

class RoutingExactnessGolden
    : public ::testing::TestWithParam<FamilyGolden>
{};

TEST_P(RoutingExactnessGolden, Table2ChipAtDefaultConfig)
{
    expectRoutingGolden(makeTopology(GetParam().family),
                        ChipRoutingConfig{}, GetParam().golden);
}

INSTANTIATE_TEST_SUITE_P(
    Table2, RoutingExactnessGolden,
    ::testing::Values(
        FamilyGolden{TopologyFamily::Square,
                     {83.700000000000031, 29, 1211761,
                      0x6b438b2caca85c27ull, 897464}},
        FamilyGolden{TopologyFamily::Hexagon,
                     {182.70000000000005, 54, 3223525,
                      0x1877d2f01584164bull, 2394747}},
        FamilyGolden{TopologyFamily::HeavySquare,
                     {212.37, 69, 3471268, 0xbfa79086634ca9f0ull,
                      2640655}},
        FamilyGolden{TopologyFamily::HeavyHexagon,
                     {219.77999999999992, 66, 3823528,
                      0xb605d8aaa633b27full, 2888278}},
        FamilyGolden{TopologyFamily::LowDensity,
                     {173.63999999999999, 46, 2525058,
                      0x2b0b5863e7bb48a1ull, 1958600}}),
    [](const ::testing::TestParamInfo<FamilyGolden> &param_info) {
        std::string name;
        for (const char c : std::string(topologyFamilyName(
                 param_info.param.family)))
            if (std::isalnum(static_cast<unsigned char>(c)))
                name += c;
        return name;
    });

TEST(RoutingExactnessGoldenTuned, SquareChipAtTileConfig)
{
    expectRoutingGolden(makeTopology(TopologyFamily::Square),
                        tunedTileRoutingConfig(),
                        {91.52000000000001, 22, 28583,
                         0x5621313c7bb6ca7cull, 10813});
}

} // namespace
} // namespace youtiao

// -- push filter: differential test against the unfiltered search ---------
//
// referenceRouteAstar is routeAstar as it was before pushes of dominated
// direction states were filtered: the search loop is verbatim, only its
// metrics, trace, watchdog and cancellation lines are left out, and it
// reports the states it expanded. The filtered search must reproduce it
// exactly on random grids -- paths, claimed cells and the number of
// expanded states -- at the consistent default weight (where the filter
// runs) and at the tile router's weight 2.0 (where it must stay off).

namespace youtiao {
namespace {

constexpr int kRefDirCount = static_cast<int>(SearchArena::kStatesPerCell);
constexpr long kRefMoves[kRefDirCount][2] = {
    {1, 0}, {-1, 0}, {0, 1}, {0, -1}};

double
referenceHeuristic(const Cell &a, const Cell &b, double weight)
{
    const double dx = a.x > b.x ? static_cast<double>(a.x - b.x)
                                : static_cast<double>(b.x - a.x);
    const double dy = a.y > b.y ? static_cast<double>(a.y - b.y)
                                : static_cast<double>(b.y - a.y);
    return weight * (dx + dy);
}

std::optional<RoutedPath>
referenceRouteAstar(RoutingGrid &grid, Cell from, Cell to,
                    std::int32_t net_id, const AstarConfig &config,
                    std::size_t &expansions)
{
    expansions = 0;
    constexpr int kDirCount = kRefDirCount;
    const auto &kMoves = kRefMoves;
    const auto heuristic = referenceHeuristic;
    SearchArena arena;
    const std::size_t w = grid.width();
    const std::size_t h = grid.height();
    auto flat = [w](const Cell &c) { return c.y * w + c.x; };

    auto mine_or_free = [&](const Cell &c) {
        const std::int32_t o = grid.owner(c);
        return o == RoutingGrid::kFree || o == net_id;
    };
    if (!mine_or_free(from) || !mine_or_free(to))
        return std::nullopt;

    const std::size_t state_count = w * h * kDirCount;
    arena.begin(state_count);
    constexpr std::uint32_t no_parent = SearchArena::kNoParent;

    using Entry = std::pair<double, std::uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
    for (int d = 0; d < kDirCount; ++d) {
        const std::size_t s = flat(from) * kDirCount +
                              static_cast<std::size_t>(d);
        arena.relax(s, 0.0, no_parent);
        open.emplace(heuristic(from, to, config.heuristicWeight),
                     static_cast<std::uint32_t>(s));
    }

    std::uint32_t goal_state = no_parent;
    std::size_t expanded = 0;
    std::size_t dominated = 0;
    const std::size_t to_idx = flat(to);
    const auto wl = static_cast<long>(w);
    const auto hl = static_cast<long>(h);
    while (!open.empty()) {
        const auto [f, state] = open.top();
        open.pop();
        (void)f;
        if (arena.closed(state))
            continue;
        arena.close(state);
        ++expanded;
        const std::size_t idx = state / kDirCount;
        const int dir_in = static_cast<int>(state % kDirCount);
        if (idx == to_idx) {
            goal_state = state;
            break;
        }
        const double g_here = arena.g(state);
        const std::int32_t here_owner = grid.ownerAt(idx);
        const bool on_bridge =
            here_owner != RoutingGrid::kFree && here_owner != net_id;
        if (!on_bridge && arena.closedSiblingNoWorse(state, g_here)) {
            ++dominated;
            continue;
        }
        const long hx = static_cast<long>(idx % w);
        const long hy = static_cast<long>(idx / w);
        for (int d = 0; d < kDirCount; ++d) {
            if (on_bridge && d != dir_in)
                continue; // bridges run straight
            const long nx = hx + kMoves[d][0];
            const long ny = hy + kMoves[d][1];
            if (nx < 0 || ny < 0 || nx >= wl || ny >= hl)
                continue;
            const std::size_t nidx = static_cast<std::size_t>(ny * wl + nx);
            const std::int32_t owner = grid.ownerAt(nidx);
            if (owner == RoutingGrid::kObstacle)
                continue;
            double step;
            if (owner == net_id) {
                step = 0.02; // trunk reuse is nearly free
            } else if (owner == RoutingGrid::kFree) {
                step = 1.0;
                for (const auto &mv : kMoves) {
                    const long ax = nx + mv[0];
                    const long ay = ny + mv[1];
                    if (ax < 0 || ay < 0 || ax >= wl || ay >= hl)
                        continue;
                    if (grid.ownerAt(static_cast<std::size_t>(
                            ay * wl + ax)) == RoutingGrid::kObstacle) {
                        step += config.crowdingPenalty;
                        break;
                    }
                }
            } else {
                step = config.bridgeCost; // airbridge crossover
            }
            const std::size_t nstate =
                nidx * kDirCount + static_cast<std::size_t>(d);
            const double cand = g_here + step;
            if (!arena.closed(nstate) && cand < arena.g(nstate)) {
                arena.relax(nstate, cand, state);
                const Cell next{static_cast<std::size_t>(nx),
                                static_cast<std::size_t>(ny)};
                open.emplace(cand + heuristic(next, to,
                                              config.heuristicWeight),
                             static_cast<std::uint32_t>(nstate));
            }
        }
    }
    expansions = expanded - dominated;
    if (goal_state == no_parent)
        return std::nullopt;

    RoutedPath path;
    std::uint32_t state = goal_state;
    const std::size_t from_idx = flat(from);
    while (true) {
        const std::size_t idx = state / kDirCount;
        path.cells.push_back(Cell{idx % w, idx / w});
        if (idx == from_idx && arena.parent(state) == no_parent)
            break;
        state = arena.parent(state);
        requireInternal(state != no_parent, "broken A* parent chain");
    }
    std::reverse(path.cells.begin(), path.cells.end());
    for (const Cell &c : path.cells) {
        const std::int32_t owner = grid.owner(c);
        if (owner == net_id)
            continue;
        if (owner == RoutingGrid::kFree) {
            grid.setOwner(c, net_id);
            ++path.newCells;
        } else {
            path.crossovers.push_back(Crossover{c, net_id, owner});
        }
    }
    return path;
}

/** A random grid of @p prng: obstacles, straight wires of foreign nets
 *  1..3 (crossing them forces bridges) and a trunk of net 0. */
RoutingGrid
randomRoutingGrid(Prng &prng)
{
    RoutingGridConfig config;
    config.cellMm = 1.0;
    config.marginMm = 0.0;
    const int w = prng.uniformInt(6, 28);
    const int h = prng.uniformInt(6, 28);
    RoutingGrid grid(Point{0, 0}, Point{w - 1.0, h - 1.0}, config);
    const auto random_cell = [&] {
        return Cell{prng.uniformInt(grid.width()),
                    prng.uniformInt(grid.height())};
    };
    const std::size_t cells = grid.width() * grid.height();
    for (std::size_t i = 0; i < cells / 8; ++i)
        grid.setOwner(random_cell(), RoutingGrid::kObstacle);
    const int wires = prng.uniformInt(1, 6);
    for (int i = 0; i < wires; ++i) {
        const auto net = static_cast<std::int32_t>(i % 4); // net 0 = trunk
        Cell c = random_cell();
        const bool horizontal = prng.uniform() < 0.5;
        const std::size_t len = prng.uniformInt(std::size_t{12}) + 2;
        for (std::size_t k = 0; k < len; ++k) {
            grid.setOwner(c, net);
            if (horizontal ? c.x + 1 >= grid.width()
                           : c.y + 1 >= grid.height())
                break;
            (horizontal ? c.x : c.y) += 1;
        }
    }
    return grid;
}

std::vector<std::int32_t>
allOwners(const RoutingGrid &grid)
{
    std::vector<std::int32_t> owners;
    owners.reserve(grid.width() * grid.height());
    for (std::size_t y = 0; y < grid.height(); ++y)
        for (std::size_t x = 0; x < grid.width(); ++x)
            owners.push_back(grid.owner(Cell{x, y}));
    return owners;
}

/** Route three nets in turn (two terminals of net 0, so the second
 *  reuses the first's trunk, then a new net 4) with both searches on
 *  two copies of each of @p grids random grids; every result and the
 *  final owner grid must match. Adds the routes found to @p routed. */
void
expectFilteredMatchesReference(double weight, std::size_t grids,
                               std::size_t &routed)
{
    AstarConfig config;
    config.heuristicWeight = weight;
    Prng prng(0xF117E2);
    for (std::size_t g = 0; g < grids; ++g) {
        RoutingGrid filtered = randomRoutingGrid(prng);
        RoutingGrid reference = filtered;
        SearchArena arena;
        // A terminal on a free or own cell, if a few draws find one.
        const auto terminal = [&](std::int32_t net) {
            Cell c;
            for (int tries = 0; tries < 16; ++tries) {
                c = Cell{prng.uniformInt(filtered.width()),
                         prng.uniformInt(filtered.height())};
                const std::int32_t owner = filtered.owner(c);
                if (owner == RoutingGrid::kFree || owner == net)
                    break;
            }
            return c;
        };
        for (const std::int32_t net : {0, 0, 4}) {
            const Cell from = terminal(net);
            const Cell to = terminal(net);
            const std::uint64_t closed =
                counterSoFar("astar.cells_expanded");
            const std::uint64_t skips = counterSoFar("astar.dominated_skips");
            const auto got =
                routeAstar(filtered, from, to, net, arena, config);
            const std::uint64_t got_expansions =
                (counterSoFar("astar.cells_expanded") - closed) -
                (counterSoFar("astar.dominated_skips") - skips);
            std::size_t want_expansions = 0;
            const auto want = referenceRouteAstar(reference, from, to, net,
                                                  config, want_expansions);
            ASSERT_EQ(got.has_value(), want.has_value())
                << "grid " << g << " net " << net;
            EXPECT_EQ(got_expansions, want_expansions)
                << "grid " << g << " net " << net;
            if (!got)
                continue;
            ++routed;
            EXPECT_EQ(got->cells, want->cells) << "grid " << g;
            EXPECT_EQ(got->newCells, want->newCells) << "grid " << g;
            ASSERT_EQ(got->crossovers.size(), want->crossovers.size())
                << "grid " << g;
            for (std::size_t k = 0; k < got->crossovers.size(); ++k) {
                EXPECT_EQ(got->crossovers[k].cell,
                          want->crossovers[k].cell);
                EXPECT_EQ(got->crossovers[k].overNet,
                          want->crossovers[k].overNet);
            }
        }
        ASSERT_EQ(allOwners(filtered), allOwners(reference))
            << "grid " << g;
    }
}

TEST(AstarPushFilter, MatchesUnfilteredSearchAtConsistentWeight)
{
    const std::uint64_t skipped = counterSoFar("astar.pushes_skipped");
    std::size_t routed = 0;
    expectFilteredMatchesReference(0.01, 240, routed);
    EXPECT_GT(routed, 240u);
    EXPECT_GT(counterSoFar("astar.pushes_skipped") - skipped, 0u);
}

TEST(AstarPushFilter, StaysOffAtTileRouterWeight)
{
    const std::uint64_t skipped = counterSoFar("astar.pushes_skipped");
    std::size_t routed = 0;
    expectFilteredMatchesReference(2.0, 240, routed);
    EXPECT_GT(routed, 240u);
    EXPECT_EQ(counterSoFar("astar.pushes_skipped") - skipped, 0u);
}

} // namespace
} // namespace youtiao
