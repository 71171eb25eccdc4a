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
    // A new net's tree is its one start cell, claimed with the path.
    const auto path = routeAstar(grid, {a}, b, 0);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->cells.front(), a);
    EXPECT_EQ(path->cells.back(), b);
    // Manhattan-optimal: newCells == |dx| + 1 along a straight line.
    EXPECT_EQ(path->newCells, b.x - a.x + 1);
    EXPECT_EQ(path->cells.size(), path->newCells);
}

TEST(AstarRouter, SharedArenaMatchesFreshBuffersExactly)
{
    // Property test: one SearchArena reused across many sequential
    // searches must reproduce the fresh-buffer overload exactly --
    // same paths, same costs, same claimed cells -- because stale
    // entries from earlier generations read back as "unvisited". Each
    // net routes two connections, the second from the tree the first
    // grew, so multi-cell seeds go through the arena too.
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

    const std::vector<std::vector<Point>> nets = {
        {{0.5, 0.5}, {7.5, 7.5}, {7.5, 0.5}},
        {{0.5, 7.5}, {7.5, 0.5}, {4.5, 7.5}},
        {{1.0, 4.0}, {7.0, 4.0}, {4.5, 1.5}},
        {{4.0, 0.5}, {4.0, 7.5}, {0.5, 5.0}},
        {{0.5, 2.0}, {7.5, 6.0}, {6.0, 7.5}},
        {{6.5, 7.0}, {1.5, 1.0}, {0.5, 0.5}},
    };
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const auto net_id = static_cast<std::int32_t>(i + 1);
        std::vector<Cell> fresh_tree{fresh_grid.cellAt(nets[i][0])};
        std::vector<Cell> arena_tree = fresh_tree;
        for (std::size_t t = 1; t < nets[i].size(); ++t) {
            const Cell to = fresh_grid.cellAt(nets[i][t]);
            const auto fresh = routeAstar(fresh_grid, fresh_tree, to, net_id);
            const auto reused =
                routeAstar(arena_grid, arena_tree, to, net_id, arena);
            ASSERT_EQ(fresh.has_value(), reused.has_value())
                << "net " << i << " terminal " << t;
            if (!fresh)
                continue;
            EXPECT_EQ(fresh->cells, reused->cells) << "net " << i;
            EXPECT_EQ(fresh->newCells, reused->newCells) << "net " << i;
            ASSERT_EQ(fresh->crossovers.size(), reused->crossovers.size());
            for (std::size_t k = 0; k < fresh->crossovers.size(); ++k) {
                EXPECT_EQ(fresh->crossovers[k].cell,
                          reused->crossovers[k].cell);
                EXPECT_EQ(fresh->crossovers[k].byNet,
                          reused->crossovers[k].byNet);
                EXPECT_EQ(fresh->crossovers[k].overNet,
                          reused->crossovers[k].overNet);
            }
            for (const Cell &c : fresh->cells) {
                if (fresh_grid.owner(c) == net_id) {
                    fresh_tree.push_back(c);
                    arena_tree.push_back(c);
                }
            }
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
    // Corner to corner across an open 3x3 grid: the cells off the
    // border are reached from the west and from the south at the same
    // cost. The second direction state of such a cell to pop finds its
    // sibling closed no worse and must close without expanding, yet
    // still count as a closed state.
    RoutingGridConfig config;
    config.cellMm = 1.0;
    config.marginMm = 0.0;
    RoutingGrid grid(Point{0, 0}, Point{2, 2}, config);
    ASSERT_EQ(grid.width(), 3u);
    const auto counter = [](const char *name) {
        const auto counters = metrics::Registry::global().counters();
        const auto it = counters.find(name);
        return it == counters.end() ? std::uint64_t{0} : it->second;
    };
    const std::uint64_t skips = counter("astar.dominated_skips");
    const std::uint64_t closed = counter("astar.cells_expanded");
    const auto path = routeAstar(grid, {Cell{0, 0}}, Cell{2, 2}, 0);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->newCells, 5u);
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
    const auto path = routeAstar(grid, {a}, b, 1);
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
    const auto path = routeAstar(grid, {a}, b, 1);
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
    EXPECT_FALSE(routeAstar(grid, {a}, b, 1).has_value());
}

TEST(AstarRouter, SameNetReuseCheap)
{
    RoutingGrid grid(Point{0, 0}, Point{4, 4});
    const Cell a = grid.cellAt(Point{0.0, 2.0});
    const Cell b = grid.cellAt(Point{4.0, 2.0});
    const auto trunk = routeAstar(grid, {a}, b, 0);
    ASSERT_TRUE(trunk.has_value());
    // Second terminal hooks onto the trunk: the tree is every trunk
    // cell, and new metal is only the stub straight down to it.
    const Cell t = grid.cellAt(Point{2.0, 3.0});
    const Cell junction{t.x, a.y};
    const auto stub = routeAstar(grid, trunk->cells, t, 0);
    ASSERT_TRUE(stub.has_value());
    EXPECT_EQ(stub->cells.front(), junction);
    EXPECT_EQ(stub->newCells, t.y - junction.y);
    EXPECT_EQ(stub->cells.size(), stub->newCells + 1);
    EXPECT_TRUE(stub->crossovers.empty());
    EXPECT_EQ(grid.occupiedCellCount(), trunk->newCells + stub->newCells);
}

TEST(AstarRouter, NegativeNetIdThrows)
{
    RoutingGrid grid(Point{0, 0}, Point{1, 1});
    EXPECT_THROW(routeAstar(grid, {Cell{0, 0}}, Cell{1, 1}, -1),
                 ConfigError);
}

TEST(AstarRouter, StepsCheaperThanNewMetalOrNoTreeThrow)
{
    // The fixed heuristic (0.99 per cell) is consistent, and the push
    // filter exact, only while every step costs at least 1.
    RoutingGrid grid(Point{0, 0}, Point{1, 1});
    AstarConfig cheap_bridge;
    cheap_bridge.bridgeCost = 0.5;
    EXPECT_THROW(routeAstar(grid, {Cell{0, 0}}, Cell{1, 1}, 0, cheap_bridge),
                 ConfigError);
    AstarConfig negative_crowding;
    negative_crowding.crowdingPenalty = -0.1;
    EXPECT_THROW(
        routeAstar(grid, {Cell{0, 0}}, Cell{1, 1}, 0, negative_crowding),
        ConfigError);
    EXPECT_THROW(routeAstar(grid, {}, Cell{1, 1}, 0), ConfigError);
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

TEST(ChipRouterExtra, PerimeterSlotsOccupyDistinctCells)
{
    // Slot i of an edge sits at lo + i * spacing, and a slot whose cell
    // an earlier slot has is dropped. Accumulating the spacing instead
    // let the last slots of two edges round to one grid cell, so two
    // nets could claim one interface. Sweep box sizes and spacings at the
    // flat and the tile router's pitch, as routeChip lays slots out.
    for (const ChipRoutingConfig &config :
         {ChipRoutingConfig{}, tunedTileRoutingConfig()}) {
        const double cell = config.grid.cellMm;
        const double m = 0.5 * config.grid.marginMm;
        for (double wx = 0.1; wx < 3.0; wx += 0.23) {
            for (double wy = 0.1; wy < 3.0; wy += 0.31) {
                const RoutingGrid grid(Point{0.0, 0.0}, Point{wx, wy},
                                       config.grid);
                for (const double spacing :
                     {2.0 * cell, 2.5 * cell, 3.7 * cell, 0.5}) {
                    const std::vector<Point> slots =
                        perimeterSlots(grid, Point{-m, -m},
                                       Point{wx + m, wy + m}, spacing);
                    ASSERT_GE(slots.size(), 4u);
                    std::vector<std::pair<std::size_t, std::size_t>> cells;
                    for (const Point &p : slots) {
                        const Cell c = grid.cellAt(p);
                        cells.emplace_back(c.y, c.x);
                    }
                    std::sort(cells.begin(), cells.end());
                    EXPECT_EQ(std::adjacent_find(cells.begin(), cells.end()),
                              cells.end())
                        << "box " << wx << " x " << wy << ", cell " << cell
                        << " mm, spacing " << spacing << " mm";
                }
            }
        }
    }
}

TEST(ChipRouterExtra, EveryNetGetsItsOwnInterface)
{
    // Eight single-pin nets around one qubit on boxes of a few shapes,
    // at both pitches: routeChip hosts one interface per net, each on a
    // cell of its own that its net owns, and the grid is DRC-clean.
    for (const ChipRoutingConfig &config :
         {ChipRoutingConfig{}, tunedTileRoutingConfig()}) {
        for (const Point &box : {Point{0.6, 0.6}, Point{1.5, 0.7},
                                 Point{0.9, 2.1}}) {
            ChipTopology chip("interface sweep");
            chip.addQubit(QubitInfo{});
            std::vector<NetSpec> nets;
            for (int i = 0; i < 8; ++i) {
                const double fx = 0.2 + 0.8 * ((i % 4) / 3.0);
                const double fy = 0.2 + 0.8 * ((i / 4) / 1.0);
                nets.push_back(NetSpec{{Point{0.4 + fx * box.x,
                                              0.4 + fy * box.y}}});
            }
            const ChipRoutingResult result = routeChip(chip, nets, config);
            ASSERT_TRUE(result.grid.has_value());
            EXPECT_EQ(result.failedConnections, 0u);
            EXPECT_EQ(result.interfaceCount, nets.size());
            ASSERT_EQ(result.interfaces.size(), nets.size());
            for (std::size_t n = 0; n < nets.size(); ++n) {
                const Cell iface = result.grid->cellAt(result.interfaces[n]);
                EXPECT_EQ(result.grid->owner(iface),
                          static_cast<std::int32_t>(n))
                    << "box " << box.x << " x " << box.y << ", net " << n;
            }
            const DrcReport report = checkRoutingDrc(
                *result.grid, nets.size(), result.crossovers);
            EXPECT_TRUE(report.clean)
                << (report.violations.empty() ? ""
                                              : report.violations.front());
        }
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
// Recorded when every connection became a search from the net's whole
// tree (every cell it owns) at the fixed heuristic weight 0.99. Every
// figure is exact: a change meant to be a pure speedup must reproduce
// the same routes, the same number of expanded search states and the
// same final owner grid. The closed-state count may fall only by closing
// fewer dominated states. A change that alters routes on purpose
// regenerates these numbers and records old and new values.

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
                     {84.42000000000003, 29, 134570,
                      0xfc1d15905d0f44e7ull, 90101}},
        FamilyGolden{TopologyFamily::Hexagon,
                     {170.03999999999999, 55, 303870,
                      0x67ff78cf10803841ull, 209480}},
        FamilyGolden{TopologyFamily::HeavySquare,
                     {206.64000000000004, 68, 325125,
                      0x63628f753748624bull, 219271}},
        FamilyGolden{TopologyFamily::HeavyHexagon,
                     {214.9499999999999, 69, 366338,
                      0x0d808060df4353e4ull, 240628}},
        FamilyGolden{TopologyFamily::LowDensity,
                     {169.29000000000002, 46, 257193,
                      0xc188f5886dfffe63ull, 173022}}),
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
                        {76.079999999999998, 20, 25008,
                         0xb17565fc5fbb266dull, 19085});
}

} // namespace
} // namespace youtiao

// -- route to the tree: differential test against plain Dijkstra --------
//
// referenceTreeRoute is a plain Dijkstra over the same search states as
// routeAstar -- (cell, incoming direction), straight only across foreign
// metal -- and the same step costs: new metal 1, or 1.25 beside an
// obstacle, an airbridge 25. Every tree cell is a source at cost 0 and
// is never entered again. On random grids routeAstar (heuristic, push
// filter, dominated skips) must agree with it on reachability and on the
// optimal cost (sums of 1, 1.25 and 25 are exact in doubles), return a
// valid path and close no more states than it.

namespace youtiao {
namespace {

constexpr long kRefMoves[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};

struct TreeReference
{
    bool reachable = false;
    double cost = 0.0;
    /** States closed, the target's included. */
    std::size_t closed = 0;
};

/** Step cost of entering cell (@p x, @p y) of @p grid for net @p net. */
double
referenceStep(const RoutingGrid &grid, std::size_t x, std::size_t y,
              std::int32_t net, const AstarConfig &config)
{
    const std::int32_t owner = grid.owner(Cell{x, y});
    if (owner != RoutingGrid::kFree && owner != net)
        return config.bridgeCost;
    for (const auto &mv : kRefMoves) {
        const long ax = static_cast<long>(x) + mv[0];
        const long ay = static_cast<long>(y) + mv[1];
        if (ax < 0 || ay < 0 || ax >= static_cast<long>(grid.width()) ||
            ay >= static_cast<long>(grid.height()))
            continue;
        if (grid.owner(Cell{static_cast<std::size_t>(ax),
                            static_cast<std::size_t>(ay)}) ==
            RoutingGrid::kObstacle)
            return 1.0 + config.crowdingPenalty;
    }
    return 1.0;
}

TreeReference
referenceTreeRoute(const RoutingGrid &grid, const std::vector<Cell> &tree,
                   Cell to, std::int32_t net, const AstarConfig &config)
{
    const std::size_t w = grid.width();
    const std::size_t cells = w * grid.height();
    std::vector<bool> in_tree(cells, false);
    std::vector<double> dist(4 * cells,
                             std::numeric_limits<double>::infinity());
    std::vector<bool> done(4 * cells, false);
    using Entry = std::pair<double, std::size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
    for (const Cell &c : tree) {
        const std::size_t idx = c.y * w + c.x;
        in_tree[idx] = true;
        dist[4 * idx] = 0.0;
        open.emplace(0.0, 4 * idx);
    }
    TreeReference out;
    while (!open.empty()) {
        const auto [d, state] = open.top();
        open.pop();
        if (done[state])
            continue;
        done[state] = true;
        ++out.closed;
        const std::size_t idx = state / 4;
        const std::size_t dir = state % 4;
        if (idx == to.y * w + to.x) {
            out.reachable = true;
            out.cost = d;
            return out;
        }
        const std::int32_t here = grid.owner(Cell{idx % w, idx / w});
        const bool bridge = here != RoutingGrid::kFree && here != net;
        for (std::size_t k = 0; k < 4; ++k) {
            if (bridge && k != dir)
                continue;
            const long nx = static_cast<long>(idx % w) + kRefMoves[k][0];
            const long ny = static_cast<long>(idx / w) + kRefMoves[k][1];
            if (nx < 0 || ny < 0 || nx >= static_cast<long>(w) ||
                ny >= static_cast<long>(grid.height()))
                continue;
            const Cell next{static_cast<std::size_t>(nx),
                            static_cast<std::size_t>(ny)};
            const std::size_t nidx = next.y * w + next.x;
            if (in_tree[nidx] ||
                grid.owner(next) == RoutingGrid::kObstacle)
                continue;
            const double cand =
                d + referenceStep(grid, next.x, next.y, net, config);
            if (cand < dist[4 * nidx + k]) {
                dist[4 * nidx + k] = cand;
                open.emplace(cand, 4 * nidx + k);
            }
        }
    }
    return out;
}

/** A random grid of @p prng: obstacles, straight wires of foreign nets
 *  1..3 (crossing them forces bridges) and a random tree of net 0 (a
 *  walk with branches) whose cells it returns in @p tree. */
RoutingGrid
randomRoutingGrid(Prng &prng, std::vector<Cell> &tree)
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
    const int wires = prng.uniformInt(1, 5);
    for (int i = 0; i < wires; ++i) {
        const auto net = static_cast<std::int32_t>(1 + i % 3);
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
    // The tree: a random walk over free cells from a free start, with a
    // chance to restart from one of its own cells (a branch).
    tree.clear();
    Cell at = random_cell();
    for (int tries = 0; tries < 64 && grid.owner(at) != RoutingGrid::kFree;
         ++tries)
        at = random_cell();
    if (grid.owner(at) != RoutingGrid::kFree)
        return grid;
    grid.setOwner(at, 0);
    tree.push_back(at);
    const std::size_t steps = prng.uniformInt(std::size_t{24});
    for (std::size_t k = 0; k < steps; ++k) {
        if (prng.uniform() < 0.15)
            at = tree[prng.uniformInt(tree.size())];
        const auto &mv = kRefMoves[prng.uniformInt(std::size_t{4})];
        const long nx = static_cast<long>(at.x) + mv[0];
        const long ny = static_cast<long>(at.y) + mv[1];
        if (nx < 0 || ny < 0 || nx >= static_cast<long>(grid.width()) ||
            ny >= static_cast<long>(grid.height()))
            continue;
        const Cell next{static_cast<std::size_t>(nx),
                        static_cast<std::size_t>(ny)};
        if (grid.owner(next) != RoutingGrid::kFree)
            continue;
        grid.setOwner(next, 0);
        tree.push_back(next);
        at = next;
    }
    return grid;
}

/** Check @p path of net @p net from @p tree to @p to against the grid
 *  @p before it was routed and @p after: valid, of cost @p cost, and
 *  claiming exactly its free cells. */
void
expectValidTreePath(const RoutedPath &path, const RoutingGrid &before,
                    const RoutingGrid &after, const std::vector<Cell> &tree,
                    Cell to, std::int32_t net, const AstarConfig &config,
                    double cost)
{
    ASSERT_FALSE(path.cells.empty());
    const auto in_tree = [&tree](const Cell &c) {
        return std::find(tree.begin(), tree.end(), c) != tree.end();
    };
    EXPECT_TRUE(in_tree(path.cells.front()));
    EXPECT_EQ(path.cells.back(), to);
    double sum = 0.0;
    std::size_t fresh = 0;
    std::size_t bridges = 0;
    for (std::size_t i = 0; i < path.cells.size(); ++i) {
        const Cell &c = path.cells[i];
        const std::int32_t owner = before.owner(c);
        ASSERT_NE(owner, RoutingGrid::kObstacle) << "through an obstacle";
        fresh += owner == RoutingGrid::kFree ? 1 : 0;
        if (i == 0)
            continue;
        const Cell &p = path.cells[i - 1];
        const std::size_t dx = p.x > c.x ? p.x - c.x : c.x - p.x;
        const std::size_t dy = p.y > c.y ? p.y - c.y : c.y - p.y;
        ASSERT_EQ(dx + dy, 1u) << "not 4-connected at step " << i;
        EXPECT_FALSE(in_tree(c)) << "re-enters the tree at step " << i;
        sum += referenceStep(before, c.x, c.y, net, config);
        if (owner != RoutingGrid::kFree && owner != net) {
            ++bridges;
            ASSERT_LT(i + 1, path.cells.size()) << "ends on a bridge";
            const Cell &n = path.cells[i + 1];
            EXPECT_EQ(n.x + p.x, 2 * c.x) << "bridge turns at step " << i;
            EXPECT_EQ(n.y + p.y, 2 * c.y) << "bridge turns at step " << i;
        }
    }
    EXPECT_EQ(sum, cost);
    EXPECT_EQ(path.newCells, fresh);
    EXPECT_EQ(path.crossovers.size(), bridges);
    for (const Crossover &x : path.crossovers) {
        EXPECT_EQ(x.byNet, net);
        EXPECT_EQ(x.overNet, before.owner(x.cell));
    }
    // The grid changes exactly at the path's free cells.
    RoutingGrid want = before;
    for (const Cell &c : path.cells)
        if (before.owner(c) == RoutingGrid::kFree)
            want.setOwner(c, net);
    for (std::size_t y = 0; y < after.height(); ++y)
        for (std::size_t x = 0; x < after.width(); ++x)
            ASSERT_EQ(after.owner(Cell{x, y}), want.owner(Cell{x, y}))
                << "cell (" << x << ", " << y << ")";
}

TEST(AstarPushFilter, MatchesDijkstraToTreeReference)
{
    const std::uint64_t skipped = counterSoFar("astar.pushes_skipped");
    const std::uint64_t dominated = counterSoFar("astar.dominated_skips");
    const AstarConfig config;
    Prng prng(0xF117E2);
    std::size_t routed = 0;
    std::size_t unreachable = 0;
    for (std::size_t g = 0; g < 240; ++g) {
        std::vector<Cell> tree;
        RoutingGrid grid = randomRoutingGrid(prng, tree);
        if (tree.empty())
            continue;
        SearchArena arena;
        // Three connections of net 0, each from the tree the previous
        // ones grew, then the first connection of a new net 4.
        for (const std::int32_t net : {0, 0, 0, 4}) {
            Cell to{};
            bool found = false;
            for (int tries = 0; tries < 16 && !found; ++tries) {
                to = Cell{prng.uniformInt(grid.width()),
                          prng.uniformInt(grid.height())};
                found = grid.owner(to) == RoutingGrid::kFree;
            }
            if (!found)
                continue;
            std::vector<Cell> net_tree = tree;
            if (net == 4) {
                net_tree = {to};
                to = Cell{prng.uniformInt(grid.width()),
                          prng.uniformInt(grid.height())};
                if (grid.owner(to) != RoutingGrid::kFree ||
                    to == net_tree.front())
                    continue;
            }
            const RoutingGrid before = grid;
            const TreeReference want =
                referenceTreeRoute(before, net_tree, to, net, config);
            const std::uint64_t closed =
                counterSoFar("astar.cells_expanded");
            const auto got = routeAstar(grid, net_tree, to, net, arena);
            const std::uint64_t got_closed =
                counterSoFar("astar.cells_expanded") - closed;
            ASSERT_EQ(got.has_value(), want.reachable)
                << "grid " << g << " net " << net;
            EXPECT_LE(got_closed, want.closed)
                << "grid " << g << " net " << net;
            if (!got) {
                ++unreachable;
                continue;
            }
            ++routed;
            expectValidTreePath(*got, before, grid, net_tree, to, net,
                                config, want.cost);
            if (net == 0)
                for (const Cell &c : got->cells)
                    if (before.owner(c) == RoutingGrid::kFree)
                        tree.push_back(c);
        }
    }
    EXPECT_GT(routed, 480u);
    EXPECT_GT(unreachable, 0u);
    // The heuristic's push filter and the pop-time skip both ran.
    EXPECT_GT(counterSoFar("astar.pushes_skipped") - skipped, 0u);
    EXPECT_GT(counterSoFar("astar.dominated_skips") - dominated, 0u);
}

} // namespace
} // namespace youtiao
