#include "routing/astar_router.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/watchdog.hpp"

namespace youtiao {

namespace {

constexpr int kDirCount =
    static_cast<int>(SearchArena::kStatesPerCell);
constexpr long kMoves[kDirCount][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};

/** Heuristic cost per cell of Manhattan distance to the target. Every
 *  step the search relaxes costs at least 1, so the heuristic is
 *  consistent with a key gap of at least 1 - kHeuristicWeight per step
 *  (see routeAstar). */
constexpr double kHeuristicWeight = 0.99;

double
heuristic(const Cell &a, const Cell &b)
{
    const double dx = a.x > b.x ? static_cast<double>(a.x - b.x)
                                : static_cast<double>(b.x - a.x);
    const double dy = a.y > b.y ? static_cast<double>(a.y - b.y)
                                : static_cast<double>(b.y - a.y);
    return kHeuristicWeight * (dx + dy);
}

} // namespace

std::size_t
astarMaxCells()
{
    // The largest state index must stay below the no-parent sentinel
    // (uint32 max), so cells * kDirCount states must fit strictly.
    return (std::numeric_limits<std::uint32_t>::max() - kDirCount + 1) /
           kDirCount;
}

void
requireAstarIndexable(std::size_t width, std::size_t height)
{
    // Guard the multiplication itself: width * height may already wrap.
    // The message is built only on failure: routeAstar runs this check
    // on every call.
    const std::size_t limit = astarMaxCells();
    if (width != 0 && height > limit / width)
        throw ConfigError("routing grid of " + std::to_string(width) +
                          "x" + std::to_string(height) +
                          " cells exceeds the A* 32-bit state index; "
                          "shrink the grid, coarsen the cell pitch, or use "
                          "the hierarchical tile router (64-bit corridor "
                          "ids)");
}

std::optional<RoutedPath>
routeAstar(RoutingGrid &grid, const std::vector<Cell> &tree, Cell to,
           std::int32_t net_id, const AstarConfig &config)
{
    SearchArena arena;
    return routeAstar(grid, tree, to, net_id, arena, config);
}

std::optional<RoutedPath>
routeAstar(RoutingGrid &grid, const std::vector<Cell> &tree, Cell to,
           std::int32_t net_id, SearchArena &arena,
           const AstarConfig &config)
{
    requireConfig(net_id >= 0, "net id must be non-negative");
    requireConfig(!tree.empty(), "A* needs at least one tree cell");
    requireConfig(config.bridgeCost >= 1.0 && config.crowdingPenalty >= 0.0,
                  "A* step costs must be at least 1 (bridgeCost >= 1, "
                  "crowdingPenalty >= 0)");
    const std::size_t w = grid.width();
    const std::size_t h = grid.height();
    requireAstarIndexable(w, h);
    auto flat = [w](const Cell &c) { return c.y * w + c.x; };

    auto mine_or_free = [&](const Cell &c) {
        const std::int32_t o = grid.owner(c);
        return o == RoutingGrid::kFree || o == net_id;
    };
    // Endpoints must be plain cells; a bridge cannot start or end a path.
    if (!mine_or_free(to))
        return std::nullopt;

    // Search state: (cell, incoming direction). Direction matters only on
    // foreign metal, where a bridge forces straight continuation. The
    // arena holds g/parent/closed per state; begin() invalidates the
    // previous search in O(1) instead of refilling O(states) memory.
    const std::size_t state_count = w * h * kDirCount;
    arena.begin(state_count);
    watchdog::gaugeMax(watchdog::Gauge::AstarArenaBytes,
                       arena.memoryBytes());
    constexpr std::uint32_t no_parent = SearchArena::kNoParent;

    // Seed every tree cell at g = 0 with no parent: the path may leave
    // the net from any of them for free. All four direction states are
    // set, so no relaxation (cost >= 1) ever improves a tree cell, and
    // one queue entry per cell suffices (tree cells are never bridges).
    using Entry = std::pair<double, std::uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
    for (const Cell &c : tree) {
        if (!mine_or_free(c))
            return std::nullopt;
        const std::size_t first = flat(c) * kDirCount;
        for (std::size_t s = first; s < first + kDirCount; ++s)
            arena.relax(s, 0.0, no_parent);
        open.emplace(heuristic(c, to), static_cast<std::uint32_t>(first));
    }

    std::uint32_t goal_state = no_parent;
    std::size_t expanded = 0;
    std::size_t dominated = 0;
    std::size_t pushes_skipped = 0;
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
        // Strided: the branch in poll() is one relaxed load, but even
        // that is kept off the per-expansion critical path.
        if ((expanded & 0xFFF) == 0)
            cancel::poll("astar");
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
        // Off a bridge every direction state of a cell offers each
        // neighbour the same step, so a sibling closed at g' <= g has
        // already relaxed every neighbour state to at most g' + step <=
        // g + step, and relaxation needs a strict improvement: this
        // expansion could change nothing. Skipping it keeps the pop
        // order, the parents and the path bit-identical.
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
            const bool next_on_bridge =
                owner != net_id && owner != RoutingGrid::kFree;
            double step;
            if (owner == RoutingGrid::kFree || owner == net_id) {
                // New metal (an own cell off the tree is priced alike;
                // the tree's own cells sit at g = 0 and never relax).
                step = 1.0;
                // Crowding: staying off pad walls keeps alleys open.
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
                const double h_next = heuristic(next, to);
                // An off-bridge entry whose sibling closes first at a
                // cost no larger than cand would pop only to be skipped
                // as dominated, so it is not queued; the g/parent write
                // above stays. The one other effect of that pop, closing
                // nstate, rejects later relaxations of it. Those come
                // from a neighbour p expanded later, at a key f_p >=
                // cand + h_next (pops are monotone under the consistent
                // heuristic), so they offer f_p - h_p + step >= cand +
                // step - 0.99 >= cand + 0.01: never an improvement.
                if (!next_on_bridge &&
                    arena.siblingClosesFirst(nstate, cand, h_next)) {
                    ++pushes_skipped;
                    continue;
                }
                open.emplace(cand + h_next,
                             static_cast<std::uint32_t>(nstate));
            }
        }
    }
    metrics::count("astar.cells_expanded", expanded);
    metrics::count("astar.dominated_skips", dominated);
    metrics::count("astar.pushes_skipped", pushes_skipped);
    metrics::observe("astar.cells_expanded",
                     static_cast<double>(expanded));
    trace::counter("astar.cells_expanded",
                   static_cast<double>(expanded), "routing");
    if (goal_state == no_parent) {
        metrics::count("astar.failed_routes");
        trace::instant("astar.failed_route", "routing");
        return std::nullopt;
    }

    // The path ends at the first parentless state: the tree cell it
    // leaves the net from.
    RoutedPath path;
    for (std::uint32_t state = goal_state;; state = arena.parent(state)) {
        const std::size_t idx = state / kDirCount;
        path.cells.push_back(Cell{idx % w, idx / w});
        if (arena.parent(state) == no_parent)
            break;
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
    metrics::count("astar.paths_routed");
    metrics::count("astar.path_cells", path.cells.size());
    metrics::count("astar.crossovers", path.crossovers.size());
    return path;
}

} // namespace youtiao
