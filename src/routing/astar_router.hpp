/**
 * @file
 * A* maze router over the routing grid.
 *
 * Routes one connection of a net at a time from the net's whole tree
 * (every cell it already owns) to the next terminal. Tree cells cost
 * nothing to leave from and only new metal costs, so routing terminals
 * in turn grows a Steiner tree -- exactly how a shared FDM line
 * daisy-chains its group.
 *
 * Cells owned by other nets can be crossed perpendicularly through an
 * airbridge crossover (standard practice on superconducting chips) at a
 * high cost: the search state tracks the incoming direction, and while on
 * foreign metal only straight continuation is allowed. Bridge cells keep
 * their original owner; the crossing is reported, not claimed.
 */

#ifndef YOUTIAO_ROUTING_ASTAR_ROUTER_HPP
#define YOUTIAO_ROUTING_ASTAR_ROUTER_HPP

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "routing/grid.hpp"

namespace youtiao {

/** An airbridge crossover: net @p byNet hops over @p overNet at @p cell. */
struct Crossover
{
    Cell cell;
    std::int32_t byNet = 0;
    std::int32_t overNet = 0;
};

/** One routed path (sequence of adjacent cells, endpoints inclusive). */
struct RoutedPath
{
    std::vector<Cell> cells;
    /** Number of newly claimed cells (excludes tree cells and bridges). */
    std::size_t newCells = 0;
    /** Airbridge crossovers used by this path. */
    std::vector<Crossover> crossovers;
};

/**
 * Router cost knobs. New metal costs 1 per cell; both knobs must keep
 * every step at least that (bridgeCost >= 1, crowdingPenalty >= 0):
 * routeAstar's fixed heuristic, 0.99 x Manhattan distance, is consistent
 * only then, and its push filter is exact only under a consistent
 * heuristic.
 */
struct AstarConfig
{
    /** Cost of one airbridge crossover cell (>> 1 discourages them). */
    double bridgeCost = 25.0;
    /** Extra cost for new metal adjacent to an obstacle (keeps pad
     *  alleys open for later pins). */
    double crowdingPenalty = 0.25;
};

/**
 * Largest grid cell count (width * height) routeAstar can search. The
 * search state packs (cell, incoming direction) into a std::uint32_t
 * index, four states per cell, with the maximum value reserved as the
 * no-parent sentinel.
 */
std::size_t astarMaxCells();

/**
 * Throw ConfigError unless a @p width x @p height grid fits the A*
 * state index (see astarMaxCells()). routeAstar calls this itself;
 * exposed so callers can validate grid dimensions up front.
 */
void requireAstarIndexable(std::size_t width, std::size_t height);

/**
 * Reusable A* working memory: g-cost, parent and closed-set arrays of one
 * state per (cell, direction), kept alive across searches. begin() makes
 * every entry logically stale by bumping a generation counter instead of
 * refilling the arrays, so per-search setup is O(1) amortized — the
 * arrays are touched only where the search actually expands. A fresh
 * arena per call reproduces the original allocate-and-fill behaviour
 * exactly; reuse across calls is bit-identical because stale entries read
 * back as the old fill values (g = +inf, not closed).
 */
class SearchArena
{
  public:
    static constexpr std::uint32_t kNoParent =
        std::numeric_limits<std::uint32_t>::max();
    /** Search states per grid cell: one per incoming direction. */
    static constexpr std::size_t kStatesPerCell = 4;

    /** Bytes of working memory for @p states states: g, parent and the
     *  two generation stamps. The hierarchical router budgets per-tile
     *  arenas with this before any tile routes. */
    static constexpr std::size_t bytesFor(std::size_t states)
    {
        return states * (sizeof(double) + 3 * sizeof(std::uint32_t));
    }

    /** Invalidate all state for a new search over @p state_count states. */
    void begin(std::size_t state_count)
    {
        if (state_count > g_.size()) {
            g_.resize(state_count);
            parent_.resize(state_count);
            stamp_.assign(state_count, 0);
            closedStamp_.assign(state_count, 0);
            generation_ = 1;
            return;
        }
        if (++generation_ == 0) { // generation wrapped: hard reset
            stamp_.assign(stamp_.size(), 0);
            closedStamp_.assign(closedStamp_.size(), 0);
            generation_ = 1;
        }
    }

    double g(std::size_t s) const
    {
        return stamp_[s] == generation_
                   ? g_[s]
                   : std::numeric_limits<double>::infinity();
    }

    /** Record the best-known cost and predecessor of state @p s. */
    void relax(std::size_t s, double g, std::uint32_t parent)
    {
        stamp_[s] = generation_;
        g_[s] = g;
        parent_[s] = parent;
    }

    bool closed(std::size_t s) const
    {
        return closedStamp_[s] == generation_;
    }
    void close(std::size_t s) { closedStamp_[s] = generation_; }

    /**
     * True when another direction state of @p s's cell is already
     * closed with a cost no larger than @p g. Expanding @p s would then
     * relax nothing (see routeAstar), so the search may skip it.
     */
    bool closedSiblingNoWorse(std::size_t s, double g) const
    {
        const std::size_t first = s - s % kStatesPerCell;
        for (std::size_t k = first; k < first + kStatesPerCell; ++k) {
            // A closed state was relaxed this search, so g_[k] is live.
            if (k != s && closed(k) && g_[k] <= g)
                return true;
        }
        return false;
    }

    /**
     * True when another direction state of @p s's cell will close before
     * a queue entry (g + h, s) pops, with a cost no larger than @p g:
     * it is closed with g' <= g, or it was relaxed this search with
     * g' <= g and its key (g' + h, k) orders first. @p h is the cell's
     * heuristic, so both keys are rounded exactly as the queued ones.
     * Such an entry would only pop to be skipped by
     * closedSiblingNoWorse, so routeAstar does not queue it (exact only
     * under a consistent heuristic; see routeAstar).
     */
    bool siblingClosesFirst(std::size_t s, double g, double h) const
    {
        const std::size_t first = s - s % kStatesPerCell;
        const double key = g + h;
        for (std::size_t k = first; k < first + kStatesPerCell; ++k) {
            if (k == s || stamp_[k] != generation_ || g_[k] > g)
                continue;
            if (closed(k))
                return true;
            const double key_k = g_[k] + h;
            if (key_k < key || (key_k == key && k < s))
                return true;
        }
        return false;
    }

    /**
     * Predecessor of @p s; valid only for states relaxed this search
     * (path reconstruction walks exactly those).
     */
    std::uint32_t parent(std::size_t s) const { return parent_[s]; }

    /** Bytes of working memory currently held (diagnostic). */
    std::size_t memoryBytes() const { return bytesFor(g_.size()); }

  private:
    std::vector<double> g_;
    std::vector<std::uint32_t> parent_;
    /** Generation when g_/parent_ at a state were last written. */
    std::vector<std::uint32_t> stamp_;
    std::vector<std::uint32_t> closedStamp_;
    std::uint32_t generation_ = 0;
};

/**
 * Route one more connection of net @p net_id on @p grid: the cheapest
 * path from any cell of @p tree to @p to. The tree holds every cell the
 * net owns (one free cell starts a new net); leaving from it is free, a
 * new cell costs 1 (plus crowdingPenalty beside an obstacle) and an
 * airbridge over another net's cell bridgeCost. Obstacles are
 * impassable. On success the path's free cells are claimed for the net
 * and the path returned, from the tree cell it leaves to @p to; on
 * failure nullopt (grid unchanged).
 */
std::optional<RoutedPath> routeAstar(RoutingGrid &grid,
                                     const std::vector<Cell> &tree, Cell to,
                                     std::int32_t net_id,
                                     const AstarConfig &config = {});

/**
 * Same search reusing @p arena's buffers across calls (the chip router
 * routes one net at a time and passes one arena through the whole chip).
 * Results are identical to the fresh-buffer overload.
 */
std::optional<RoutedPath> routeAstar(RoutingGrid &grid,
                                     const std::vector<Cell> &tree, Cell to,
                                     std::int32_t net_id, SearchArena &arena,
                                     const AstarConfig &config = {});

} // namespace youtiao

#endif // YOUTIAO_ROUTING_ASTAR_ROUTER_HPP
