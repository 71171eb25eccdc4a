#include "routing/corridor_router.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"

namespace youtiao {

namespace {

struct SegRef
{
    bool horizontal = false;
    std::uint64_t i = 0;
    std::uint64_t j = 0;
};

SegRef
decode(const CorridorLattice &lattice, std::uint64_t id)
{
    requireConfig(id < lattice.segmentCount(),
                  "corridor segment id out of range");
    SegRef ref;
    if (id < lattice.horizontalCount()) {
        ref.horizontal = true;
        ref.i = id % lattice.tilesX();
        ref.j = id / lattice.tilesX();
    } else {
        const std::uint64_t v = id - lattice.horizontalCount();
        ref.i = v / lattice.tilesY();
        ref.j = v % lattice.tilesY();
    }
    return ref;
}

/** Segments incident to lattice vertex (i, j): up to two horizontal
 *  (left/right) and two vertical (below/above). */
void
segmentsAtVertex(const CorridorLattice &lattice, std::uint64_t i,
                 std::uint64_t j, std::vector<std::uint64_t> &out)
{
    const std::uint64_t tx = lattice.tilesX();
    const std::uint64_t ty = lattice.tilesY();
    if (i > 0)
        out.push_back(j * tx + (i - 1));
    if (i < tx)
        out.push_back(j * tx + i);
    if (j > 0)
        out.push_back(lattice.horizontalCount() + i * ty + (j - 1));
    if (j < ty)
        out.push_back(lattice.horizontalCount() + i * ty + j);
}

double
traversalCost(const CorridorLattice &lattice, std::uint64_t id,
              const std::unordered_map<std::uint64_t, std::uint32_t> &usage,
              const CorridorConfig &config)
{
    double factor = 1.0;
    const auto it = usage.find(id);
    if (it != usage.end() && config.usageNorm > 0.0) {
        factor += config.congestionWeight *
                  static_cast<double>(it->second) / config.usageNorm;
    }
    return lattice.segmentLengthMm(id) * factor;
}

bool
atCapacity(std::uint64_t id,
           const std::unordered_map<std::uint64_t, std::uint32_t> &usage,
           const CorridorConfig &config)
{
    if (config.segmentCapacity == 0)
        return false;
    const auto it = usage.find(id);
    return it != usage.end() && it->second >= config.segmentCapacity;
}

/**
 * Sparse Dijkstra from @p from until @p isGoal. 64-bit segment ids keyed
 * through hash maps: only the explored neighbourhood allocates, so the
 * lattice itself can be arbitrarily large. The priority queue orders by
 * (cost, id), making pop order -- and therefore the parent forest --
 * deterministic regardless of hash-map iteration order.
 */
template <typename Goal>
std::optional<CorridorPath>
searchCorridor(const CorridorLattice &lattice, std::uint64_t from,
               const Goal &isGoal,
               const std::unordered_map<std::uint64_t, std::uint32_t> &usage,
               const CorridorConfig &config)
{
    if (atCapacity(from, usage, config))
        return std::nullopt;

    std::unordered_map<std::uint64_t, double> g;
    std::unordered_map<std::uint64_t, std::uint64_t> parent;
    using Entry = std::pair<double, std::uint64_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;

    g[from] = traversalCost(lattice, from, usage, config);
    open.emplace(g[from], from);
    std::vector<std::uint64_t> adjacent;
    std::size_t expanded = 0;
    std::optional<std::uint64_t> goal;
    while (!open.empty()) {
        const auto [cost, id] = open.top();
        open.pop();
        const auto gi = g.find(id);
        if (gi == g.end() || cost > gi->second)
            continue; // stale queue entry
        ++expanded;
        if ((expanded & 0xFFF) == 0)
            cancel::poll("corridor");
        if (isGoal(id)) {
            goal = id;
            break;
        }
        adjacent.clear();
        const SegRef ref = decode(lattice, id);
        if (ref.horizontal) {
            segmentsAtVertex(lattice, ref.i, ref.j, adjacent);
            segmentsAtVertex(lattice, ref.i + 1, ref.j, adjacent);
        } else {
            segmentsAtVertex(lattice, ref.i, ref.j, adjacent);
            segmentsAtVertex(lattice, ref.i, ref.j + 1, adjacent);
        }
        for (std::uint64_t next : adjacent) {
            if (next == id || atCapacity(next, usage, config))
                continue;
            const double cand =
                cost + traversalCost(lattice, next, usage, config);
            const auto it = g.find(next);
            if (it == g.end() || cand < it->second) {
                g[next] = cand;
                parent[next] = id;
                open.emplace(cand, next);
            }
        }
    }
    metrics::count("corridor.segments_expanded", expanded);
    if (!goal.has_value())
        return std::nullopt;

    CorridorPath path;
    std::uint64_t at = *goal;
    while (true) {
        path.segments.push_back(at);
        path.lengthMm += lattice.segmentLengthMm(at);
        const auto it = parent.find(at);
        if (it == parent.end())
            break;
        at = it->second;
    }
    std::reverse(path.segments.begin(), path.segments.end());
    return path;
}

} // namespace

double
CorridorLattice::segmentLengthMm(std::uint64_t id) const
{
    const SegRef ref = decode(*this, id);
    if (ref.horizontal)
        return xCutsMm[ref.i + 1] - xCutsMm[ref.i];
    return yCutsMm[ref.j + 1] - yCutsMm[ref.j];
}

Point
CorridorLattice::segmentMidpoint(std::uint64_t id) const
{
    const SegRef ref = decode(*this, id);
    if (ref.horizontal)
        return Point{0.5 * (xCutsMm[ref.i] + xCutsMm[ref.i + 1]),
                     yCutsMm[ref.j]};
    return Point{xCutsMm[ref.i],
                 0.5 * (yCutsMm[ref.j] + yCutsMm[ref.j + 1])};
}

std::vector<std::uint64_t>
CorridorLattice::adjacentSegments(std::uint64_t id) const
{
    std::vector<std::uint64_t> out;
    const SegRef ref = decode(*this, id);
    if (ref.horizontal) {
        segmentsAtVertex(*this, ref.i, ref.j, out);
        segmentsAtVertex(*this, ref.i + 1, ref.j, out);
    } else {
        segmentsAtVertex(*this, ref.i, ref.j, out);
        segmentsAtVertex(*this, ref.i, ref.j + 1, out);
    }
    out.erase(std::remove(out.begin(), out.end(), id), out.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

bool
CorridorLattice::isBoundary(std::uint64_t id) const
{
    const SegRef ref = decode(*this, id);
    if (ref.horizontal)
        return ref.j == 0 || ref.j == tilesY();
    return ref.i == 0 || ref.i == tilesX();
}

std::uint64_t
CorridorLattice::entrySegmentForTile(std::uint64_t ix, std::uint64_t iy,
                                     const Point &p) const
{
    requireConfig(ix < tilesX() && iy < tilesY(),
                  "tile index outside the corridor lattice");
    const std::uint64_t sides[4] = {
        iy * tilesX() + ix,                         // south
        (iy + 1) * tilesX() + ix,                   // north
        horizontalCount() + ix * tilesY() + iy,     // west
        horizontalCount() + (ix + 1) * tilesY() + iy // east
    };
    std::uint64_t best = sides[0];
    double best_d = std::numeric_limits<double>::infinity();
    for (std::uint64_t id : sides) {
        const double d = distance(segmentMidpoint(id), p);
        if (d < best_d || (d == best_d && id < best)) {
            best_d = d;
            best = id;
        }
    }
    return best;
}

CorridorLattice
makeCorridorLattice(std::vector<double> x_cuts_mm,
                    std::vector<double> y_cuts_mm)
{
    requireConfig(x_cuts_mm.size() >= 2 && y_cuts_mm.size() >= 2,
                  "corridor lattice needs at least one tile per axis");
    requireConfig(std::is_sorted(x_cuts_mm.begin(), x_cuts_mm.end()) &&
                      std::is_sorted(y_cuts_mm.begin(), y_cuts_mm.end()),
                  "corridor cuts must be ascending");
    CorridorLattice lattice;
    lattice.xCutsMm = std::move(x_cuts_mm);
    lattice.yCutsMm = std::move(y_cuts_mm);
    return lattice;
}

CorridorResult
routeCorridors(const CorridorLattice &lattice,
               const std::vector<std::uint64_t> &entries,
               const CorridorConfig &config)
{
    const metrics::ScopedTimer timer("corridor.route");
    CorridorResult result;
    result.paths.resize(entries.size());
    const auto boundary = [&lattice](std::uint64_t id) {
        return lattice.isBoundary(id);
    };
    for (std::size_t n = 0; n < entries.size(); ++n) {
        auto path = searchCorridor(lattice, entries[n], boundary,
                                   result.usage, config);
        if (!path.has_value()) {
            ++result.failedNets;
            metrics::count("corridor.failed_nets");
            continue;
        }
        for (std::uint64_t id : path->segments) {
            const std::uint32_t u = ++result.usage[id];
            result.maxSegmentUsage =
                std::max<std::size_t>(result.maxSegmentUsage, u);
        }
        result.paths[n] = std::move(*path);
    }
    result.maxCorridorWidthMm =
        static_cast<double>(result.maxSegmentUsage) * config.linePitchMm;
    metrics::count("corridor.nets_routed",
                   entries.size() - result.failedNets);
    return result;
}

CorridorDrcReport
checkCorridorDrc(const CorridorLattice &lattice,
                 const CorridorResult &result,
                 const std::vector<std::uint64_t> &entries,
                 const CorridorConfig &config)
{
    CorridorDrcReport report;
    const auto fail = [&report](std::string what) {
        report.clean = false;
        report.violations.push_back(std::move(what));
    };
    if (result.paths.size() != entries.size())
        fail("path count does not match net count");

    std::unordered_map<std::uint64_t, std::uint32_t> recount;
    const std::size_t nets =
        std::min(result.paths.size(), entries.size());
    for (std::size_t n = 0; n < nets; ++n) {
        const CorridorPath &path = result.paths[n];
        const std::string net = "net " + std::to_string(n);
        if (path.segments.empty()) {
            fail(net + ": unrouted");
            continue;
        }
        if (path.segments.front() != entries[n])
            fail(net + ": does not start at its entry segment");
        for (std::size_t k = 0; k + 1 < path.segments.size(); ++k) {
            const auto adj =
                lattice.adjacentSegments(path.segments[k]);
            if (std::find(adj.begin(), adj.end(),
                          path.segments[k + 1]) == adj.end()) {
                fail(net + ": leaves the corridor lattice between hops " +
                     std::to_string(k) + " and " + std::to_string(k + 1));
            }
        }
        if (!lattice.isBoundary(path.segments.back()))
            fail(net + ": ends inside the chip, not on the boundary");
        for (std::uint64_t id : path.segments) {
            if (id >= lattice.segmentCount()) {
                fail(net + ": references an invalid segment id");
                continue;
            }
            ++recount[id];
        }
    }
    if (recount != result.usage)
        fail("recorded segment usage does not match the routed paths");
    if (config.segmentCapacity > 0) {
        for (const auto &[id, u] : recount) {
            if (u > config.segmentCapacity) {
                fail("segment " + std::to_string(id) + " carries " +
                     std::to_string(u) + " nets over capacity " +
                     std::to_string(config.segmentCapacity));
            }
        }
    }
    std::sort(report.violations.begin(), report.violations.end());
    return report;
}

} // namespace youtiao
