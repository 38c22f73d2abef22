#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/bfs.hpp"
#include "core/engine_common.hpp"
#include "core/validate.hpp"
#include "gen/grid.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

using detail::Direction;

std::uint64_t total_scanned(const BfsResult& r) {
    std::uint64_t total = 0;
    for (const auto& s : r.level_stats) total += s.edges_scanned;
    return total;
}

CsrGraph dense_uniform() {
    UniformParams params;
    params.num_vertices = 8192;
    params.degree = 16;
    params.seed = 4;
    return csr_from_edges(generate_uniform(params));
}

BfsOptions hybrid_options(int threads = 4) {
    BfsOptions opts;
    opts.engine = BfsEngine::kHybrid;
    opts.threads = threads;
    opts.topology = Topology::emulate(1, threads, 1);
    opts.collect_stats = true;
    return opts;
}

TEST(BfsHybrid, BottomUpSkipsMostEdgeWork) {
    // On a dense low-diameter graph the explosive middle levels run
    // bottom-up and stop at the first frontier parent: total scanned
    // edges must come out well below the top-down engine's (which scans
    // every edge of every visited vertex).
    const CsrGraph g = dense_uniform();

    BfsOptions bitmap = hybrid_options();
    bitmap.engine = BfsEngine::kBitmap;
    const BfsResult top_down = bfs(g, 0, bitmap);

    const BfsResult hybrid = bfs(g, 0, hybrid_options());
    EXPECT_TRUE(validate_bfs_tree(g, 0, hybrid).ok);
    EXPECT_EQ(hybrid.vertices_visited, top_down.vertices_visited);
    EXPECT_LT(total_scanned(hybrid), total_scanned(top_down) / 2)
        << "direction optimization saved no work";
    // The rate convention stays comparable.
    EXPECT_EQ(hybrid.edges_traversed, top_down.edges_traversed);
}

TEST(BfsHybrid, TinyAlphaDegeneratesToTopDown) {
    // The flip condition is next_frontier_degree > unexplored/alpha, so
    // alpha -> 0 drives the threshold to infinity: pure top-down.
    const CsrGraph g = dense_uniform();
    BfsOptions opts = hybrid_options();
    opts.hybrid_alpha = 1e-18;
    const BfsResult r = bfs(g, 0, opts);

    BfsOptions bitmap = hybrid_options();
    bitmap.engine = BfsEngine::kBitmap;
    const BfsResult top_down = bfs(g, 0, bitmap);

    EXPECT_EQ(total_scanned(r), total_scanned(top_down));
    test::expect_equivalent(top_down, r);
}

TEST(BfsHybrid, HighDiameterGraphStaysTopDown) {
    // A path's frontier never grows, so the traversal never leaves
    // top-down and scans each arc exactly once. (Without the growth
    // condition, the drained unexplored-edge pool would trigger useless
    // O(n) bottom-up sweeps near the tail.)
    const CsrGraph g = test::path_graph(2000);
    const BfsResult r = bfs(g, 0, hybrid_options());
    EXPECT_TRUE(validate_bfs_tree(g, 0, r).ok);
    EXPECT_EQ(r.num_levels, 2000u);
    EXPECT_EQ(total_scanned(r), 2u * 1999);
}

TEST(BfsHybrid, TinyAlphaOnPathScansEachArcOnce) {
    const CsrGraph g = test::path_graph(2000);
    BfsOptions opts = hybrid_options();
    opts.hybrid_alpha = 1e-18;  // pin top-down
    const BfsResult r = bfs(g, 0, opts);
    EXPECT_EQ(total_scanned(r), 2u * 1999);
}

TEST(BfsHybrid, AggressiveAlphaStillCorrect) {
    const CsrGraph g = dense_uniform();
    BfsOptions opts = hybrid_options();
    opts.hybrid_alpha = 1e18;  // flip to bottom-up immediately
    opts.hybrid_beta = 1e18;   // and never flip back (threshold n/beta -> 0)
    const BfsResult r = bfs(g, 0, opts);
    EXPECT_TRUE(validate_bfs_tree(g, 0, r).ok);

    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    test::expect_equivalent(bfs(g, 0, serial), r);
}

TEST(BfsHybrid, GridScansEachArcOnce) {
    // A grid's frontier grows for at most width + height levels and
    // never carries enough edges to flip bottom-up; its shrinking tail
    // drains the unexplored pool but must stay top-down, so the
    // traversal scans exactly the 2m arcs, from a corner and from the
    // centre.
    for (const std::uint32_t side : {64u, 256u}) {
        GridParams params;
        params.width = side;
        params.height = side;
        const CsrGraph g = csr_from_edges(generate_grid(params));
        for (const vertex_t root : {vertex_t{0}, (side / 2) * side + side / 2}) {
            const BfsResult r = bfs(g, root, hybrid_options());
            EXPECT_EQ(r.vertices_visited, g.num_vertices());
            EXPECT_EQ(total_scanned(r), g.num_edges())
                << side << "x" << side << " grid, root " << root;
        }
    }
}

/// Permuted Graph500 R-MAT (A=.57, B=.19, C=.19, no noise, edge
/// factor 16).
CsrGraph graph500_rmat(std::uint32_t scale, std::uint64_t seed) {
    RmatParams params;
    params.scale = scale;
    params.num_edges = std::uint64_t{16} << scale;
    params.a = 0.57;
    params.b = 0.19;
    params.c = 0.19;
    params.d = 0.05;
    params.noise = 0.0;
    params.seed = seed;
    EdgeList edges = generate_rmat(params);
    permute_vertices(edges, seed + 1);
    return csr_from_edges(edges);
}

/// `count` roots from the component of the highest-degree vertex,
/// stratified by the summed degree of their neighbours (the edges the
/// second level scans): the candidates, sorted by that sum, are cut
/// into `count` equal strata and root i is the middle of stratum i.
std::vector<vertex_t> stratified_roots(const CsrGraph& g, std::size_t count) {
    vertex_t hub = 0;
    for (vertex_t v = 1; v < g.num_vertices(); ++v)
        if (g.degree(v) > g.degree(hub)) hub = v;
    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    const BfsResult giant = bfs(g, hub, serial);
    std::vector<std::pair<std::uint64_t, vertex_t>> candidates;
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        if (giant.parent[v] == kInvalidVertex) continue;
        std::uint64_t shell = 0;
        for (const vertex_t u : g.neighbors(v)) shell += g.degree(u);
        candidates.emplace_back(shell, v);
    }
    std::sort(candidates.begin(), candidates.end());
    std::vector<vertex_t> roots;
    for (std::size_t i = 0; i < count; ++i)
        roots.push_back(
            candidates[(2 * i + 1) * candidates.size() / (2 * count)].second);
    return roots;
}

TEST(BfsHybrid, RmatSwitchesBottomUpWithoutDelay) {
    // Whatever the size of the root's second shell, the frontier that
    // explodes is swept bottom-up: a flip one level late scans most of
    // the giant component's edges top-down. Every stratum of roots must
    // scan at most 0.15x the top-down engine's edges.
    const CsrGraph g = graph500_rmat(16, 7);
    BfsOptions bitmap = hybrid_options();
    bitmap.engine = BfsEngine::kBitmap;
    BfsRunner top_down(bitmap);
    BfsRunner hybrid(hybrid_options());
    for (const vertex_t root : stratified_roots(g, 16)) {
        const BfsResult td = top_down.run(g, root);
        const BfsResult h = hybrid.run(g, root);
        test::expect_equivalent(td, h);
        EXPECT_LE(static_cast<double>(total_scanned(h)),
                  0.15 * static_cast<double>(total_scanned(td)))
            << "root " << root << " (degree " << g.degree(root) << ")";
    }
}

struct DirectionCase {
    const char* what;
    Direction current;
    detail::LevelCounts counts;
    Direction expected;
};

TEST(BfsHybrid, DirectionRuleTable) {
    // n = 2^21 (n/beta = 87381 at beta = 24), alpha = 14.
    constexpr std::uint64_t n = std::uint64_t{1} << 21;
    constexpr Direction kTd = Direction::kTopDown;
    constexpr Direction kBu = Direction::kBottomUp;
    const DirectionCase cases[] = {
        {"narrow growing frontier whose edges exceed m_u/alpha flips",
         kTd, {300, 60'000, 8'000'000, 50'000'000, n}, kBu},
        {"growing frontier with too few edges stays top-down",
         kTd, {300, 60'000, 3'000'000, 50'000'000, n}, kTd},
        {"shrinking tail with a drained edge pool stays top-down",
         kTd, {100, 90, 360, 1'000, n}, kTd},
        {"level-width tail with a drained edge pool stays top-down",
         kTd, {100, 100, 400, 1'000, n}, kTd},
        {"bottom-up stays while the frontier grows, even below n/beta",
         kBu, {1'000, 5'000, 40'000, 1'000'000, n}, kBu},
        {"bottom-up stays while a shrinking frontier is above n/beta",
         kBu, {1'000'000, 200'000, 2'000'000, 3'000'000, n}, kBu},
        {"bottom-up returns once the frontier shrinks below n/beta",
         kBu, {1'000'000, 20'000, 200'000, 300'000, n}, kTd},
    };
    for (const DirectionCase& c : cases)
        EXPECT_EQ(detail::next_direction(c.current, c.counts, 14.0, 24.0),
                  c.expected)
            << c.what;
}

TEST(BfsHybrid, RmatFromHubAndFromLeaf) {
    RmatParams params;
    params.scale = 13;
    params.num_edges = 1 << 17;
    params.seed = 6;
    const CsrGraph g = csr_from_edges(generate_rmat(params));

    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;

    // Hub-ish root (id 0 pre-permutation is the heaviest quadrant) and
    // an arbitrary low-degree root.
    for (const vertex_t root : {vertex_t{0}, vertex_t{4099}}) {
        if (g.degree(root) == 0) continue;
        const BfsResult r = bfs(g, root, hybrid_options(8));
        EXPECT_TRUE(validate_bfs_tree(g, root, r).ok);
        test::expect_equivalent(bfs(g, root, serial), r);
    }
}

TEST(BfsHybrid, DisconnectedGraph) {
    const CsrGraph g = test::two_cliques(32);
    const BfsResult r = bfs(g, 5, hybrid_options());
    EXPECT_EQ(r.vertices_visited, 32u);
    EXPECT_TRUE(validate_bfs_tree(g, 5, r).ok);
}

TEST(BfsHybrid, RepeatedRunsAgree) {
    const CsrGraph g = dense_uniform();
    BfsRunner runner(hybrid_options(8));
    const BfsResult first = runner.run(g, 9);
    for (int i = 0; i < 3; ++i)
        test::expect_equivalent(first, runner.run(g, 9));
}

}  // namespace
}  // namespace sge
