#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "analytics/connected_components.hpp"
#include "analytics/level_histogram.hpp"
#include "analytics/shortest_path.hpp"
#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "graph/degree_stats.hpp"
#include "graph/io.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

using test::expect_equivalent;

// End-to-end: generate -> permute -> build -> traverse on the paper's
// emulated 4-socket EX -> validate -> analyze. This is the full pipeline
// every benchmark binary runs.
TEST(Integration, RmatPipelineOnEmulatedEx) {
    RmatParams params;
    params.scale = 13;
    params.num_edges = 1 << 16;
    params.seed = 2026;
    EdgeList edges = generate_rmat(params);
    permute_vertices(edges, 1);
    const CsrGraph g = csr_from_edges(edges);
    ASSERT_TRUE(g.well_formed());

    BfsOptions opts;
    opts.engine = BfsEngine::kMultiSocket;
    opts.threads = 16;
    opts.topology = Topology::nehalem_ex();
    opts.collect_stats = true;
    BfsRunner runner(opts);

    // Traverse from several random-ish roots, validating each.
    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;
    serial.collect_stats = true;
    for (const vertex_t root : {0u, 4097u, 8190u}) {
        const BfsResult r = runner.run(g, root);
        const auto report = validate_bfs_tree(g, root, r);
        ASSERT_TRUE(report.ok) << report.error;
        expect_equivalent(bfs(g, root, serial), r);

        // Stats must cover every level and show the double-check working:
        // strictly fewer atomics than checks on a graph this connected.
        ASSERT_EQ(r.level_stats.size(), r.num_levels);
        std::uint64_t checks = 0;
        std::uint64_t atomics = 0;
        for (const auto& s : r.level_stats) {
            checks += s.bitmap_checks;
            atomics += s.atomic_ops;
        }
        if (r.edges_traversed > 1000) {
            EXPECT_LT(atomics, checks);
        }
    }
}

TEST(Integration, SaveLoadTraverseMatchesInMemory) {
    UniformParams params;
    params.num_vertices = 5000;
    params.degree = 8;
    const CsrGraph g = csr_from_edges(generate_uniform(params));

    const auto dir = std::filesystem::temp_directory_path() /
                     ("sge_integ_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "u.csr").string();
    write_csr(g, path);
    const CsrGraph loaded = read_csr(path);
    std::filesystem::remove_all(dir);

    BfsOptions opts;
    opts.engine = BfsEngine::kBitmap;
    opts.threads = 4;
    opts.topology = Topology::emulate(1, 4, 1);
    expect_equivalent(bfs(g, 7, opts), bfs(loaded, 7, opts));
}

TEST(Integration, ComponentsThenPathWithinLargest) {
    UniformParams params;
    params.num_vertices = 4000;
    params.degree = 3;
    const CsrGraph g = csr_from_edges(generate_uniform(params));

    const ComponentsResult cc = connected_components(g);
    const std::uint32_t giant = cc.largest_component();
    ASSERT_GT(cc.largest_size(), 2000u);  // arity-6 undirected: giant exists

    // Pick two members of the giant component; a path must exist.
    vertex_t s = kInvalidVertex;
    vertex_t t = kInvalidVertex;
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        if (cc.component[v] != giant) continue;
        if (s == kInvalidVertex) {
            s = v;
        } else {
            t = v;  // keep overwriting: ends far apart in id space
        }
    }
    BfsOptions opts;
    opts.engine = BfsEngine::kMultiSocket;
    opts.threads = 8;
    opts.topology = Topology::nehalem_ep();
    const auto p = shortest_path(g, s, t, opts);
    ASSERT_TRUE(p.has_value());
    for (std::size_t i = 0; i + 1 < p->size(); ++i)
        ASSERT_TRUE(g.has_edge((*p)[i], (*p)[i + 1]));
}

TEST(Integration, EngineAgreementAcrossAllFourEnginesManyRoots) {
    RmatParams params;
    params.scale = 11;
    params.num_edges = 1 << 14;
    const CsrGraph g = csr_from_edges(generate_rmat(params));

    BfsOptions serial;
    serial.engine = BfsEngine::kSerial;

    BfsOptions naive;
    naive.engine = BfsEngine::kNaive;
    naive.threads = 3;
    naive.topology = Topology::emulate(1, 3, 1);
    BfsRunner naive_runner(naive);

    BfsOptions bitmap;
    bitmap.engine = BfsEngine::kBitmap;
    bitmap.threads = 5;
    bitmap.topology = Topology::emulate(1, 5, 1);
    BfsRunner bitmap_runner(bitmap);

    BfsOptions multi;
    multi.engine = BfsEngine::kMultiSocket;
    multi.threads = 6;
    multi.topology = Topology::emulate(3, 2, 1);
    BfsRunner multi_runner(multi);

    for (const vertex_t root : {1u, 100u, 2047u}) {
        const BfsResult expected = bfs(g, root, serial);
        expect_equivalent(expected, naive_runner.run(g, root));
        expect_equivalent(expected, bitmap_runner.run(g, root));
        expect_equivalent(expected, multi_runner.run(g, root));
    }
}

TEST(Integration, DegreeStatsMatchWorkloadFamilies) {
    UniformParams up;
    up.num_vertices = 1 << 12;
    up.degree = 8;
    const DegreeStats uniform = compute_degree_stats(
        csr_from_edges(generate_uniform(up)));

    RmatParams rp;
    rp.scale = 12;
    rp.num_edges = std::uint64_t{8} << 12;
    const DegreeStats rmat = compute_degree_stats(
        csr_from_edges(generate_rmat(rp)));

    // Uniform: tight around 16 (8 out + ~8 in, undirected). R-MAT: same
    // mean neighbourhood but a far heavier tail.
    EXPECT_GT(rmat.max_degree, 2 * uniform.max_degree);
    EXPECT_LT(uniform.max_degree, 64u);
}

}  // namespace
}  // namespace sge
