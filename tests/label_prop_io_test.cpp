#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <map>
#include <set>

#include "analytics/label_propagation.hpp"
#include "gen/ssca2.hpp"
#include "gen/uniform.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "test_util.hpp"

namespace sge {
namespace {

// ---------- label propagation ----------

TEST(LabelPropagation, TwoCliquesSeparate) {
    const CsrGraph g = test::two_cliques(8);
    const CommunityResult r = label_propagation(g);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.num_communities, 2u);
    for (vertex_t v = 1; v < 8; ++v)
        EXPECT_EQ(r.community[v], r.community[0]);
    for (vertex_t v = 9; v < 16; ++v)
        EXPECT_EQ(r.community[v], r.community[8]);
    EXPECT_NE(r.community[0], r.community[8]);
}

TEST(LabelPropagation, CliquesWithWeakBridge) {
    // Two K6 joined by a single edge: LP must keep them apart.
    EdgeList edges(12);
    for (vertex_t base : {vertex_t{0}, vertex_t{6}})
        for (vertex_t a = base; a < base + 6; ++a)
            for (vertex_t b = a + 1; b < base + 6; ++b) edges.add(a, b);
    edges.add(5, 6);  // the bridge
    const CsrGraph g = csr_from_edges(edges);
    const CommunityResult r = label_propagation(g);
    EXPECT_EQ(r.num_communities, 2u);
    EXPECT_NE(r.community[0], r.community[11]);
}

TEST(LabelPropagation, IsolatedVerticesKeepOwnCommunities) {
    const CsrGraph g = csr_from_edges(EdgeList(5));
    const CommunityResult r = label_propagation(g);
    std::set<std::uint32_t> distinct(r.community.begin(), r.community.end());
    EXPECT_EQ(distinct.size(), 5u);
}

TEST(LabelPropagation, CommunitiesNeverSpanComponents) {
    UniformParams params;
    params.num_vertices = 1000;
    params.degree = 2;  // several components
    const CsrGraph g = csr_from_edges(generate_uniform(params));
    const CommunityResult r = label_propagation(g);
    // Any edge's endpoints are in the same component; communities refine
    // components, so a community id must map to a single component.
    // Verify via: for every edge, either same community or not — but
    // crucially two vertices in different components never share one.
    // Cheap check: flood components and compare.
    std::vector<std::uint32_t> comp(g.num_vertices(), ~0u);
    std::uint32_t comp_count = 0;
    std::vector<vertex_t> stack;
    for (vertex_t seed = 0; seed < g.num_vertices(); ++seed) {
        if (comp[seed] != ~0u) continue;
        comp[seed] = comp_count;
        stack.push_back(seed);
        while (!stack.empty()) {
            const vertex_t u = stack.back();
            stack.pop_back();
            for (const vertex_t w : g.neighbors(u)) {
                if (comp[w] != ~0u) continue;
                comp[w] = comp_count;
                stack.push_back(w);
            }
        }
        ++comp_count;
    }
    std::map<std::uint32_t, std::uint32_t> community_component;
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        const auto [it, inserted] =
            community_component.try_emplace(r.community[v], comp[v]);
        ASSERT_EQ(it->second, comp[v]) << "community spans components";
    }
    EXPECT_GE(r.num_communities, comp_count);
}

TEST(LabelPropagation, DeterministicPerSeed) {
    Ssca2Params params;
    params.num_vertices = 2000;
    params.seed = 4;
    const CsrGraph g = csr_from_edges(generate_ssca2(params));
    LabelPropagationOptions opts;
    opts.seed = 9;
    const CommunityResult a = label_propagation(g, opts);
    const CommunityResult b = label_propagation(g, opts);
    EXPECT_EQ(a.community, b.community);
    EXPECT_EQ(a.iterations, b.iterations);
}

TEST(LabelPropagation, FindsClusteredStructure) {
    // SSCA#2 is built from cliques: LP should find many communities,
    // far fewer than n, and they should be clique-ish (small).
    Ssca2Params params;
    params.num_vertices = 3000;
    params.max_clique_size = 10;
    const CsrGraph g = csr_from_edges(generate_ssca2(params));
    const CommunityResult r = label_propagation(g);
    EXPECT_GT(r.num_communities, 10u);
    EXPECT_LT(r.num_communities, g.num_vertices());
}

TEST(LabelPropagation, EmptyGraph) {
    const CommunityResult r = label_propagation(csr_from_edges(EdgeList(0)));
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.num_communities, 0u);
}

// ---------- weighted I/O ----------

class WeightedIoTest : public ::testing::Test {
  protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("sge_wio_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }
    std::string path(const char* name) const { return (dir_ / name).string(); }
    std::filesystem::path dir_;
};

TEST_F(WeightedIoTest, RoundTrip) {
    UniformParams params;
    params.num_vertices = 800;
    params.degree = 5;
    const WeightedCsrGraph g = with_random_weights(
        csr_from_edges(generate_uniform(params)), 1, 99, 7);

    write_weighted_csr(g, path("w.csr"));
    const WeightedCsrGraph loaded = read_weighted_csr(path("w.csr"));
    EXPECT_TRUE(g.graph() == loaded.graph());
    ASSERT_EQ(g.all_weights().size(), loaded.all_weights().size());
    for (std::size_t e = 0; e < g.all_weights().size(); ++e)
        ASSERT_EQ(g.all_weights()[e], loaded.all_weights()[e]);
}

TEST_F(WeightedIoTest, RejectsUnweightedMagic) {
    const CsrGraph g = test::path_graph(5);
    write_csr(g, path("plain.csr"));
    EXPECT_THROW(read_weighted_csr(path("plain.csr")), std::runtime_error);
}

TEST_F(WeightedIoTest, RejectsTruncation) {
    const WeightedCsrGraph g =
        with_random_weights(test::path_graph(100), 1, 9, 1);
    write_weighted_csr(g, path("t.csr"));
    const auto full = std::filesystem::file_size(path("t.csr"));
    std::filesystem::resize_file(path("t.csr"), full - 8);
    EXPECT_THROW(read_weighted_csr(path("t.csr")), std::runtime_error);
}

}  // namespace
}  // namespace sge
