// The traversal phase, run on every workload's graph: every engine and
// backend traverses a seeded root set, each answer checked against the
// benchmark's own reference BFS. Also the rmat workload: ingest a
// Graph500 R-MAT graph, traverse it, then saturate a service over it.

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/bfs.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/paged_graph.hpp"

namespace e2e {

namespace {

using sge::BfsEngine;
using sge::BfsLevelStats;
using sge::BfsOptions;
using sge::BfsResult;
using sge::BfsRunner;
using sge::CompressedCsrGraph;
using sge::EdgeList;
using sge::PagedGraph;

enum class Backend { kPlain, kCompressed, kPaged };

struct Config {
    const char* name;
    BfsEngine engine;
    Backend backend;
    bool slow;  // takes TraversalPlan::slow_roots roots per round
};

// The traversal configs, in the order each round runs them. The slow
// engines scan the whole component whatever the root, so their rate
// barely depends on it and rmat gives them fewer roots per round.
constexpr Config kConfigs[] = {
    {"serial", BfsEngine::kSerial, Backend::kPlain, true},
    {"naive", BfsEngine::kNaive, Backend::kPlain, true},
    {"bitmap", BfsEngine::kBitmap, Backend::kPlain, true},
    {"multisocket", BfsEngine::kMultiSocket, Backend::kPlain, true},
    {"hybrid", BfsEngine::kHybrid, Backend::kPlain, false},
    {"hybrid.compressed", BfsEngine::kHybrid, Backend::kCompressed, false},
    {"hybrid.paged", BfsEngine::kHybrid, Backend::kPaged, false},
};

// Input make-up (README "Workloads and inputs").
constexpr std::uint32_t kRmatScale = 21;
constexpr std::uint32_t kRmatScaleSmall = 12;
constexpr std::size_t kRmatRoots = 16;
constexpr std::size_t kRmatSlowRoots = 2;
// Nominal measured seconds of one rmat round; a run makes round(--seconds
// / this) rounds, a number fixed in advance so that each root's sample
// count does not depend on how fast the host runs.
constexpr double kRmatRoundSeconds = 7.0;
constexpr std::uint64_t kMinLlcMultiple = 2;  // rmat CSR vs last-level cache
// The closed loop of rmat's service: waves of kServiceBatch roots, two
// waves' worth of callers outstanding, round(--seconds / the nominal
// seconds per wave) whole waves.
constexpr std::size_t kServiceBatch = 16;
constexpr double kServiceWaveSeconds = 2.5;

/// Sums over the traversals of one lane.
struct Tally {
    std::uint64_t traversals = 0;
    double seconds = 0;  // sum of per-traversal wall times
    double levels = 0;
    // level_stats sums (traced lanes only)
    double level_seconds = 0;
    double level_edges = 0;
    double barrier_ns = 0;
    double prefix_ns = 0;
    double max_thread_edges = 0;
    double atomic_ops = 0;
    double atomic_wins = 0;
    double remote_tuples = 0;
    double batches_pushed = 0;
    double batches_full = 0;
    double decode_ns = 0;
    double bytes_decoded = 0;

    void add(double t, const BfsResult& r, bool with_stats) {
        ++traversals;
        seconds += t;
        levels += r.num_levels;
        if (!with_stats) return;
        for (const BfsLevelStats& l : r.level_stats) {
            level_seconds += l.seconds;
            level_edges += static_cast<double>(l.edges_scanned);
            barrier_ns += static_cast<double>(l.barrier_wait_ns);
            prefix_ns += static_cast<double>(l.prefix_sum_ns);
            max_thread_edges += static_cast<double>(l.max_thread_edges);
            atomic_ops += static_cast<double>(l.atomic_ops);
            atomic_wins += static_cast<double>(l.atomic_wins);
            remote_tuples += static_cast<double>(l.remote_tuples);
            batches_pushed += static_cast<double>(l.batches_pushed);
            batches_full += static_cast<double>(
                l.batch_occupancy[sge::kBatchOccupancyBuckets - 1]);
            decode_ns += static_cast<double>(l.decode_ns);
            bytes_decoded += static_cast<double>(l.bytes_decoded);
        }
    }
};

/// One config's runner (untraced, or traced with collect_stats) and
/// what its traversals measured.
struct Lane {
    const Config* config;
    bool traced;
    std::unique_ptr<BfsRunner> runner;
    std::vector<std::size_t> root_index;     // into the phase's roots
    std::vector<std::vector<double>> times;  // per root: one traversal time per round
    Tally tally;
    BfsResult result{};

    void traverse(const CsrGraph& g, const CompressedCsrGraph& cg, const PagedGraph& pg,
                  vertex_t root) {
        switch (config->backend) {
            case Backend::kPlain: runner->run_into(result, g, root); break;
            case Backend::kCompressed: runner->run_into(result, cg, root); break;
            case Backend::kPaged: runner->run_into(result, pg, root); break;
        }
    }
};

/// PagedGraph I/O counters and major faults summed over traversals.
struct PagedDelta {
    double issued = 0, hits = 0, major_faults = 0;
    std::uint64_t issued0 = 0, hits0 = 0, majflt0 = 0;

    void begin(const PagedGraph& pg) {
        issued0 = pg.io_stats().prefetch_issued.load();
        hits0 = pg.io_stats().prefetch_hits.load();
        majflt0 = e2e::major_faults();
    }
    void end(const PagedGraph& pg) {
        issued += static_cast<double>(pg.io_stats().prefetch_issued.load() - issued0);
        hits += static_cast<double>(pg.io_stats().prefetch_hits.load() - hits0);
        major_faults += static_cast<double>(e2e::major_faults() - majflt0);
    }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Worker threads of a config's team. PagedGraph runs its own prefetch
/// thread beside the team, so the paged team is one thread smaller.
int team_size(const Config& c) {
    if (c.engine == BfsEngine::kSerial) return 1;
    return c.backend == Backend::kPaged ? kThreads - 1 : kThreads;
}

}  // namespace

std::vector<vertex_t> pick_roots(const CsrGraph& g, std::uint64_t seed, std::size_t count) {
    Rng rng(derive_seed(seed, 3));
    std::vector<vertex_t> roots;
    // Stratified by second-shell size: the vertices of the component
    // holding the highest-degree vertex (R-MAT's giant component; the
    // small ones would each give a near-zero rate), sorted by the summed
    // degree of their neighbours (the edges the second level scans), are
    // cut into `count` equal strata and root i is a seeded vertex of
    // stratum i. A hybrid traversal's rate varies threefold with the
    // root, as a function of that sum (it sets the level at which the
    // engine turns bottom-up), and barely between repeats of one root;
    // so every run traverses the same mix.
    vertex_t hub = 0;
    for (vertex_t v = 1; v < g.num_vertices(); ++v)
        if (g.degree(v) > g.degree(hub)) hub = v;
    const std::vector<level_t> giant = reference_bfs(g, hub);
    std::vector<std::pair<std::uint64_t, vertex_t>> candidates;
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        if (giant[v] == sge::kInvalidLevel) continue;
        std::uint64_t shell = 0;
        for (const vertex_t u : g.neighbors(v)) shell += g.degree(u);
        candidates.emplace_back(shell, v);
    }
    std::sort(candidates.begin(), candidates.end());
    const std::size_t total = candidates.size();
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t lo = i * total / count;
        const std::size_t hi = (i + 1) * total / count;
        roots.push_back(candidates[lo + rng.below(hi - lo)].second);
    }
    return roots;
}

Backends make_backends(const Settings& s, const CsrGraph& g, Tracer& tracer,
                       std::uint64_t parent) {
    Backends b;
    {
        Scope span(tracer, "graph.compress", parent);
        b.cg = sge::csr_compress(g);
        b.compress_s = span.stop();
    }
    {
        Scope span(tracer, "graph.spill", parent);
        sge::PagedOpenOptions oo;
        oo.owns_files = true;  // unlinked when the graph goes away
        b.pg = sge::make_paged(
            g, s.scratch_dir + "/spill_" + s.workload + "_" + std::to_string(s.seed), {}, oo);
        b.spill_s = span.stop();
    }
    return b;
}

double run_traversal_phase(const Settings& s, const CsrGraph& g, const Backends& b,
                           const std::vector<vertex_t>& roots, const TraversalPlan& plan,
                           Report& report, Tracer& tracer) {
    const CompressedCsrGraph& cg = b.cg;
    const PagedGraph& pg = b.pg;

    // ---- checks made apart from the library: reference BFS per root ----
    std::vector<std::vector<level_t>> reference(roots.size());
    std::vector<std::uint64_t> reached(roots.size()), arcs(roots.size());
    {
        Scope span(tracer, "check.reference_bfs");
        parallel_for(roots.size(), kThreads, [&](std::size_t i) {
            reference[i] = reference_bfs(g, roots[i], &reached[i], &arcs[i]);
        });
    }
    // TEPS counts the undirected edges of the root's component.
    std::vector<double> component_edges(roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
        component_edges[i] = static_cast<double>(arcs[i]) / 2.0;
        if (arcs[i] == 0) report.fail("root " + std::to_string(roots[i]) + " is isolated");
    }
    const vertex_t warm_root = roots.back();

    // ---- runners: one per config (two when tracing), built and warmed
    // up once; their teams park between turns, so at most kThreads
    // threads ever run at a time ----
    double setup_s = 0;
    std::vector<Lane> lanes;
    for (const Config& c : kConfigs) {
        for (const bool traced : {false, true}) {
            if (traced && !s.trace) continue;
            BfsOptions o;
            o.engine = c.engine;
            o.threads = team_size(c);
            if (c.engine == BfsEngine::kMultiSocket)
                o.topology = sge::Topology::emulate(2, (kThreads + 1) / 2, 1);
            o.collect_stats = traced;
            Scope span(tracer, std::string("core.") + c.name + ".setup");
            // The slow configs take every k-th root, so that theirs
            // span the strata too.
            const std::size_t count =
                c.slow ? std::min(plan.slow_roots, roots.size()) : roots.size();
            std::vector<std::size_t> index(count);
            for (std::size_t k = 0; k < count; ++k) index[k] = k * (roots.size() / count);
            Lane lane{&c, traced, std::make_unique<BfsRunner>(o), std::move(index),
                      std::vector<std::vector<double>>(count), {}};
            // Warm-up: prepares the runner's workspace (the serial
            // engine has none).
            if (c.engine != BfsEngine::kSerial) lane.traverse(g, cg, pg, warm_root);
            setup_s += span.stop();
            lanes.push_back(std::move(lane));
        }
    }

    // ---- measure: a fixed number of whole rounds; each round gives
    // every lane one turn over its roots ----
    OpCounts ops{"traversal"};
    double measured = 0;
    PagedDelta paged;
    for (std::size_t r = 0; r < plan.rounds; ++r) {
        Scope round_span(tracer, "core.round");
        for (Lane& lane : lanes) {
            const Config& c = *lane.config;
            for (std::size_t k = 0; k < lane.root_index.size(); ++k) {
                const std::size_t ri = lane.root_index[k];
                const vertex_t root = roots[ri];
                ++ops.attempted;
                const bool watch_paged = lane.traced && c.backend == Backend::kPaged;
                if (watch_paged) paged.begin(pg);
                const auto t0 = Clock::now();
                try {
                    lane.traverse(g, cg, pg, root);
                } catch (const std::exception& e) {
                    ++ops.failed;
                    std::fprintf(stderr, "e2e_bench: %s traversal from %u threw: %s\n",
                                 c.name, root, e.what());
                    continue;
                }
                const double t = seconds_since(t0);
                if (watch_paged) paged.end(pg);
                tracer.add(std::string("core.") + c.name + (lane.traced ? ".traced" : ".traverse"),
                           tracer.to_ns(t0), tracer.to_ns(t0) + static_cast<std::uint64_t>(t * 1e9),
                           round_span.id(), ri + 1);
                ++ops.completed;
                measured += t;
                lane.times[k].push_back(t);
                lane.tally.add(t, lane.result, lane.traced);

                Scope audit(tracer, "check.audit", round_span.id());
                if (lane.result.vertices_visited != reached[ri])
                    report.fail(std::string(c.name) + ": vertices_visited " +
                                std::to_string(lane.result.vertices_visited) +
                                " != reference " + std::to_string(reached[ri]));
                const std::string problem =
                    audit_tree(g, root, lane.result.parent, lane.result.level, reference[ri]);
                if (!problem.empty())
                    report.fail(std::string(c.name) + " root " + std::to_string(root) + ": " +
                                problem);
            }
        }
    }
    report.ops(ops);
    std::printf("traverse rounds=%zu measured_s=%.3f\n", plan.rounds, measured);

    // Graph500 harmonic mean over the lane's roots of each root's rate,
    // taken at plan.percentile of its times over the run's rounds.
    auto mteps = [&](const Lane& lane) {
        double inv = 0;
        for (std::size_t k = 0; k < lane.times.size(); ++k)
            inv += percentile(lane.times[k], plan.percentile) /
                   component_edges[lane.root_index[k]];
        return inv > 0 ? static_cast<double>(lane.times.size()) / inv * 1e-6 : 0.0;
    };
    double prepares = 0;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const Lane& lane = lanes[i];
        const Config& c = *lane.config;
        if (!lane.traced) {
            report.end_to_end(std::string("mteps.") + c.name, mteps(lane), "MTEPS");
            continue;
        }
        const Lane& plain = lanes[i - 1];  // the untraced lane of the same config
        const Tally& t = lane.tally;
        prepares += static_cast<double>(lane.runner->workspace_stats().prepares);
        const double n = static_cast<double>(std::max<std::uint64_t>(1, t.traversals));
        const double team = team_size(c);
        const std::string core = std::string("core.") + c.name;
        report.layer(core + ".traverse_s", t.seconds / n, "s");
        report.layer(core + ".edges_scanned", t.level_edges / n, "count");
        report.layer(core + ".levels", t.levels / n, "count");
        report.layer(core + ".us_per_level", ratio(t.seconds, t.levels) * 1e6, "us");
        if (c.engine != BfsEngine::kSerial) {  // no team, barriers or atomics
            report.layer(std::string("concurrency.") + c.name + ".barrier_wait_share",
                         ratio(t.barrier_ns, team * t.level_seconds * 1e9), "share");
            report.layer(core + ".prefix_sum_share",
                         ratio(t.prefix_ns, team * t.level_seconds * 1e9), "share");
            report.layer(core + ".edge_spread",
                         ratio(t.max_thread_edges * team, t.level_edges), "ratio");
            report.layer(core + ".atomic_waste",
                         t.atomic_ops > 0 ? 1.0 - t.atomic_wins / t.atomic_ops : 0.0, "share");
        }
        if (c.engine == BfsEngine::kMultiSocket) {
            report.layer(core + ".remote_tuples", t.remote_tuples / n, "count");
            report.layer(core + ".full_batch_share", ratio(t.batches_full, t.batches_pushed),
                         "share");
        }
        if (c.backend == Backend::kCompressed) {
            report.layer(core + ".decode_share",
                         ratio(t.decode_ns, team * t.level_seconds * 1e9), "share");
            report.layer(core + ".bytes_per_scanned_edge", ratio(t.bytes_decoded, t.level_edges),
                         "B");
        }
        if (c.backend == Backend::kPaged) {
            report.layer("graph.paged.prefetch_issued", paged.issued, "count");
            report.layer("graph.paged.prefetch_miss_share",
                         paged.issued > 0 ? 1.0 - paged.hits / paged.issued : 0.0, "share");
            report.layer("graph.paged.major_faults", paged.major_faults, "count");
        }
        report.layer(std::string("runtime.trace_overhead.") + c.name,
                     ratio(mteps(lane), mteps(plain)), "ratio");
    }
    report.layer("graph.csr_mb", static_cast<double>(g.memory_bytes()) / (1 << 20), "MB");
    report.layer("graph.bits_per_edge", cg.bits_per_edge(), "bit");
    report.layer("core.workspace.prepares", prepares, "count");
    return setup_s;
}

void run_rmat_workload(const Settings& s, const HostInfo& host, Report& report,
                       Tracer& tracer) {
    // ---- ingest: generate, permute, build, compress, spill ----
    Scope ingest(tracer, "setup.ingest");
    double generate_s = 0, permute_s = 0, build_s = 0;
    EdgeList edges;
    {
        Scope span(tracer, "gen.generate", ingest.id());
        edges = graph500_rmat(s.small ? kRmatScaleSmall : kRmatScale, s.seed);
        generate_s = span.stop();
    }
    const auto input_edges = static_cast<double>(edges.num_edges());
    {
        Scope span(tracer, "gen.permute", ingest.id());
        sge::permute_vertices(edges, derive_seed(s.seed, 2));
        permute_s = span.stop();
    }
    CsrGraph g;
    {
        Scope span(tracer, "graph.build", ingest.id());
        g = sge::csr_from_edges(edges);
        edges = EdgeList();
        build_s = span.stop();
    }
    const Backends b = make_backends(s, g, tracer, ingest.id());
    double setup_s = ingest.stop();

    // Guard: the graph must be well past the last-level cache.
    if (!s.small && host.llc_bytes > 0 && g.memory_bytes() < kMinLlcMultiple * host.llc_bytes)
        throw std::runtime_error(
            "rmat CSR (" + std::to_string(g.memory_bytes() >> 20) + " MB) is smaller than " +
            std::to_string(kMinLlcMultiple) + "x the LLC (" +
            std::to_string(host.llc_bytes >> 20) + " MB)");
    if (host.llc_bytes == 0)
        std::fprintf(stderr, "e2e_bench: LLC size unknown; cache guard skipped\n");

    // Each root's median time: the rate follows the host's memory
    // system, whose fast phases a best-of would pick up (README).
    const TraversalPlan plan{
        kRmatSlowRoots,
        static_cast<std::size_t>(std::max(1L, std::lround(s.seconds / kRmatRoundSeconds))), 50};
    setup_s += run_traversal_phase(s, g, b, pick_roots(g, s.seed, kRmatRoots), plan, report,
                                   tracer);
    const auto waves =
        static_cast<std::size_t>(std::max(1L, std::lround(s.seconds / kServiceWaveSeconds)));
    setup_s += run_static_service_phase(s, g, kServiceBatch, 2 * kServiceBatch,
                                        waves * kServiceBatch, report, tracer);

    report.end_to_end("setup_s", setup_s, "s");
    report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
    report.layer("gen.generate_s", generate_s, "s");
    report.layer("gen.permute_s", permute_s, "s");
    report.layer("gen.edges", input_edges, "count");
    report.layer("graph.build_s", build_s, "s");
    report.layer("graph.compress_s", b.compress_s, "s");
    report.layer("graph.spill_s", b.spill_s, "s");
}

}  // namespace e2e
