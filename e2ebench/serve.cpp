// The serve workload: the traversal phase on a small R-MAT graph, then a
// live GraphService over a VersionedGraphStore holding it. Closed-loop
// segments measure saturated throughput; open-loop segments, interleaved
// with them, send seeded Poisson queries beside a stream of mutation
// batches. Every answer is checked; a seeded sample is checked against
// the benchmark's own replay of the mutation log. Also the closed loop
// the rmat workload runs against a service over its static graph.

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "gen/permute.hpp"
#include "graph/builder.hpp"
#include "service/graph_service.hpp"
#include "stream/versioned_store.hpp"

namespace e2e {

namespace {

using sge::EdgeList;
using sge::MutationBatch;
using sge::VersionedGraphStore;
using sge::service::GraphService;
using sge::service::Outcome;
using sge::service::QueryResult;
using sge::service::ServiceOptions;

// Input and traffic make-up (README "Inputs" and "Traffic").
constexpr std::uint32_t kScale = 15;
constexpr std::uint32_t kScaleSmall = 11;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kClosedCallers = 128;   // two full 64-root waves queued
constexpr double kClosedShare = 0.25;         // of --seconds; the rest is open loop
constexpr std::size_t kCycles = 3;            // closed/open segment pairs per run
constexpr double kQueryRate = 80.0;           // open-loop queries per second
constexpr double kMutationRate = 6.0;         // open-loop mutation batches per second
constexpr std::size_t kBatchInserts = 224;
constexpr std::size_t kBatchRemoves = 32;
constexpr std::size_t kMinTailQueries = 200;  // per segment: a p95 with 10 samples beyond it
constexpr std::size_t kClosedSamples = 2;
constexpr std::size_t kOpenSamples = 6;
// The traversal phase: its roots (the slow engines take a quarter of
// them) and the nominal seconds of one of its rounds; it runs
// round(--seconds / that) rounds.
constexpr std::size_t kTraverseRoots = 64;
constexpr double kTraverseRoundSeconds = 2.0;

enum class Kind { kQuery, kMutation };

struct Event {
    Kind kind;
    double due_s;  // from the open-loop start
    vertex_t root = 0;
    std::size_t batch = 0;  // index into the mutation log
};

/// One submitted request, from the benchmark's side.
struct Pending {
    Kind kind = Kind::kQuery;
    std::uint64_t request_id = 0;
    std::size_t index = 0;  // query or batch index within its phase
    bool sampled = false;
    int segment = -1;  // open-loop segment; -1 for the closed loop
    Clock::time_point due{};
    Clock::time_point submitted{};
    std::future<QueryResult> future;
};

/// What the benchmark keeps of one resolved request.
struct Answer {
    Kind kind;
    int segment;
    Outcome outcome;
    double latency_s;  // due -> answer
    double wait_s;
    double run_s;
    std::uint64_t version;
    std::size_t index;
};

struct Sample {
    vertex_t root;
    std::uint64_t version;
    std::vector<level_t> level;
};

/// The benchmark's own model of the live graph: the initial CSR plus
/// materialized rows for every vertex a mutation touched. Mirrors the
/// store's documented semantics: undirected multiset edges, a remove
/// cancels a pending insert of the same edge within its batch, and
/// otherwise erases one existing copy.
class ReplayGraph {
  public:
    explicit ReplayGraph(const CsrGraph& base)
        : base_(base), touched_(base.num_vertices(), 0) {}

    void apply(const MutationBatch& batch) {
        std::vector<char> cancelled(batch.ops.size(), 0);
        std::unordered_map<std::uint64_t, std::vector<std::size_t>> pending;
        for (std::size_t i = 0; i < batch.ops.size(); ++i) {
            const sge::EdgeOp& op = batch.ops[i];
            const std::uint64_t key = edge_key(op.u, op.v);
            if (op.kind == sge::EdgeOp::Kind::kInsert) {
                pending[key].push_back(i);
            } else if (auto it = pending.find(key);
                       it != pending.end() && !it->second.empty()) {
                cancelled[it->second.back()] = 1;
                cancelled[i] = 1;
                it->second.pop_back();
            }
        }
        for (std::size_t i = 0; i < batch.ops.size(); ++i) {
            if (cancelled[i]) continue;
            const sge::EdgeOp& op = batch.ops[i];
            if (op.kind == sge::EdgeOp::Kind::kInsert) {
                row(op.u).push_back(op.v);
                if (op.u != op.v) row(op.v).push_back(op.u);
            } else if (erase_one(op.u, op.v)) {
                if (op.u != op.v) erase_one(op.v, op.u);
            }
        }
    }

    template <class Fn>
    void for_each(vertex_t v, Fn&& fn) const {
        if (touched_[v]) {
            for (const vertex_t w : rows_.at(v)) fn(w);
        } else {
            for (const vertex_t w : base_.neighbors(v)) fn(w);
        }
    }

    [[nodiscard]] std::vector<level_t> bfs(vertex_t root) const {
        return reference_bfs(base_.num_vertices(), root,
                             [this](vertex_t v, auto&& fn) { for_each(v, fn); });
    }

    /// Empty when `snapshot` holds exactly this model's edge multiset.
    [[nodiscard]] std::string compare(const CsrGraph& snapshot) const {
        const vertex_t n = base_.num_vertices();
        if (snapshot.num_vertices() != n) return "vertex count differs";
        std::vector<vertex_t> mine;
        for (vertex_t v = 0; v < n; ++v) {
            const auto theirs = snapshot.neighbors(v);
            mine.clear();
            for_each(v, [&mine](vertex_t w) { mine.push_back(w); });
            std::sort(mine.begin(), mine.end());
            std::vector<vertex_t> sorted_theirs(theirs.begin(), theirs.end());
            std::sort(sorted_theirs.begin(), sorted_theirs.end());
            if (mine != sorted_theirs)
                return "row of vertex " + std::to_string(v) + " differs";
        }
        return {};
    }

  private:
    static std::uint64_t edge_key(vertex_t u, vertex_t v) {
        const vertex_t lo = std::min(u, v), hi = std::max(u, v);
        return (static_cast<std::uint64_t>(lo) << 32) | hi;
    }

    std::vector<vertex_t>& row(vertex_t v) {
        if (!touched_[v]) {
            const auto base_row = base_.neighbors(v);
            rows_[v].assign(base_row.begin(), base_row.end());
            touched_[v] = 1;
        }
        return rows_[v];
    }

    bool erase_one(vertex_t u, vertex_t v) {
        auto& r = row(u);
        const auto it = std::find(r.begin(), r.end(), v);
        if (it == r.end()) return false;
        r.erase(it);
        return true;
    }

    const CsrGraph& base_;
    std::vector<std::uint8_t> touched_;
    std::unordered_map<vertex_t, std::vector<vertex_t>> rows_;
};

/// n sorted arrival times of a Poisson process conditioned on n
/// arrivals in [0, span): order statistics of uniforms.
std::vector<double> poisson_times(Rng& rng, std::size_t n, double span) {
    std::vector<double> t(n);
    for (double& x : t) x = rng.unit() * span;
    std::sort(t.begin(), t.end());
    return t;
}

vertex_t random_root(Rng& rng, const CsrGraph& g) {
    for (;;) {
        const auto v = static_cast<vertex_t>(rng.below(g.num_vertices()));
        if (g.degree(v) > 0) return v;
    }
}

double ms(double seconds) { return seconds * 1e3; }

/// Checks one answered query: n levels, root at level 0, and
/// vertices_visited equal to the reached count. Empty when it holds.
std::string answer_problem(const QueryResult& r, vertex_t n) {
    if (r.level.size() != n) return "answer has " + std::to_string(r.level.size()) + " levels";
    if (r.level[r.root] != 0) return "root level is not 0";
    std::uint64_t reached = 0;
    for (const level_t l : r.level) reached += (l != sge::kInvalidLevel);
    if (reached != r.vertices_visited)
        return "vertices_visited " + std::to_string(r.vertices_visited) + " != reached " +
               std::to_string(reached);
    return {};
}

/// Wave counters of a service over one phase: the values at its start
/// are subtracted from those at its end.
struct WaveCounters {
    double completed = 0, batched = 0, waves = 0, wave_roots = 0;

    static WaveCounters read(const GraphService& service) {
        const auto& c = service.counters();
        return {static_cast<double>(c.completed.load()), static_cast<double>(c.batched.load()),
                static_cast<double>(c.waves.load()), static_cast<double>(c.wave_roots.load())};
    }
    void add_since(const WaveCounters& start, const GraphService& service) {
        const WaveCounters now = read(service);
        completed += now.completed - start.completed;
        batched += now.batched - start.batched;
        waves += now.waves - start.waves;
        wave_roots += now.wave_roots - start.wave_roots;
    }
};

/// The closed-loop service metrics both workloads report.
void report_closed_loop(Report& report, double start_s, const std::vector<double>& wait_s,
                        const std::vector<double>& run_s, const WaveCounters& w) {
    report.layer("service.start_s", start_s, "s");
    report.layer("service.wait_ms_p50", ms(percentile(wait_s, 50)), "ms");
    report.layer("service.run_ms_p50", ms(percentile(run_s, 50)), "ms");
    report.layer("service.batched_share", w.completed > 0 ? w.batched / w.completed : 0.0,
                 "share");
    report.layer("service.roots_per_wave", w.waves > 0 ? w.wave_roots / w.waves : 0.0, "count");
    report.layer("service.waves", w.waves, "count");
}

/// One set-up: the graph, the store seeded with it, and the started
/// service, with each step's time.
struct Live {
    CsrGraph base;
    Backends backends;
    std::unique_ptr<VersionedGraphStore> store;
    std::unique_ptr<GraphService> service;  // declared after the store it uses
    double input_edges = 0;
    double generate_s = 0, permute_s = 0, build_s = 0, store_s = 0, start_s = 0, total_s = 0;
    bool warm_up_answered = false;
};

Live set_up(const Settings& s, Tracer& tracer) {
    Live live;
    Scope total(tracer, "setup");
    EdgeList edges;
    {
        Scope span(tracer, "gen.generate", total.id());
        edges = graph500_rmat(s.small ? kScaleSmall : kScale, s.seed);
        live.generate_s = span.stop();
    }
    live.input_edges = static_cast<double>(edges.num_edges());
    {
        Scope span(tracer, "gen.permute", total.id());
        sge::permute_vertices(edges, derive_seed(s.seed, 2));
        live.permute_s = span.stop();
    }
    {
        Scope span(tracer, "graph.build", total.id());
        live.base = sge::csr_from_edges(edges);
        live.build_s = span.stop();
    }
    edges = EdgeList();
    live.backends = make_backends(s, live.base, tracer, total.id());
    {
        Scope span(tracer, "stream.store", total.id());
        live.store = std::make_unique<VersionedGraphStore>(live.base);
        live.store_s = span.stop();
    }
    {
        Scope span(tracer, "service.start", total.id());
        // One worker; its team leaves one CPU to the benchmark's own
        // generator and collector, so the load does not take a core
        // from the service's level barriers.
        ServiceOptions so;
        so.workers = 1;
        so.bfs.threads = kThreads - 1;
        live.service = std::make_unique<GraphService>(*live.store, so);
        // One query through the service: the worker's warm-up traversal
        // and first wave happen here, not in the measured phases.
        Rng rng(derive_seed(s.seed, 5));
        live.warm_up_answered =
            live.service->submit(random_root(rng, live.base)).result.get().answered();
        live.start_s = span.stop();
    }
    live.total_s = total.stop();
    return live;
}

}  // namespace

void run_serve_workload(const Settings& s, Report& report, Tracer& tracer) {
    // ---- set-up takes well under a second, so it runs kSetups times
    // (each replacing the last) and reports medians ----
    Live live;
    std::vector<double> generate_s, permute_s, build_s, compress_s, spill_s, store_s, start_s,
        setup_total;
    for (std::size_t i = 0; i < kSetups; ++i) {
        live.service.reset();  // stop the previous repetition before its store goes
        live.store.reset();
        live.backends = Backends();  // the next spill reuses its file names
        live = set_up(s, tracer);
        if (!live.warm_up_answered) report.fail("warm-up query was not answered");
        generate_s.push_back(live.generate_s);
        permute_s.push_back(live.permute_s);
        build_s.push_back(live.build_s);
        compress_s.push_back(live.backends.compress_s);
        spill_s.push_back(live.backends.spill_s);
        store_s.push_back(live.store_s);
        start_s.push_back(live.start_s);
        setup_total.push_back(live.total_s);
    }
    const CsrGraph& base = live.base;
    VersionedGraphStore* const store = live.store.get();
    GraphService* const service = live.service.get();
    const vertex_t n = base.num_vertices();

    // ---- the traversal phase on the initial graph, before the service
    // phase; the service's worker stays idle meanwhile ----
    // Each root's fastest time: a traversal here lasts 0.1-3 ms, so one
    // preemption of a team thread stalls its spin barriers and can
    // double it; noise only adds time (README "Rounds and estimators").
    const TraversalPlan plan{
        kTraverseRoots / 4,
        static_cast<std::size_t>(std::max(1L, std::lround(s.seconds / kTraverseRoundSeconds))), 0};
    const double traverse_setup_s = run_traversal_phase(
        s, base, live.backends, pick_roots(base, s.seed, kTraverseRoots), plan, report, tracer);

    // ---- inputs from the seed: roots, mutation log, schedule ----
    Rng rng(derive_seed(s.seed, 4));
    const double open_span = s.seconds * (1.0 - kClosedShare);
    const auto n_queries = static_cast<std::size_t>(kQueryRate * open_span);
    const auto n_batches =
        std::max<std::size_t>(2, static_cast<std::size_t>(kMutationRate * open_span));
    if (!s.small && n_queries / kCycles < kMinTailQueries)
        throw std::runtime_error("--seconds too short: each open-loop segment needs at least " +
                                 std::to_string(kMinTailQueries) + " queries");
    std::vector<MutationBatch> log(n_batches);
    for (MutationBatch& b : log) {
        for (std::size_t i = 0; i < kBatchInserts; ++i) {
            const auto u = static_cast<vertex_t>(rng.below(n));
            auto v = static_cast<vertex_t>(rng.below(n - 1));
            if (v >= u) ++v;  // no self-loops
            b.insert(u, v);
        }
        for (std::size_t i = 0; i < kBatchRemoves; ++i) {
            const vertex_t u = random_root(rng, base);
            const auto row = base.neighbors(u);
            b.remove(u, row[rng.below(row.size())]);
        }
    }
    std::vector<Event> schedule;
    {
        const auto qt = poisson_times(rng, n_queries, open_span);
        for (double t : qt) schedule.push_back({Kind::kQuery, t, random_root(rng, base), 0});
        // The first batch is due at the start of the open loop, so every
        // run serves queries on mutated versions.
        auto mt = poisson_times(rng, n_batches - 1, open_span);
        mt.insert(mt.begin(), 0.0);
        for (std::size_t i = 0; i < mt.size(); ++i)
            schedule.push_back({Kind::kMutation, mt[i], 0, i});
        std::stable_sort(schedule.begin(), schedule.end(),
                         [](const Event& a, const Event& b) { return a.due_s < b.due_s; });
    }
    std::vector<vertex_t> closed_roots(4096);
    for (vertex_t& r : closed_roots) r = random_root(rng, base);
    auto in = [](const std::vector<std::size_t>& v, std::size_t x) {
        return std::find(v.begin(), v.end(), x) != v.end();
    };
    // Distinct sampled indices: closed-loop queries, and open-loop
    // queries from the second half of the schedule.
    std::vector<std::size_t> closed_sample, open_sample;
    while (closed_sample.size() < kClosedSamples) {
        const std::size_t i = rng.below(kClosedCallers);
        if (!in(closed_sample, i)) closed_sample.push_back(i);
    }
    while (open_sample.size() < kOpenSamples) {
        const std::size_t i = n_queries / 2 + rng.below(n_queries - n_queries / 2);
        if (!in(open_sample, i)) open_sample.push_back(i);
    }

    // ---- answer handling (checks every answer; keeps the sample). It
    // runs on one thread at a time: the main thread in closed-loop
    // segments, the collector in open-loop ones (joined before the next
    // segment starts) ----
    std::vector<Answer> answers;
    std::vector<Sample> samples;
    std::size_t live_snapshots_max = 0;
    auto handle = [&](Pending& p) {
        QueryResult r = p.future.get();
        const double to_submit =
            std::chrono::duration<double>(p.submitted - p.due).count();
        Answer a{p.kind, p.segment, r.outcome, to_submit + r.wait_seconds + r.run_seconds,
                 r.wait_seconds, r.run_seconds, r.snapshot_version, p.index};
        if (tracer.on()) {
            const std::uint64_t t0 = tracer.to_ns(p.submitted);
            const auto wait_ns = static_cast<std::uint64_t>(r.wait_seconds * 1e9);
            const auto run_ns = static_cast<std::uint64_t>(r.run_seconds * 1e9);
            const std::uint64_t id = tracer.add(
                p.kind == Kind::kQuery ? "service.query" : "stream.mutation", t0,
                t0 + wait_ns + run_ns, 0, p.request_id, Tracer::kRequests);
            tracer.add("service.wait", t0, t0 + wait_ns, id, p.request_id, Tracer::kRequests);
            tracer.add(p.kind == Kind::kQuery ? "service.run" : "stream.apply", t0 + wait_ns,
                       t0 + wait_ns + run_ns, id, p.request_id, Tracer::kRequests);
        }
        if (p.kind == Kind::kQuery && r.answered()) {
            const std::string problem = answer_problem(r, n);
            if (!problem.empty()) report.fail("query " + std::to_string(p.request_id) + ": " + problem);
        }
        answers.push_back(a);
        live_snapshots_max = std::max(live_snapshots_max, store->live_snapshots());
        if (p.sampled && r.answered())
            samples.push_back({r.root, r.snapshot_version, std::move(r.level)});
    };

    std::uint64_t next_request = 1;
    OpCounts queries{"query"};
    OpCounts mutations{"mutation"};

    // ---- kCycles cycles of a closed-loop segment then an open-loop
    // segment, so that both phases sample the whole run ----
    std::size_t closed_issued = 0;
    double closed_seconds = 0;
    WaveCounters closed_waves;
    // Closed loop: kClosedCallers outstanding queries; each answer is
    // replaced until the segment's time is up, then the rest drain.
    auto closed_segment = [&](double seconds) {
        Scope span(tracer, "service.closed_loop");
        std::deque<Pending> outstanding;
        auto submit = [&] {
            const vertex_t root = closed_roots[closed_issued % closed_roots.size()];
            Pending p{Kind::kQuery, next_request++, closed_issued,
                      in(closed_sample, closed_issued), -1, Clock::now(), Clock::now(), {}};
            p.future = service->submit(root).result;
            ++closed_issued;
            outstanding.push_back(std::move(p));
        };
        const WaveCounters start = WaveCounters::read(*service);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kClosedCallers; ++i) submit();
        while (!outstanding.empty()) {
            handle(outstanding.front());
            outstanding.pop_front();
            if (seconds_since(t0) < seconds) submit();
        }
        closed_seconds += seconds_since(t0);
        closed_waves.add_since(start, *service);
    };

    // Open loop: the generator (this thread) submits each scheduled
    // event at its due time; a collector thread takes the answers.
    double generator_lag_max = 0;
    std::size_t queue_depth_max = 0;
    std::size_t query_index = 0;
    auto open_segment = [&](int segment, std::size_t first, std::size_t last, double offset_s) {
        Scope span(tracer, "service.open_loop");
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<Pending> handoff;
        bool done = false;
        std::thread collector([&] {
            for (;;) {
                Pending p;
                {
                    std::unique_lock lock(mutex);
                    cv.wait(lock, [&] { return done || !handoff.empty(); });
                    if (handoff.empty()) return;
                    p = std::move(handoff.front());
                    handoff.pop_front();
                }
                handle(p);
            }
        });
        auto finish = [&] {
            {
                std::lock_guard lock(mutex);
                done = true;
            }
            cv.notify_one();
            collector.join();
        };
        const auto t0 = Clock::now();
        try {
            for (std::size_t i = first; i < last; ++i) {
                const Event& e = schedule[i];
                const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(e.due_s - offset_s));
                std::this_thread::sleep_until(due);
                Pending p{e.kind, next_request++, 0, false, segment, due, Clock::now(), {}};
                if (e.kind == Kind::kQuery) {
                    p.index = query_index;
                    p.sampled = in(open_sample, query_index);
                    ++query_index;
                    p.future = service->submit(e.root).result;
                } else {
                    p.index = e.batch;
                    p.future = service->submit_mutation(log[e.batch]).result;
                }
                generator_lag_max = std::max(
                    generator_lag_max, std::chrono::duration<double>(p.submitted - due).count());
                queue_depth_max = std::max(queue_depth_max, service->queue_depth());
                {
                    std::lock_guard lock(mutex);
                    handoff.push_back(std::move(p));
                }
                cv.notify_one();
            }
        } catch (...) {
            finish();
            throw;
        }
        finish();
    };

    std::size_t next_event = 0;
    for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
        closed_segment(s.seconds * kClosedShare / kCycles);
        const double begin_s = open_span * static_cast<double>(cycle) / kCycles;
        const double end_s = open_span * static_cast<double>(cycle + 1) / kCycles;
        std::size_t last = next_event;
        while (last < schedule.size() && (cycle + 1 == kCycles || schedule[last].due_s < end_s))
            ++last;
        open_segment(static_cast<int>(cycle), next_event, last, begin_s);
        next_event = last;
    }
    const double saturated_qps = static_cast<double>(closed_issued) / closed_seconds;
    service->stop();

    // ---- counts and latencies ----
    std::vector<double> c_wait, c_run, q_lat, m_lat, m_wait, m_run;
    std::vector<std::vector<double>> q_lat_segment(kCycles);
    std::vector<std::pair<std::uint64_t, std::size_t>> applied;  // (version, batch)
    for (const Answer& a : answers) {
        OpCounts& c = a.kind == Kind::kQuery ? queries : mutations;
        ++c.attempted;
        switch (a.outcome) {
            case Outcome::kCompleted: ++c.completed; break;
            case Outcome::kDegraded: ++c.degraded; break;
            case Outcome::kShed: ++c.shed; break;
            case Outcome::kCancelled: ++c.cancelled; break;
            case Outcome::kFailed: ++c.failed; break;
        }
        const bool ok = a.outcome == Outcome::kCompleted || a.outcome == Outcome::kDegraded;
        if (a.kind == Kind::kMutation && ok) applied.emplace_back(a.version, a.index);
        if (!ok) continue;
        if (a.segment < 0) {  // the closed loop holds queries only
            c_wait.push_back(a.wait_s);
            c_run.push_back(a.run_s);
        } else if (a.kind == Kind::kQuery) {
            q_lat.push_back(a.latency_s);
            q_lat_segment[static_cast<std::size_t>(a.segment)].push_back(a.latency_s);
        } else {
            m_lat.push_back(a.latency_s);
            m_wait.push_back(a.wait_s);
            m_run.push_back(a.run_s);
        }
    }
    report.ops(queries);
    report.ops(mutations);

    // ---- live checks: versions, sampled answers on the replay, final graph ----
    {
        Scope span(tracer, "check.replay");
        std::sort(applied.begin(), applied.end());
        for (std::size_t i = 0; i < applied.size(); ++i)
            if (applied[i].first != i + 2)
                report.fail("mutation versions are not 2.." + std::to_string(applied.size() + 1));
        if (store->version() != 1 + applied.size())
            report.fail("store version " + std::to_string(store->version()) + " != 1 + " +
                        std::to_string(applied.size()) + " batches applied");
        std::sort(samples.begin(), samples.end(),
                  [](const Sample& a, const Sample& b) { return a.version < b.version; });
        bool mutated_sample = false;
        ReplayGraph model(base);
        std::size_t next_batch = 0;
        for (const Sample& smp : samples) {
            while (next_batch < applied.size() && applied[next_batch].first <= smp.version)
                model.apply(log[applied[next_batch++].second]);
            mutated_sample |= smp.version > 1;
            if (model.bfs(smp.root) != smp.level)
                report.fail("sampled answer from " + std::to_string(smp.root) + " at version " +
                            std::to_string(smp.version) + " differs from the replay");
        }
        while (next_batch < applied.size()) model.apply(log[applied[next_batch++].second]);
        if (!mutated_sample) report.fail("no sampled answer came from a mutated version");
        if (samples.size() != kClosedSamples + kOpenSamples)
            report.fail("only " + std::to_string(samples.size()) + " sampled answers");
        const sge::SnapshotRef final_snapshot = store->acquire();
        const std::string problem = model.compare(final_snapshot.graph());
        if (!problem.empty()) report.fail("final snapshot vs replay: " + problem);
    }

    report.end_to_end("setup_s", median(setup_total) + traverse_setup_s, "s");
    report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
    report.end_to_end("saturated_qps", saturated_qps, "1/s");

    report.layer("gen.generate_s", median(generate_s), "s");
    report.layer("gen.permute_s", median(permute_s), "s");
    report.layer("gen.edges", live.input_edges, "count");
    report.layer("graph.build_s", median(build_s), "s");
    report.layer("graph.compress_s", median(compress_s), "s");
    report.layer("graph.spill_s", median(spill_s), "s");
    report_closed_loop(report, median(start_s), c_wait, c_run, closed_waves);
    // Only this workload mutates its graph and runs an open loop, so
    // these are details: printed, but not in the JSON line.
    report.detail("stream.store_s", median(store_s), "s");
    report.detail("service.query_p50_ms", ms(percentile(q_lat, 50)), "ms");
    // The p95 is taken per open-loop segment (each holds at least
    // kMinTailQueries queries) and the median reported, so that one
    // segment hit by a stall on the shared host does not set the figure.
    std::vector<double> segment_p95;
    for (const auto& lat : q_lat_segment) segment_p95.push_back(percentile(lat, 95));
    report.detail("service.query_p95_ms", ms(median(segment_p95)), "ms");
    report.detail("service.query_p99_ms", ms(percentile(q_lat, 99)), "ms");
    report.detail("service.queue_depth_max", static_cast<double>(queue_depth_max), "count");
    report.detail("service.generator_lag_ms", ms(generator_lag_max), "ms");
    report.detail("stream.mutation_p50_ms", ms(percentile(m_lat, 50)), "ms");
    report.detail("stream.mutation_run_ms_p50", ms(percentile(m_run, 50)), "ms");
    report.detail("stream.mutation_wait_ms_p50", ms(percentile(m_wait, 50)), "ms");
    report.detail("stream.delta_edges", static_cast<double>(store->counters().delta_edges.load()),
                  "count");
    report.detail("stream.snapshots_live_max", static_cast<double>(live_snapshots_max), "count");
    std::printf("serve open_loop_queries=%zu mutations=%zu samples=%zu\n", q_lat.size(),
                m_lat.size(), samples.size());
    std::printf("serve query_ms p10=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f "
                "mutation_ms p10=%.1f p50=%.1f p90=%.1f max=%.1f\n",
                ms(percentile(q_lat, 10)), ms(percentile(q_lat, 50)), ms(percentile(q_lat, 90)),
                ms(percentile(q_lat, 99)), ms(percentile(q_lat, 100)), ms(percentile(m_lat, 10)),
                ms(percentile(m_lat, 50)), ms(percentile(m_lat, 90)), ms(percentile(m_lat, 100)));
}

double run_static_service_phase(const Settings& s, const CsrGraph& g, std::size_t batch_roots,
                                std::size_t callers, std::size_t queries, Report& report,
                                Tracer& tracer) {
    const vertex_t n = g.num_vertices();
    Rng rng(derive_seed(s.seed, 5));
    std::unique_ptr<GraphService> service;
    double start_s = 0;
    {
        Scope span(tracer, "service.start");
        ServiceOptions so;
        so.workers = 1;
        so.bfs.threads = kThreads - 1;  // the fourth CPU checks the answers
        so.batch_max_roots = batch_roots;
        service = std::make_unique<GraphService>(g, so);
        // One full wave through the service: the worker's warm-up
        // traversal and its first wave happen here, not in the loop.
        std::vector<std::future<QueryResult>> warm;
        for (std::size_t i = 0; i < batch_roots; ++i)
            warm.push_back(service->submit(random_root(rng, g)).result);
        for (auto& f : warm)
            if (!f.get().answered()) report.fail("warm-up query was not answered");
        start_s = span.stop();
    }

    // ---- closed loop: `callers` queries outstanding, each answer
    // replaced until `queries` have been issued ----
    std::vector<vertex_t> roots(queries);
    for (vertex_t& r : roots) r = random_root(rng, g);
    const std::size_t sampled[] = {rng.below(queries / 2), queries / 2 + rng.below(queries / 2)};
    std::vector<Sample> samples;
    std::vector<double> wait_s, run_s;
    OpCounts ops{"query"};
    std::deque<std::pair<std::size_t, std::future<QueryResult>>> outstanding;
    std::size_t issued = 0;
    auto submit = [&] {
        outstanding.emplace_back(issued, service->submit(roots[issued]).result);
        ++issued;
        ++ops.attempted;
    };
    Scope span(tracer, "service.closed_loop");
    const WaveCounters start = WaveCounters::read(*service);
    const auto t0 = Clock::now();
    while (issued < std::min(callers, queries)) submit();
    while (!outstanding.empty()) {
        QueryResult r = outstanding.front().second.get();
        const std::size_t index = outstanding.front().first;
        outstanding.pop_front();
        if (issued < queries) submit();
        switch (r.outcome) {
            case Outcome::kCompleted: ++ops.completed; break;
            case Outcome::kDegraded: ++ops.degraded; break;
            case Outcome::kShed: ++ops.shed; break;
            case Outcome::kCancelled: ++ops.cancelled; break;
            case Outcome::kFailed: ++ops.failed; break;
        }
        if (!r.answered()) continue;
        wait_s.push_back(r.wait_seconds);
        run_s.push_back(r.run_seconds);
        const std::string problem = answer_problem(r, n);
        if (!problem.empty()) report.fail("query " + std::to_string(index) + ": " + problem);
        if (index == sampled[0] || index == sampled[1])
            samples.push_back({r.root, 0, std::move(r.level)});
    }
    const double seconds = seconds_since(t0);
    WaveCounters waves;
    waves.add_since(start, *service);
    span.stop();
    service->stop();
    report.ops(ops);

    {
        Scope check(tracer, "check.reference_bfs");
        if (samples.size() != 2) report.fail("only " + std::to_string(samples.size()) + " sampled answers");
        for (const Sample& smp : samples)
            if (reference_bfs(g, smp.root) != smp.level)
                report.fail("sampled answer from " + std::to_string(smp.root) +
                            " differs from the reference BFS");
    }
    std::printf("service queries=%zu seconds=%.3f run_ms p10=%.1f p50=%.1f p90=%.1f\n", queries,
                seconds, ms(percentile(run_s, 10)), ms(percentile(run_s, 50)),
                ms(percentile(run_s, 90)));
    report.end_to_end("saturated_qps", static_cast<double>(ops.completed) / seconds, "1/s");
    report_closed_loop(report, start_s, wait_s, run_s, waves);
    return start_s;
}

}  // namespace e2e
