#pragma once

// Shared plumbing of the end-to-end benchmark: command-line settings,
// the report (metrics, operation counts, host fingerprint), the
// in-memory span tracer, and the checks made apart from the library
// (reference BFS and the O(n + m) parent-tree audit).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/csr_compressed.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "graph/paged_graph.hpp"
#include "graph/types.hpp"

namespace e2e {

using sge::CsrGraph;
using sge::level_t;
using sge::vertex_t;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// SplitMix64: the benchmark's own seeded stream (inputs must not
/// depend on the library's generators beyond what is being measured).
class Rng {
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, bound); bound > 0. The modulo bias is below
    /// 2^-40 for every bound used here.
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }
    /// Uniform in [0, 1).
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    std::uint64_t state_;
};

/// Derives an independent seed for one input stream of a run.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream) {
    Rng r(seed * 0x100000001b3ULL + stream);
    return r.next();
}

struct Settings {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool small = false;      ///< seconds-long mode for the benchmark's own test
    std::string scratch_dir = ".";  ///< spill files and the Chrome trace
};

/// Worker threads per parallel traversal; at most this many traversal
/// threads run at once. A run stops if the host has fewer CPUs.
constexpr int kThreads = 4;

struct HostInfo {
    std::string cpu_model;
    unsigned nproc = 0;
    std::uint64_t llc_bytes = 0;  ///< 0 when sysfs does not expose it
    std::uint64_t ram_bytes = 0;
};

[[nodiscard]] HostInfo detect_host();

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 for
/// an empty set.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Median of unsorted samples (mean of the middle two for an even
/// count); 0 for an empty set.
[[nodiscard]] double median(std::vector<double> v);

/// Graph500 Kronecker R-MAT edge list (A=.57, B=.19, C=.19, D=.05,
/// edge factor 16, no per-level noise), unpermuted: four
/// independent seeded streams of equal length, generated concurrently
/// and concatenated.
[[nodiscard]] sge::EdgeList graph500_rmat(std::uint32_t scale, std::uint64_t seed);

/// Process peak RSS in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Major page faults of this process so far (getrusage ru_majflt).
[[nodiscard]] std::uint64_t major_faults();

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// Operation counts of one kind (traversals, queries, mutations).
struct OpCounts {
    std::string kind;
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t shed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;
};

class Report {
  public:
    /// What a metric is: an end-to-end metric (JSON line with --trace 0),
    /// a per-layer metric (JSON line with --trace 1), or a detail that
    /// only one workload measures (printed, never in the JSON line).
    enum class Kind { kEndToEnd, kLayer, kDetail };

    void end_to_end(const std::string& name, double value, const std::string& unit) {
        metric(name, value, unit, Kind::kEndToEnd);
    }
    void layer(const std::string& name, double value, const std::string& unit) {
        metric(name, value, unit, Kind::kLayer);
    }
    void detail(const std::string& name, double value, const std::string& unit) {
        metric(name, value, unit, Kind::kDetail);
    }
    void ops(const OpCounts& counts) { ops_.push_back(counts); }

    /// Records a failed check; the run reports correct = false.
    void fail(const std::string& what);
    [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }

    /// Prints the human-readable lines, then the final JSON object
    /// (end-to-end metrics when !trace, per-layer metrics when trace).
    void print(const Settings& s, const HostInfo& host) const;

  private:
    void metric(const std::string& name, double value, const std::string& unit, Kind kind);

    struct Metric {
        std::string name;
        double value;
        std::string unit;
        Kind kind;
    };
    std::vector<Metric> metrics_;
    std::vector<OpCounts> ops_;
    std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------
// Tracer: spans at each layer boundary, kept in memory.
// ---------------------------------------------------------------------

class Tracer {
  public:
    /// Track ids of the Chrome trace: the main thread's layer calls, and
    /// the service requests (which overlap, so they get their own).
    enum Track : int { kMain = 0, kRequests = 1 };

    explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

    [[nodiscard]] bool on() const noexcept { return on_; }

    [[nodiscard]] std::uint64_t to_ns(Clock::time_point t) const {
        return t <= t0_ ? 0
                        : static_cast<std::uint64_t>(
                              std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  t - t0_)
                                  .count());
    }

    /// Records a finished span; returns its id (0 when tracing is off).
    std::uint64_t add(const std::string& name, std::uint64_t start_ns,
                      std::uint64_t end_ns, std::uint64_t parent = 0,
                      std::uint64_t request = 0, int track = kMain);

    /// Reserves a span id for a span whose children finish first.
    std::uint64_t reserve() {
        return on_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
    }
    void add_reserved(std::uint64_t id, const std::string& name,
                      std::uint64_t start_ns, std::uint64_t end_ns,
                      std::uint64_t parent = 0, std::uint64_t request = 0,
                      int track = kMain);

    /// Writes the spans as a Chrome trace; returns the span count.
    std::size_t write(const std::string& path) const;

  private:
    struct Span {
        std::string name;
        std::uint64_t start_ns, end_ns, id, parent, request;
        int track;
    };
    bool on_;
    Clock::time_point t0_;
    std::atomic<std::uint64_t> next_id_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// Times one call into a layer: a span when tracing, and the elapsed
/// seconds either way.
class Scope {
  public:
    Scope(Tracer& tracer, std::string name, std::uint64_t parent = 0)
        : tracer_(tracer),
          name_(std::move(name)),
          parent_(parent),
          id_(tracer.reserve()),
          start_(Clock::now()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { stop(); }

    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

    /// Ends the span (idempotent); returns its seconds.
    double stop() {
        if (!stopped_) {
            end_ = Clock::now();
            stopped_ = true;
            tracer_.add_reserved(id_, name_, tracer_.to_ns(start_),
                                 tracer_.to_ns(end_), parent_);
        }
        return std::chrono::duration<double>(end_ - start_).count();
    }

  private:
    Tracer& tracer_;
    std::string name_;
    std::uint64_t parent_;
    std::uint64_t id_;
    Clock::time_point start_;
    Clock::time_point end_{};
    bool stopped_ = false;
};

// ---------------------------------------------------------------------
// Checks made apart from the library.
// ---------------------------------------------------------------------

/// Textbook queue BFS over any adjacency source: `row(v, fn)` calls
/// fn(w) for every neighbour w of v. Returns hop distances
/// (kInvalidLevel = unreached); `reached` and `arcs` receive the
/// component's vertex count and the sum of its degrees.
template <class RowFn>
std::vector<level_t> reference_bfs(vertex_t n, vertex_t root, RowFn&& row,
                                   std::uint64_t* reached = nullptr,
                                   std::uint64_t* arcs = nullptr) {
    std::vector<level_t> level(n, sge::kInvalidLevel);
    std::vector<vertex_t> queue;
    queue.reserve(1024);
    level[root] = 0;
    queue.push_back(root);
    std::uint64_t degree_sum = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const vertex_t v = queue[head];
        const level_t next = level[v] + 1;
        row(v, [&](vertex_t w) {
            ++degree_sum;
            if (level[w] == sge::kInvalidLevel) {
                level[w] = next;
                queue.push_back(w);
            }
        });
    }
    if (reached != nullptr) *reached = queue.size();
    if (arcs != nullptr) *arcs = degree_sum;
    return level;
}

[[nodiscard]] inline std::vector<level_t> reference_bfs(
    const CsrGraph& g, vertex_t root, std::uint64_t* reached = nullptr,
    std::uint64_t* arcs = nullptr) {
    return reference_bfs(
        g.num_vertices(), root,
        [&g](vertex_t v, auto&& fn) {
            for (const vertex_t w : g.neighbors(v)) fn(w);
        },
        reached, arcs);
}

/// Audits one BFS answer in O(n + m) on kThreads threads:
/// level == reference exactly; parent[root] == root; for every other
/// reached v, level[parent[v]] == level[v] - 1 and parent[v] appears in
/// v's own row; unreached vertices have no parent. Returns an empty
/// string when the answer holds, else the first problem found.
[[nodiscard]] std::string audit_tree(const CsrGraph& g, vertex_t root,
                                     const std::vector<vertex_t>& parent,
                                     const std::vector<level_t>& level,
                                     const std::vector<level_t>& reference);

/// Runs fn(i) for i in [0, count) on up to `threads` std::threads.
template <class Fn>
void parallel_for(std::size_t count, int threads, Fn&& fn) {
    const std::size_t t =
        std::max<std::size_t>(1, std::min<std::size_t>(threads, count));
    std::atomic<std::size_t> next{0};
    auto body = [&] {
        for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1))
            fn(i);
    };
    std::vector<std::thread> pool;
    for (std::size_t i = 1; i < t; ++i) pool.emplace_back(body);
    body();
    for (auto& th : pool) th.join();
}

// ---------------------------------------------------------------------
// Phases shared by the workloads (traverse.cpp, serve.cpp).
// ---------------------------------------------------------------------

/// The graph in the two other backends the traversal phase runs on.
struct Backends {
    sge::CompressedCsrGraph cg;
    sge::PagedGraph pg;
    double compress_s = 0, spill_s = 0;
};

/// Encodes `g` (graph.compress) and spills it under the scratch
/// directory (graph.spill); spans are children of `parent`.
[[nodiscard]] Backends make_backends(const Settings& s, const CsrGraph& g, Tracer& tracer,
                                     std::uint64_t parent);

/// The traversal phase's seeded root set: `count` vertices of the
/// component holding the highest-degree vertex, one per stratum of
/// second-shell size, in stratum order (README "Roots").
[[nodiscard]] std::vector<vertex_t> pick_roots(const CsrGraph& g, std::uint64_t seed,
                                               std::size_t count);

/// How the traversal phase runs on one workload's graph.
struct TraversalPlan {
    std::size_t slow_roots;  ///< roots per round of serial/naive/bitmap/multisocket,
                             ///< spread evenly over the strata
    std::size_t rounds;      ///< whole rounds, fixed before the phase starts
    double percentile;       ///< of a root's times over the rounds, for its rate
};

/// Builds one runner per traversal config (two when tracing), warms each
/// up, then runs plan.rounds rounds over `roots`, checking every answer
/// against the reference BFS. Records mteps.<config> and the core,
/// concurrency, paged and trace-overhead metrics. Returns the runners'
/// set-up seconds (construction plus warm-up).
double run_traversal_phase(const Settings& s, const CsrGraph& g, const Backends& b,
                           const std::vector<vertex_t>& roots, const TraversalPlan& plan,
                           Report& report, Tracer& tracer);

/// Closed-loop saturation of a GraphService over a static graph: starts
/// the service (one worker, one answered warm-up query), keeps `callers`
/// queries outstanding until `queries` have been answered, and checks
/// every answer. Records saturated_qps and the closed-loop service
/// metrics. Returns the service's start-up seconds.
double run_static_service_phase(const Settings& s, const CsrGraph& g, std::size_t batch_roots,
                                std::size_t callers, std::size_t queries, Report& report,
                                Tracer& tracer);

// Workload entry points (traverse.cpp, serve.cpp).
void run_rmat_workload(const Settings& s, const HostInfo& host, Report& report, Tracer& tracer);
void run_serve_workload(const Settings& s, Report& report, Tracer& tracer);

}  // namespace e2e
