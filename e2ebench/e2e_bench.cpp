// e2e_bench — end-to-end, layered benchmark of the sge library.
//
//   e2e_bench --workload rmat|serve --seed N --seconds S --trace 0|1
//             [--small] [--scratch DIR]
//
// Prints the host fingerprint, every metric by name and unit, the
// operation counts, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See README.md.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "gen/rmat.hpp"
#include "runtime/obs.hpp"

#ifndef SGE_E2E_BUILD_TYPE
#define SGE_E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

namespace {

std::string read_first_line(const std::string& path) {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/// "32K" / "1024K" / "105M" (sysfs cache size) -> bytes.
std::uint64_t parse_size(const std::string& text) {
    if (text.empty()) return 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    std::uint64_t mult = 1;
    if (end != nullptr && (*end == 'K' || *end == 'k')) mult = 1024;
    if (end != nullptr && (*end == 'M' || *end == 'm')) mult = 1024 * 1024;
    return v * mult;
}

}  // namespace

HostInfo detect_host() {
    HostInfo h;
    {
        std::ifstream in("/proc/cpuinfo");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("model name", 0) == 0) {
                const auto colon = line.find(':');
                if (colon != std::string::npos)
                    h.cpu_model = line.substr(colon + 2);
                break;
            }
        }
        if (h.cpu_model.empty()) h.cpu_model = "unknown";
    }
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    h.nproc = cpus > 0 ? static_cast<unsigned>(cpus) : 1;
    for (int index = 0;; ++index) {
        const std::string base =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
        const std::string level = read_first_line(base + "/level");
        if (level.empty()) break;
        const std::string type = read_first_line(base + "/type");
        if (type == "Instruction") continue;
        h.llc_bytes = std::max(h.llc_bytes, parse_size(read_first_line(base + "/size")));
    }
    const long pages = sysconf(_SC_PHYS_PAGES);
    const long page = sysconf(_SC_PAGESIZE);
    if (pages > 0 && page > 0)
        h.ram_bytes = static_cast<std::uint64_t>(pages) *
                      static_cast<std::uint64_t>(page);
    return h;
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
    return v[idx];
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

sge::EdgeList graph500_rmat(std::uint32_t scale, std::uint64_t seed) {
    constexpr std::size_t kChunks = 4;
    constexpr std::uint64_t kEdgeFactor = 16;
    std::vector<sge::EdgeList> parts(kChunks);
    parallel_for(kChunks, kThreads, [&](std::size_t i) {
        sge::RmatParams p;
        p.scale = scale;
        p.num_edges = (kEdgeFactor << scale) / kChunks;
        p.a = 0.57;
        p.b = 0.19;
        p.c = 0.19;
        p.d = 0.05;
        p.noise = 0.0;
        p.seed = derive_seed(seed, 100 + i);
        parts[i] = sge::generate_rmat(p);
    });
    sge::EdgeList edges(static_cast<vertex_t>(1ULL << scale));
    edges.reserve(kEdgeFactor << scale);
    for (sge::EdgeList& part : parts) {
        for (const sge::Edge& e : part) edges.add(e.src, e.dst);
        part = sge::EdgeList();
    }
    return edges;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::uint64_t major_faults() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_majflt);
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit, Kind kind) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, kind});
}

void Report::fail(const std::string& what) {
    if (failures_.size() < 32)
        std::fprintf(stderr, "e2e_bench: CHECK FAILED: %s\n", what.c_str());
    failures_.push_back(what);
}

void Report::print(const Settings& s, const HostInfo& host) const {
    std::printf("host cpu=\"%s\" nproc=%u llc_mb=%.1f ram_gb=%.1f build=%s "
                "sge_obs=%s\n",
                host.cpu_model.c_str(), host.nproc,
                static_cast<double>(host.llc_bytes) / (1024.0 * 1024.0),
                static_cast<double>(host.ram_bytes) / (1024.0 * 1024.0 * 1024.0),
                SGE_E2E_BUILD_TYPE, sge::obs::compiled_in() ? "on" : "off");
    std::printf("run workload=%s seed=%llu seconds=%g trace=%d small=%d "
                "threads=%d\n",
                s.workload.c_str(), static_cast<unsigned long long>(s.seed),
                s.seconds, s.trace ? 1 : 0, s.small ? 1 : 0, kThreads);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const OpCounts& o : ops_) {
        std::printf("ops %s attempted=%llu completed=%llu degraded=%llu "
                    "shed=%llu cancelled=%llu failed=%llu\n",
                    o.kind.c_str(), static_cast<unsigned long long>(o.attempted),
                    static_cast<unsigned long long>(o.completed),
                    static_cast<unsigned long long>(o.degraded),
                    static_cast<unsigned long long>(o.shed),
                    static_cast<unsigned long long>(o.cancelled),
                    static_cast<unsigned long long>(o.failed));
        attempted += o.attempted;
        failed += o.shed + o.cancelled + o.failed;
    }
    static const char* const kLabel[] = {"metric", "layer", "detail"};
    for (const Metric& m : metrics_)
        std::printf("%s %s %.6g %s\n", kLabel[static_cast<int>(m.kind)],
                    m.name.c_str(), m.value, m.unit.c_str());
    std::printf("checks %s (%zu failed)\n", correct() ? "passed" : "FAILED",
                failures_.size());

    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
        if (m.kind != (s.trace ? Kind::kLayer : Kind::kEndToEnd)) continue;
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        if (!first) json += ", ";
        first = false;
        json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
                m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

std::uint64_t Tracer::add(const std::string& name, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::uint64_t parent,
                          std::uint64_t request, int track) {
    if (!on_) return 0;
    const std::uint64_t id = reserve();
    add_reserved(id, name, start_ns, end_ns, parent, request, track);
    return id;
}

void Tracer::add_reserved(std::uint64_t id, const std::string& name,
                          std::uint64_t start_ns, std::uint64_t end_ns,
                          std::uint64_t parent, std::uint64_t request,
                          int track) {
    if (!on_) return;
    std::lock_guard guard(mutex_);
    spans_.push_back({name, start_ns, std::max(start_ns, end_ns), id, parent,
                      request, track});
}

std::size_t Tracer::write(const std::string& path) const {
    sge::obs::ChromeTrace trace;
    trace.set_process_name("e2e_bench");
    trace.set_thread_name(kMain, "main");
    trace.set_thread_name(kRequests, "requests");
    std::lock_guard guard(mutex_);
    for (const Span& s : spans_) {
        sge::obs::ChromeTrace::Args args{{"id", s.id}, {"parent", s.parent}};
        if (s.request != 0) args.emplace_back("request", s.request);
        trace.add_span(s.track, s.name, s.start_ns, s.end_ns, std::move(args));
    }
    if (!trace.write_file(path))
        throw std::runtime_error("cannot write trace " + path);
    return spans_.size();
}

// ---------------------------------------------------------------------
// Tree audit
// ---------------------------------------------------------------------

std::string audit_tree(const CsrGraph& g, vertex_t root,
                       const std::vector<vertex_t>& parent,
                       const std::vector<level_t>& level,
                       const std::vector<level_t>& reference) {
    const vertex_t n = g.num_vertices();
    if (parent.size() != n || level.size() != n || reference.size() != n)
        return "answer arrays have the wrong size";
    if (parent[root] != root) return "parent[root] != root";
    if (level[root] != 0) return "level[root] != 0";
    constexpr vertex_t kBlock = 1 << 16;
    const std::size_t blocks = (static_cast<std::size_t>(n) + kBlock - 1) / kBlock;
    std::mutex mutex;
    std::string problem;
    parallel_for(blocks, kThreads, [&](std::size_t b) {
        const vertex_t lo = static_cast<vertex_t>(b * kBlock);
        const vertex_t hi = static_cast<vertex_t>(
            std::min<std::size_t>(n, static_cast<std::size_t>(lo) + kBlock));
        std::string local;
        for (vertex_t v = lo; v < hi && local.empty(); ++v) {
            if (level[v] != reference[v]) {
                local = "level of vertex " + std::to_string(v) +
                        " differs from the reference BFS";
            } else if (level[v] == sge::kInvalidLevel) {
                if (parent[v] != sge::kInvalidVertex)
                    local = "unreached vertex " + std::to_string(v) +
                            " has a parent";
            } else if (v != root) {
                const vertex_t p = parent[v];
                if (p >= n) {
                    local = "reached vertex " + std::to_string(v) +
                            " has no parent";
                } else if (level[p] + 1 != level[v]) {
                    local = "parent of " + std::to_string(v) +
                            " is not one level up";
                } else {
                    // Rows are built sorted; an unsorted row can only
                    // make the search miss, so it cannot pass a bad tree.
                    const auto row = g.neighbors(v);
                    if (!std::binary_search(row.begin(), row.end(), p))
                        local = "parent of " + std::to_string(v) +
                                " is not in its row";
                }
            }
        }
        if (!local.empty()) {
            std::lock_guard guard(mutex);
            if (problem.empty()) problem = local;
        }
    });
    return problem;
}

}  // namespace e2e

namespace {

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "e2e_bench: %s\nusage: e2e_bench --workload rmat|serve "
                 "--seed N --seconds S --trace 0|1 [--small] "
                 "[--scratch DIR]\n",
                 why);
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    e2e::Settings s;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") s.workload = value();
        else if (a == "--seed") s.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds") s.seconds = std::atof(value().c_str());
        else if (a == "--trace") s.trace = value() != "0";
        else if (a == "--scratch") s.scratch_dir = value();
        else if (a == "--small") s.small = true;
        else usage(("unknown argument " + a).c_str());
    }
    if (s.workload != "rmat" && s.workload != "serve")
        usage("--workload must be rmat or serve");
    if (!(s.seconds > 0)) usage("--seconds must be positive");

    const e2e::HostInfo host = e2e::detect_host();
    try {
        // Guard: never start more worker threads than the host has CPUs.
        if (static_cast<unsigned>(e2e::kThreads) > host.nproc)
            throw std::runtime_error(
                "the benchmark runs " + std::to_string(e2e::kThreads) +
                " worker threads, more than nproc (" + std::to_string(host.nproc) + ")");
        e2e::Report report;
        e2e::Tracer tracer(s.trace);
        if (s.workload == "serve")
            e2e::run_serve_workload(s, report, tracer);
        else
            e2e::run_rmat_workload(s, host, report, tracer);
        if (s.trace) {
            const std::string path = s.scratch_dir + "/trace_" + s.workload +
                                     "_" + std::to_string(s.seed) + ".json";
            const std::size_t spans = tracer.write(path);
            std::printf("trace %s (%zu spans)\n", path.c_str(), spans);
        }
        report.print(s, host);
        return report.correct() ? 0 : 3;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_bench: error: %s\n", e.what());
        return 1;
    }
}
