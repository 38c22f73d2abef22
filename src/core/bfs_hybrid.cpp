#include <atomic>
#include <bit>
#include <cassert>

#include "concurrency/spin_barrier.hpp"
#include "concurrency/versioned_bitmap.hpp"
#include "core/bfs_workspace.hpp"
#include "core/engine_common.hpp"
#include "core/frontier.hpp"
#include "graph/csr_compressed.hpp"
#include "graph/paged_graph.hpp"
#include "graph/partition.hpp"
#include "runtime/prefetch.hpp"
#include "runtime/simd_scan.hpp"
#include "runtime/timer.hpp"

namespace sge::detail {

namespace {

/// Extension engine: direction-optimizing BFS (Beamer, Asanović,
/// Patterson, SC'12) layered on the paper's substrates.
///
/// Top-down levels run exactly like Algorithm 2. When a growing
/// frontier's pending out-edges exceed 1/alpha of the still-unexplored
/// edges, the traversal flips *bottom-up*: every unvisited vertex scans
/// its own adjacency for any parent in the current frontier and stops
/// at the first hit. On low-diameter power-law graphs (the paper's
/// R-MAT workload) the two or three explosive middle levels touch a
/// small fraction of their edges this way. The engine flips back once a
/// shrinking frontier falls below n/beta (next_direction in
/// engine_common.hpp holds the rule).
///
/// Requires a symmetric graph (the builder default): bottom-up uses
/// out-edges as in-edges. BfsResult::edges_traversed keeps the library
/// convention (sum of degrees over visited vertices) so rates stay
/// comparable across engines; BfsLevelStats::edges_scanned records the
/// work actually done, which is the point of the optimization.
///
/// Workspace reuse: the visited set and both frontier bitmaps are
/// epoch-versioned, so the per-level `clear_all` of the old frontier
/// bits is an O(1) epoch bump, and back-to-back queries skip every O(n)
/// re-initialisation. The [0, n) range plan survives across queries on
/// the same graph (ws.range_planned) — only its cursors rewind.
template <class Graph>
void bfs_hybrid_impl(const Graph& g, vertex_t root, const BfsOptions& options,
                     ThreadTeam& team, BfsWorkspace& ws, BfsResult& result) {
    check_root(g, root);
    const vertex_t n = g.num_vertices();
    const int threads = team.size();
    const int sockets = team.sockets_used();
    const std::size_t chunk = options.chunk_size < 1 ? 1 : options.chunk_size;
    const std::uint64_t total_edges_x2 = g.num_edges();
    const SocketPartition partition(n, sockets);

    reset_result(result, n, options.compute_levels);

    VersionedBitmap& visited = ws.visited;
    // Frontier as queue (top-down) and as bitmap (bottom-up); both kept,
    // converted lazily on direction flips.
    FrontierQueue* const queues = ws.queues;
    VersionedBitmap* const frontier_bits = ws.frontier_bits;
    SpinBarrier barrier(threads);

    // Top-down levels schedule the frontier queue; bottom-up levels (and
    // the bits->queue harvest) schedule the whole vertex range. The range
    // plan's weights never change, so it is cut once — at the first
    // direction flip on this graph — and only its cursors rewind per
    // level (and per query).
    WorkQueue& wq = *ws.wq;
    WorkQueue& range_wq = *ws.range_wq;
    const std::size_t range_chunk = resolve_bottomup_chunk(options, n, threads);

    // Compact frontier generation (docs/ALGORITHMS.md "Frontier
    // generation"): top-down levels stage discoveries in per-thread
    // buffers and reach NQ via prefix-sum copy-out; bottom-up levels
    // word-scan the visited bitmap (whole-word skips, vectorized when
    // the CPU allows); the bits->queue harvest compacts straight into
    // the queue slots. The visited-claim atomics remain in both modes.
    const bool compact = options.frontier_gen == FrontierGen::kCompact;
    FrontierCompactor& fc = ws.compactor;
    const simd::IsaLevel isa = simd::active_level();

    struct Shared {
        std::atomic<std::uint64_t> visited_count{0};
        // Frontier statistics for the direction heuristic, re-zeroed by
        // thread 0 each level.
        std::atomic<std::uint64_t> next_frontier_size{0};
        std::atomic<std::uint64_t> next_frontier_degree{0};
        std::atomic<std::uint64_t> explored_degree{0};
        int current = 0;
        Direction direction = Direction::kTopDown;
        bool convert_to_bits = false;
        bool convert_to_queue = false;
        bool done = false;
        bool cancelled = false;  // written by tid 0 between barriers
        // Atomic so the watchdog may snapshot it mid-run.
        std::atomic<std::uint32_t> levels_run{0};
        // Size of the frontier being expanded: the direction rule's
        // growth test compares the next frontier against it.
        std::uint64_t frontier_size = 1;
    } shared;

    LevelAccumLog& stats = ws.accum;
    acquire_level_slot(stats, 0).frontier_size = 1;

    vertex_t* const parent = result.parent.data();
    level_t* const level = options.compute_levels ? result.level.data() : nullptr;
    const bool double_check = options.bitmap_double_check;
    const bool collect = options.collect_stats;
    SpanRecorder spans(threads, collect);

    LevelWatchdog watchdog(resolve_watchdog_seconds(options), barrier, [&] {
        return "level=" +
               std::to_string(shared.levels_run.load(std::memory_order_relaxed)) +
               " q0=" + std::to_string(queues[0].size()) +
               " q1=" + std::to_string(queues[1].size()) + " visited=" +
               std::to_string(
                   shared.visited_count.load(std::memory_order_relaxed));
    });

#ifndef NDEBUG
    const std::uint64_t allocs_before =
        aligned_alloc_count().load(std::memory_order_relaxed);
#endif
    WallTimer timer;
    team.run([&](int tid) {
        // No init pass: the workspace's epoch bumps already cleared the
        // visited and frontier bitmaps; unreached parent/level slots are
        // filled post-run.
        if (tid == 0) {
            visited.test_and_set(root);
            parent[root] = root;
            if (level != nullptr) level[root] = 0;
            queues[0].push_one(root);
            frontier_bits[0].test_and_set(root);
            shared.visited_count.fetch_add(1, std::memory_order_relaxed);
            shared.explored_degree.fetch_add(g.degree(root),
                                             std::memory_order_relaxed);
            plan_frontier(wq, queues[0].data(), queues[0].size(), g,
                          options.schedule, chunk);
        }
        if (!barrier.arrive_and_wait()) return;

        LocalBatch<vertex_t>& staged =
            ws.scratch[static_cast<std::size_t>(tid)].staged;
        vertex_t* const cbuf = compact ? fc.buffer(tid) : nullptr;
        level_t depth = 0;
        WallTimer level_timer;  // tid 0 stamps per-level wall time
        for (;;) {
            const std::uint64_t span_start = spans.now(timer);
            const int cur = shared.current;
            // Captured once so every barrier-count decision below (the
            // compact copy-out runs only after top-down levels) branches
            // on the same value on every thread.
            const Direction dir = shared.direction;
            FrontierQueue& cq = queues[cur];
            FrontierQueue& nq = queues[1 - cur];
            VersionedBitmap& fb_cur = frontier_bits[cur];
            VersionedBitmap& fb_next = frontier_bits[1 - cur];
            ThreadCounters counters;
            // Deque slots never relocate, so the reference stays valid
            // across tid 0's acquire between the barriers.
            LevelAccum& slot = stats[depth];
            std::uint64_t discovered = 0;
            std::uint64_t discovered_degree = 0;

            std::size_t staged_count = 0;  // compact-mode discoveries
            if (dir == Direction::kTopDown) {
                std::size_t begin = 0;
                std::size_t end = 0;
                WorkQueue::Claim cl;
                while ((cl = wq.claim(tid, begin, end)) !=
                       WorkQueue::Claim::kNone) {
                    counters.count_chunk(cl == WorkQueue::Claim::kStolen);
                    for (std::size_t i = begin; i < end; ++i) {
                        const vertex_t u = cq[i];
                        // Keep the next vertex's adjacency metadata in
                        // flight while scanning this one (Section III's
                        // decoupling of computation and memory requests).
                        if (i + 1 < end) g.prefetch_adjacency(cq[i + 1]);
                        scan_adjacency(
                            g, u, counters,
                            [&](vertex_t w) {
                                prefetch_read(visited.word_addr(w));
                            },
                            [&](vertex_t v) {
                                ++counters.bitmap_checks;
                                if (double_check && visited.test(v)) {
                                    counters.count_skip();
                                    return;
                                }
                                ++counters.atomic_ops;
                                if (visited.test_and_set(v)) return;
                                counters.count_win();
                                parent[v] = u;
                                if (level != nullptr) level[v] = depth + 1;
                                ++discovered;
                                discovered_degree += g.degree(v);
                                if (compact) {
                                    cbuf[staged_count++] = v;  // plain store
                                } else if (staged.push(v)) {
                                    nq.push_batch(staged.data(), staged.size());
                                    staged.clear();
                                }
                            });
                    }
                }
                if (compact) {
                    fc.publish(tid, staged_count);
                } else if (!staged.empty()) {
                    nq.push_batch(staged.data(), staged.size());
                    staged.clear();
                }
            } else {
                // Bottom-up: claim vertex ranges; each unvisited vertex
                // hunts for a frontier parent in its own adjacency and
                // stops at the first hit.
                std::size_t base = 0;
                std::size_t stop = 0;
                WorkQueue::Claim cl;
                // The early-exit probe: scan_adjacency_until accounts
                // edges_scanned per examined neighbour; the callback
                // returns false to stop at the first frontier parent.
                const auto hunt = [&](vertex_t v) {
                    scan_adjacency_until(g, v, counters, [&](vertex_t w) {
                        ++counters.bitmap_checks;
                        if (!fb_cur.test(w)) return true;
                        // v's chunk is claimed exactly once, so the
                        // test_and_set cannot lose; it still provides
                        // the release ordering the next level needs.
                        ++counters.atomic_ops;
                        visited.test_and_set(v);
                        counters.count_win();
                        parent[v] = w;
                        if (level != nullptr) level[v] = depth + 1;
                        ++discovered;
                        discovered_degree += g.degree(v);
                        ++counters.atomic_ops;
                        fb_next.test_and_set(v);
                        return false;
                    });
                };
                if (compact) {
                    // Vectorized sweep: test 32 visited slots per word
                    // (whole stale/full words cost one compare — or a
                    // quarter of one under AVX2) and ctz-iterate only the
                    // surviving unvisited bits. Visited vertices skipped
                    // wholesale are accounted in simd_words_scanned, not
                    // bitmap_skips; each *emitted* vertex still counts
                    // one bitmap_check like the scalar path.
                    constexpr std::size_t W = VersionedBitmap::kSlotsPerWord;
                    const std::uint32_t vepoch = visited.epoch();
                    const std::atomic<std::uint64_t>* const vwords =
                        visited.words();
                    std::uint64_t words_local = 0;
                    while ((cl = range_wq.claim(tid, base, stop)) !=
                           WorkQueue::Claim::kNone) {
                        counters.count_chunk(cl == WorkQueue::Claim::kStolen);
                        const std::size_t wlo = base / W;
                        const std::size_t whi = (stop + W - 1) / W;
                        simd::for_each_unvisited_word(
                            vwords, wlo, whi, vepoch, isa, words_local,
                            [&](std::size_t wi, std::uint32_t mask) {
                                // Clip boundary words to [base, stop):
                                // they may straddle a neighbouring claim.
                                if (wi == wlo && base % W != 0)
                                    mask &= ~std::uint32_t{0} << (base % W);
                                if (wi + 1 == whi && stop % W != 0)
                                    mask &=
                                        (std::uint32_t{1} << (stop % W)) - 1;
                                simd::for_each_bit(mask, [&](unsigned b) {
                                    ++counters.bitmap_checks;
                                    hunt(static_cast<vertex_t>(wi * W + b));
                                });
                            });
                    }
                    counters.count_simd_words(words_local);
                } else {
                    while ((cl = range_wq.claim(tid, base, stop)) !=
                           WorkQueue::Claim::kNone) {
                        counters.count_chunk(cl == WorkQueue::Claim::kStolen);
                        for (std::size_t vi = base; vi < stop; ++vi) {
                            const auto v = static_cast<vertex_t>(vi);
                            ++counters.bitmap_checks;
                            if (visited.test(v)) {
                                counters.count_skip();
                                continue;
                            }
                            hunt(v);
                        }
                    }
                }
            }

            shared.visited_count.fetch_add(discovered, std::memory_order_relaxed);
            shared.next_frontier_size.fetch_add(discovered,
                                                std::memory_order_relaxed);
            shared.next_frontier_degree.fetch_add(discovered_degree,
                                                  std::memory_order_relaxed);
            shared.explored_degree.fetch_add(discovered_degree,
                                             std::memory_order_relaxed);
            counters.flush_into(slot);
            if (!timed_wait(barrier, slot, collect)) return;

            if (compact && dir == Direction::kTopDown) {
                // Prefix-sum copy-out into NQ (counts barrier-ordered);
                // extra barrier so tid 0's set_size sees every segment.
                // Bottom-up levels produce no queue, so they keep the
                // two-barrier structure.
                compact_copy_out(fc, tid, nq.slots_mut(), slot);
                if (!timed_wait(barrier, slot, collect)) return;
            }

            if (tid == 0) {
                slot.seconds = level_timer.seconds();
                level_timer.reset();
                const std::uint64_t next_size =
                    shared.next_frontier_size.load(std::memory_order_relaxed);
                const std::uint64_t next_degree =
                    shared.next_frontier_degree.load(std::memory_order_relaxed);
                const std::uint64_t unexplored =
                    total_edges_x2 -
                    shared.explored_degree.load(std::memory_order_relaxed);

                const Direction next = next_direction(
                    shared.direction,
                    {shared.frontier_size, next_size, next_degree, unexplored,
                     n},
                    options.hybrid_alpha, options.hybrid_beta);

                shared.convert_to_bits =
                    next == Direction::kBottomUp &&
                    shared.direction == Direction::kTopDown;
                shared.convert_to_queue =
                    next == Direction::kTopDown &&
                    shared.direction == Direction::kBottomUp;

                cq.reset();
                if (compact && dir == Direction::kTopDown)
                    nq.set_size(fc.total());
                // O(1) "clear": stale-epoch words read as unset. The
                // physically cleared word count (wraparound only) feeds
                // the same counter as the per-query resets.
                ws.stats.reset_words_touched += fb_cur.advance_epoch();
                shared.current = 1 - cur;
                shared.direction = next;
                shared.done = next_size == 0;
                shared.frontier_size = next_size;
                shared.next_frontier_size.store(0, std::memory_order_relaxed);
                shared.next_frontier_degree.store(0, std::memory_order_relaxed);
                shared.levels_run.fetch_add(1, std::memory_order_relaxed);
                if (!shared.done && poll_cancel(options)) {
                    shared.cancelled = true;
                    shared.done = true;
                    // The conversion phases below are skipped too: every
                    // worker breaks out of the level loop at the next
                    // barrier before reaching them.
                    shared.convert_to_bits = false;
                    shared.convert_to_queue = false;
                }
                if (!shared.done) {
                    acquire_level_slot(stats, depth + 1).frontier_size =
                        next_size;
                    // Schedule the next level. A queue-borne frontier is
                    // re-cut per level; the [0, n) range plan is cut once
                    // and merely rewound (used by both the bottom-up scan
                    // and the bits->queue harvest). After a harvest the
                    // queue does not exist yet — it is planned in the
                    // conversion phase below instead.
                    if (next == Direction::kTopDown &&
                        !shared.convert_to_queue) {
                        plan_frontier(wq, queues[1 - cur].data(),
                                      queues[1 - cur].size(), g,
                                      options.schedule, chunk);
                        // Bottom-up levels sweep the whole vertex range,
                        // so only queue-borne (top-down) frontiers are
                        // worth handing to the paged prefetcher.
                        prefetch_next_frontier(g, queues[1 - cur].data(),
                                               queues[1 - cur].size());
                    }
                    if (next == Direction::kBottomUp ||
                        shared.convert_to_queue) {
                        if (!ws.range_planned) {
                            plan_vertex_range(range_wq, n, g, options.schedule,
                                              range_chunk);
                            ws.range_planned = true;
                        } else {
                            range_wq.reset_cursors();
                        }
                    }
                }
            }
            if (!timed_wait(barrier, slot, collect)) return;
            spans.record(tid, depth, span_start, spans.now(timer));
            if (shared.done) break;

            // Representation conversion phases (both threads-parallel).
            // Their barrier waits land in the level just completed (the
            // slot reference is still valid); the conversion work itself
            // shows up as the inter-span gap in the trace.
            if (shared.convert_to_bits) {
                // nq is now the current queue (after the swap): mirror it
                // into the current frontier bitmap.
                FrontierQueue& now_cq = queues[shared.current];
                VersionedBitmap& now_fb = frontier_bits[shared.current];
                std::size_t begin = 0;
                std::size_t end = 0;
                while (now_cq.next_chunk(chunk, begin, end))
                    for (std::size_t i = begin; i < end; ++i)
                        now_fb.test_and_set(now_cq[i]);
                // The mirroring consumed now_cq's scan cursor; that is
                // fine — the bottom-up level never reads the queue, and
                // the end-of-level reset rewinds it before any reuse.
                if (!timed_wait(barrier, slot, collect)) return;
            } else if (shared.convert_to_queue) {
                // The bottom-up level filled fb (current) but no queue:
                // harvest set bits into the current queue.
                FrontierQueue& now_cq = queues[shared.current];
                VersionedBitmap& now_fb = frontier_bits[shared.current];
                if (compact) {
                    // Compacted harvest over fixed word slices, two
                    // passes. Pass 1 popcounts this thread's slice of
                    // the (now quiescent) frontier bitmap; the barrier
                    // orders the counts, so pass 2 can write vertex ids
                    // straight into a disjoint queue segment — the queue
                    // comes out in ascending vertex order with zero
                    // atomics, deterministically.
                    constexpr std::size_t W = VersionedBitmap::kSlotsPerWord;
                    const std::uint32_t fepoch = now_fb.epoch();
                    const std::atomic<std::uint64_t>* const fwords =
                        now_fb.words();
                    const auto [fwlo, fwhi] =
                        split_range(now_fb.num_words(), threads, tid);
                    std::uint64_t words_local = 0;
                    std::size_t found = 0;
                    simd::for_each_set_word(
                        fwords, fwlo, fwhi, fepoch, isa, words_local,
                        [&](std::size_t, std::uint32_t mask) {
                            found += static_cast<unsigned>(
                                std::popcount(mask));
                        });
                    fc.publish(tid, found);
                    if (!timed_wait(barrier, slot, collect)) return;
                    WallTimer harvest_timer;
                    vertex_t* out = now_cq.slots_mut() + fc.offset_of(tid);
                    simd::for_each_set_word(
                        fwords, fwlo, fwhi, fepoch, isa, words_local,
                        [&](std::size_t wi, std::uint32_t mask) {
                            simd::for_each_bit(mask, [&](unsigned b) {
                                *out++ = static_cast<vertex_t>(wi * W + b);
                            });
                        });
                    note_compaction(slot, harvest_timer.nanoseconds(), found);
                    note_simd_words(slot, words_local);
                    if (!timed_wait(barrier, slot, collect)) return;
                    // The harvested queue only exists now: size it and
                    // cut its plan for the top-down level about to start.
                    if (tid == 0) {
                        now_cq.set_size(fc.total());
                        plan_frontier(wq, now_cq.data(), now_cq.size(), g,
                                      options.schedule, chunk);
                        prefetch_next_frontier(g, now_cq.data(),
                                               now_cq.size());
                    }
                    if (!timed_wait(barrier, slot, collect)) return;
                } else {
                    std::size_t base = 0;
                    std::size_t stop = 0;
                    while (range_wq.claim(tid, base, stop) !=
                           WorkQueue::Claim::kNone) {
                        for (std::size_t vi = base; vi < stop; ++vi) {
                            if (!now_fb.test(vi)) continue;
                            if (staged.push(static_cast<vertex_t>(vi))) {
                                now_cq.push_batch(staged.data(),
                                                  staged.size());
                                staged.clear();
                            }
                        }
                    }
                    if (!staged.empty()) {
                        now_cq.push_batch(staged.data(), staged.size());
                        staged.clear();
                    }
                    if (!timed_wait(barrier, slot, collect)) return;
                    // The harvested queue only exists now: cut its plan
                    // for the top-down level about to start.
                    if (tid == 0) {
                        plan_frontier(wq, now_cq.data(), now_cq.size(), g,
                                      options.schedule, chunk);
                        prefetch_next_frontier(g, now_cq.data(),
                                               now_cq.size());
                    }
                    if (!timed_wait(barrier, slot, collect)) return;
                }
            }
            ++depth;
        }

        // Unreached sentinels for this socket's slice (replaces the old
        // pre-init pass; writes only unvisited slots).
        {
            const int my = team.socket_of(tid);
            const auto [lo, hi] = partition.range(my);
            const auto [b, e] = split_range(
                hi - lo, ws.socket_threads[static_cast<std::size_t>(my)],
                ws.rank_in_socket[static_cast<std::size_t>(tid)]);
            fill_unreached(visited, lo + b, lo + e, parent, level);
        }
    }, &barrier);
#ifndef NDEBUG
    // A prepared workspace makes the traversal allocation-free.
    assert(aligned_alloc_count().load(std::memory_order_relaxed) ==
           allocs_before);
#endif
    const std::uint32_t levels = shared.levels_run.load(std::memory_order_relaxed);
    finish_watchdog(watchdog, "bfs_hybrid", levels,
                    shared.visited_count.load(std::memory_order_relaxed));
    if (shared.cancelled)
        throw_cancelled("bfs_hybrid", levels,
                        shared.visited_count.load(std::memory_order_relaxed));
    result.seconds = timer.seconds();
    spans.collect_into(result);

    result.vertices_visited = shared.visited_count.load(std::memory_order_relaxed);
    // Library convention: ma = sum of degrees over visited vertices, so
    // rates are comparable across engines regardless of how much work
    // the bottom-up levels skipped.
    result.edges_traversed = shared.explored_degree.load(std::memory_order_relaxed);
    result.num_levels = levels;
    if (options.collect_stats) copy_level_stats(result, stats, levels);
}

}  // namespace

void bfs_hybrid(const CsrGraph& g, vertex_t root, const BfsOptions& options,
                ThreadTeam& team, BfsWorkspace& ws, BfsResult& result) {
    bfs_hybrid_impl(g, root, options, team, ws, result);
}

void bfs_hybrid(const CompressedCsrGraph& g, vertex_t root,
                const BfsOptions& options, ThreadTeam& team, BfsWorkspace& ws,
                BfsResult& result) {
    bfs_hybrid_impl(g, root, options, team, ws, result);
}

void bfs_hybrid(const PagedGraph& g, vertex_t root, const BfsOptions& options,
                ThreadTeam& team, BfsWorkspace& ws, BfsResult& result) {
    bfs_hybrid_impl(g, root, options, team, ws, result);
}

}  // namespace sge::detail
