// jiffybench: the repo benchmark's program. One process runs one workload
// against JiffyMap with at most 4 worker threads and prints human-readable
// lines followed by one JSON result line (see perfbench/README.md).
//
//   jiffybench --workload <update_small|batch_snapshot|read_scan_large|
//                           read_scan_1m>
//              --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// --trace 0 measures the end-to-end metrics: per-role throughput and
// latency, set-up time and space amplification. --trace 1 is a separate run
// that alternates untraced and traced slices and reports the per-layer
// ledger: span times around every call into a layer, engine counter deltas
// (obs::snapshot) and map statistics (debug_stats).
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.h"
#include "perfbench/runtime.h"
#include "perfbench/workloads.h"

namespace jb {
namespace {

using Steady = std::chrono::steady_clock;

double secs(Steady::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

// Measured slices of an untraced run; a traced run alternates
// kTraceSlices untraced and traced slices.
constexpr int kSlices = 10;
constexpr int kTraceSlices = 6;
// Latency samples kept per thread, role and slice.
constexpr std::size_t kSliceSamples = std::size_t{1} << 15;
// Pause between coordinator probe rounds in a traced run.
constexpr auto kProbeGap = std::chrono::milliseconds(1);
// Raw spans kept: every kKeepEvery-th traced op of a worker, every probe
// round.
constexpr std::uint32_t kKeepEvery = 32;
constexpr std::size_t kRawCap = std::size_t{1} << 17;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void write_spans(const std::string& path, const Args& a,
                 const std::vector<std::unique_ptr<ThreadCtx>>& ctx,
                 Ticks origin, double ticks_per_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "# jiffybench spans v1 workload=%s seed=%llu box=%s\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               box_json(a.seed).c_str());
  std::fprintf(f, "# tid op sid parent name start_ns end_ns\n");
  for (std::size_t tid = 0; tid < ctx.size(); ++tid) {
    for (const SpanRec& s : ctx[tid]->tr.raw()) {
      std::fprintf(f, "%zu %u %u %lld %s %.1f %.1f\n", tid, s.op, s.sid,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   kSpanNames[s.name],
                   static_cast<double>(s.t0 - origin) / ticks_per_ns,
                   static_cast<double>(s.t1 - origin) / ticks_per_ns);
    }
  }
  std::fclose(f);
}

// Warm-up runs in 1 s windows: at least W::kWarmupS (the autoscaler EMA
// settles), then until a window's merges per thousand updates drop below
// kSettleMerges. A shuffled preload leaves revisions far below the
// autoscaler's target; until the merges catch up, every update may merge
// and purge sweeps walk the whole map, so the measured phase would sample a
// transient whose length varies from run to run. The windows are printed,
// so the transient stays visible. Returns the warm-up length in seconds.
constexpr double kSettleMerges = 2.0;
constexpr double kMaxWarmupS = 45.0;

template <class W>
double warm_up(const std::vector<std::unique_ptr<ThreadCtx>>& ctx) {
  const auto t0 = Steady::now();
  auto updates = [&] {
    std::uint64_t n = 0;
    for (const auto& c : ctx)
      // relaxed: progress statistic (see ThreadCtx::count).
      n += c->warm_updates.load(std::memory_order_relaxed);
    return n;
  };
  std::uint64_t u0 = updates();
  jiffy::obs::MetricsSnapshot m0 = jiffy::obs::snapshot();
  for (int w = 1;; ++w) {
    std::this_thread::sleep_until(t0 + std::chrono::seconds(w));
    const std::uint64_t u1 = updates();
    const jiffy::obs::MetricsSnapshot m1 = jiffy::obs::snapshot();
    const jiffy::obs::MetricsSnapshot d = m1 - m0;
    const double kupd = static_cast<double>(u1 - u0) / 1e3;
    const double merges = static_cast<double>(d[jiffy::obs::Ev::merge]);
    const bool settled = kupd > 0 && merges / kupd < kSettleMerges;
    std::printf("  warmup %3ds: %10.0f updates/s %8.2f merges/kupd %5lld purge sweeps\n",
                w, kupd * 1e3, kupd > 0 ? merges / kupd : 0.0,
                static_cast<long long>(d[jiffy::obs::Ev::purge_sweeps]));
    if ((w >= W::kWarmupS && settled) || w >= kMaxWarmupS) break;
    u0 = u1;
    m0 = m1;
  }
  return secs(Steady::now() - t0);
}

template <class W>
int run(const Args& a) {
  using Map = typename W::Map;
  Control ctl;
  ctl.trace = a.trace;
  ctl.measured = a.trace ? kTraceSlices : kSlices;

  std::printf("box %s\n", box_json(a.seed).c_str());
  std::printf("workload %s seed=%llu seconds=%g trace=%d threads=%d\n",
              W::kName, static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, W::kThreads);

  // Everything the benchmark itself allocates exists before the RSS
  // baseline, so space_amp measures the map.
  auto w = std::make_unique<W>(a.seed);
  std::vector<std::unique_ptr<ThreadCtx>> ctx;
  for (int i = 0; i <= W::kThreads; ++i)  // workers, then the coordinator
    ctx.push_back(std::make_unique<ThreadCtx>(
        jiffy::splitmix64(a.seed * 64 + static_cast<std::uint64_t>(i))));
  ThreadCtx& co = *ctx.back();
  if (a.trace) {
    for (int i = 0; i < W::kThreads; ++i) ctx[i]->tr.configure(kKeepEvery, kRawCap);
    co.tr.configure(1, kRawCap);
  } else {
    for (int i = 0; i < W::kThreads; ++i)
      for (int ph = 1; ph <= ctl.measured; ++ph)
        for (Reservoir& r : ctx[i]->lat[ph]) r.init(kSliceSamples);
  }

  // Set-up: preload a fresh map kSetups times; the last one is measured.
  std::vector<double> setup;
  std::unique_ptr<Map> map;
  double rss0 = 0;
  for (int s = 0; s < W::kSetups; ++s) {
    map.reset();
    malloc_trim(0);
    rss0 = rss_bytes();
    const auto t0 = Steady::now();
    map = std::make_unique<Map>();
    preload(*w, *map, a.seed);
    setup.push_back(secs(Steady::now() - t0));
  }

  std::vector<std::thread> th;
  for (int i = 0; i < W::kThreads; ++i) {
    th.emplace_back([&, i] {
      try {
        w->worker(i, *ctx[i], *map, ctl);
      } catch (const std::exception& e) {
        ctx[i]->fail(e.what());
      }
    });
  }
  const double warmup_s = warm_up<W>(ctx);

  // Measured phase.
  co.traced = a.trace;
  const Ticks tk0 = now_ticks();
  const auto wall0 = Steady::now();
  std::vector<double> phase_s(kMaxPhases, 0.0);
  std::vector<jiffy::obs::MetricsSnapshot> snaps;
  auto take_snapshot = [&] {
    Span root(co, kBenchPhase);
    Span s(co, kObsSnapshot);
    snaps.push_back(jiffy::obs::snapshot());
  };
  take_snapshot();
  for (int ph = 1; ph <= ctl.measured; ++ph) {
    const auto start = Steady::now();
    ctl.phase.store(ph, std::memory_order_release);
    const auto deadline =
        wall0 + std::chrono::duration_cast<Steady::duration>(
                    std::chrono::duration<double>(a.seconds * ph / ctl.measured));
    if (a.trace) {
      while (Steady::now() < deadline) {
        probe_round(*w, *map, co);
        std::this_thread::sleep_for(kProbeGap);
      }
    } else {
      std::this_thread::sleep_until(deadline);
    }
    phase_s[ph] = secs(Steady::now() - start);
  }
  ctl.phase.store(ctl.stop_phase(), std::memory_order_release);
  for (std::thread& t : th) t.join();
  const Ticks tk1 = now_ticks();
  const double wall_s = secs(Steady::now() - wall0);
  take_snapshot();
  const double ticks_per_ns = static_cast<double>(tk1 - tk0) / (wall_s * 1e9);
  // What the map holds at the end of the run: retired memory drained and
  // free heap pages returned, so allocator slack does not count.
  jiffy::ebr::quiesce();
  malloc_trim(0);
  const double rss1 = rss_bytes();

  verify_final(*w, *map, co);
  std::uint64_t live = 0;
  for (std::uint8_t p : w->present) live += p;

  // Per-layer reads after the run: map statistics, then one timed purge.
  typename Map::DebugStats ds{};
  double purge_ms = 0;
  if (a.trace) {
    Span root(co, kBenchPhase);
    {
      Span s(co, kCoreDebugStats);
      ds = map->debug_stats();
    }
    const auto p0 = Steady::now();
    {
      Span s(co, kCorePurge);
      map->purge();
    }
    purge_ms = secs(Steady::now() - p0) * 1e3;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  PhaseTally sum[kMaxPhases];
  for (const auto& c : ctx) {
    attempted += c->attempted;
    failed += c->failed;
    for (int ph = 0; ph < kMaxPhases; ++ph)
      for (int r = 0; r < kRoles; ++r) {
        sum[ph].calls[r] += c->tally[ph].calls[r];
        sum[ph].basic[r] += c->tally[ph].basic[r];
      }
  }

  std::vector<Metric> out;
  // Metrics in the result line are the ones BENCHMARK.json gates; the rest
  // are printed only.
  auto put = [&](const std::string& name, double v, const char* unit,
                 bool gated = true) {
    if (gated) out.push_back({name, v, unit});
    std::printf("  %-34s %14.6g %s%s\n", name.c_str(), v, unit,
                gated ? "" : "  (printed only)");
  };

  if (!a.trace) {
    // Every figure is the median over the measured slices.
    for (int r = 0; r < kRoles; ++r) {
      if (sum[1].calls[r] == 0) continue;  // the workload has no such role
      std::vector<double> mops, p50, p99;
      std::size_t min_n = ~std::size_t{0};
      std::uint64_t calls = 0;
      for (int ph = 1; ph <= ctl.measured; ++ph) {
        mops.push_back(static_cast<double>(sum[ph].basic[r]) / phase_s[ph] / 1e6);
        std::vector<Ticks> v;
        for (int i = 0; i < W::kThreads; ++i) ctx[i]->lat[ph][r].append_to(v);
        min_n = std::min(min_n, v.size());
        calls += sum[ph].calls[r];
        p50.push_back(static_cast<double>(quantile(v, 0.50)) / ticks_per_ns / 1e3);
        p99.push_back(static_cast<double>(quantile(v, 0.99)) / ticks_per_ns / 1e3);
      }
      // Only update_small lacks a scan role, so scan figures are printed
      // but not gated: every gated metric must exist on every workload.
      const std::string role = kRoleNames[r];
      const bool gated = r != kScan;
      put(role + "_mops", median(mops), "Mops", gated);
      put(role + "_p50_us", median(p50), "us", gated);
      put(role + "_p99_us", median(p99), "us", gated);
      std::printf("    %s: %llu calls; latency samples per slice >= %zu "
                  "(>= %zu beyond p99)%s\n",
                  role.c_str(), static_cast<unsigned long long>(calls), min_n,
                  min_n / 100, min_n < 1000 ? "  [fewer than 10 beyond p99]" : "");
    }
    put("setup_s", median(setup), "s");
    std::printf("    warm-up until settled: %.1f s\n", warmup_s);
    const double user_bytes =
        static_cast<double>(live) * (sizeof(typename W::K) + sizeof(typename W::V));
    put("space_amp", (rss1 - rss0) / user_bytes, "x");
    std::printf("    setups: %zu, live entries: %llu, rss growth: %.0f bytes\n",
                setup.size(), static_cast<unsigned long long>(live), rss1 - rss0);
  } else {
    const jiffy::obs::MetricsSnapshot d = snaps.back() - snaps.front();
    using jiffy::obs::Ev;
    std::uint64_t upd = 0;
    double untraced_ops = 0, traced_ops = 0, untraced_s = 0, traced_s = 0;
    for (int ph = 1; ph <= ctl.measured; ++ph) {
      upd += sum[ph].basic[kUpdate];
      const double ops = static_cast<double>(sum[ph].basic[kUpdate] +
                                             sum[ph].basic[kGet] +
                                             sum[ph].basic[kScan]);
      (ph % 2 == 0 ? traced_ops : untraced_ops) += ops;
      (ph % 2 == 0 ? traced_s : untraced_s) += phase_s[ph];
    }
    const double kupd = static_cast<double>(upd) / 1e3;
    auto per_kupd = [&](Ev e) {
      return kupd > 0 ? static_cast<double>(d[e]) / kupd : 0.0;
    };
    SpanAgg agg[kSpanCount];
    // Core time of the workers' traced ops, scaled up by the share of their
    // traced-slice iterations that were traced.
    double worker_core_s = 0;
    for (std::size_t i = 0; i < ctx.size(); ++i) {
      const ThreadCtx& c = *ctx[i];
      Ticks core = 0;
      for (int n = 0; n < kSpanCount; ++n) {
        agg[n].count += c.tr.agg[n].count;
        agg[n].total += c.tr.agg[n].total;
        if (is_core(static_cast<std::uint16_t>(n))) core += c.tr.agg[n].total;
      }
      if (i < static_cast<std::size_t>(W::kThreads) && c.traced_iters > 0)
        worker_core_s += static_cast<double>(core) / ticks_per_ns / 1e9 *
                         static_cast<double>(c.iters_in_traced) /
                         static_cast<double>(c.traced_iters);
    }
    auto mean_ns = [&](SpanId n, double reps = 1) {
      return agg[n].count ? static_cast<double>(agg[n].total) /
                                static_cast<double>(agg[n].count) / reps /
                                ticks_per_ns
                          : 0.0;
    };
    put("core.put_ns", mean_ns(kCorePut), "ns");
    put("core.erase_ns", mean_ns(kCoreErase), "ns");
    put("core.get_ns", mean_ns(kCoreGet), "ns");
    put("core.apply_us", mean_ns(kCoreApply) / 1e3, "us");
    put("core.snapshot_ns", mean_ns(kCoreSnapshot), "ns");
    put("core.snap_get_ns", mean_ns(kCoreSnapGet), "ns");
    put("core.scan_n_us", mean_ns(kCoreScanN) / 1e3, "us");
    put("core.rscan_n_us", mean_ns(kCoreRscanN) / 1e3, "us");
    put("core.range_scan_us", mean_ns(kCoreRangeScan) / 1e3, "us");
    put("core.purge_ms", purge_ms, "ms");
    put("core.update_ops", static_cast<double>(upd), "count");
    put("core.cas_install_lost_per_kupd", per_kupd(Ev::cas_install_lost), "1/kupd");
    put("core.split_per_kupd", per_kupd(Ev::split), "1/kupd");
    put("core.merge_per_kupd", per_kupd(Ev::merge), "1/kupd");
    put("core.help_stamp_per_kupd", per_kupd(Ev::help_stamp), "1/kupd");
    const auto claimed = static_cast<double>(d[Ev::replay_group_claimed]);
    const auto dup = static_cast<double>(d[Ev::replay_group_duplicated]);
    put("core.replay_group_claimed", claimed, "count");
    put("core.replay_group_duplicated", dup, "count");
    put("core.replay_dup_ratio", claimed > 0 ? dup / claimed : 0.0, "ratio");
    put("core.purge_sweeps_per_s",
        static_cast<double>(d[Ev::purge_sweeps]) / (untraced_s + traced_s), "1/s");
    put("core.tombstones", static_cast<double>(ds.tombstone_count), "count");
    put("core.node_count", static_cast<double>(ds.node_count), "count");
    put("core.avg_revision_size", ds.avg_revision_size, "entries");
    put("core.target_revision_size", ds.target_revision_size, "entries");
    put("core.read_fraction_ema", ds.read_fraction_ema, "ratio");
    put("core.warmup_s", warmup_s, "s");
    put("core.busy_frac", worker_core_s / (traced_s * W::kThreads), "ratio");
    put("ebr.guard_ns", mean_ns(kEbrGuard, kGuardReps), "ns");
    put("ebr.valve_donations_per_kupd", per_kupd(Ev::valve_donations), "1/kupd");
    put("ebr.limbo_peak", static_cast<double>(d.limbo_peak), "count");
    const auto hits = static_cast<double>(d[Ev::block_cache_hit]);
    const auto allocs = hits + static_cast<double>(d[Ev::block_cache_miss]);
    put("common.block_cache_hit_ratio", allocs > 0 ? hits / allocs : 0.0, "ratio");
    put("common.block_cache_allocs", allocs, "count");
    put("common.block_cache_ns", mean_ns(kCommonBlockCache, kBlockReps), "ns");
    put("tsc.read_ns", mean_ns(kTscRead, kTscReps), "ns");
    put("workload.keygen_ns", mean_ns(kWorkloadKeygen), "ns");
    const double ru = untraced_ops / untraced_s;
    const double rt = traced_ops / traced_s;
    put("obs.trace_overhead_frac", ru > 0 ? 1.0 - rt / ru : 0.0, "ratio");
    std::printf("    bases: %.0f update ops, %.0f replay groups claimed, "
                "%.0f block-cache allocations, %.3f s traced / %.3f s untraced\n",
                static_cast<double>(upd), claimed, allocs, traced_s, untraced_s);
    if (!a.spans.empty()) write_spans(a.spans, a, ctx, tk0, ticks_per_ns);
  }

  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted ? attempted : 1);
  std::printf("  %-34s %14.6g ratio (failed %llu of %llu checked calls)\n",
              "failed_frac", failed_frac, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(out).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "jiffybench: %s\nusage: jiffybench --workload "
               "<update_small|batch_snapshot|read_scan_large|read_scan_1m> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 120)
        usage("--seconds takes a number in (0, 120]");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  return a;
}

}  // namespace
}  // namespace jb

int main(int argc, char** argv) {
  const jb::Args a = jb::parse(argc, argv);
  if (a.workload == jb::UpdateSmall::kName) return jb::run<jb::UpdateSmall>(a);
  if (a.workload == jb::BatchSnapshot::kName) return jb::run<jb::BatchSnapshot>(a);
  if (a.workload == jb::ReadScanLarge::kName) return jb::run<jb::ReadScanLarge>(a);
  if (a.workload == jb::ReadScan1M::kName) return jb::run<jb::ReadScan1M>(a);
  jb::usage("unknown --workload");
}
