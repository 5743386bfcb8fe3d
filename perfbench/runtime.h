// Run-time pieces of the repo benchmark that do not depend on a workload:
// phase control, per-thread tallies, latency reservoirs, the span tracer,
// the box fingerprint and the metric printer.
//
// Timing uses the engine's own version clock (TscClock, RDTSCP) so a call's
// latency and its trace spans share one time base; ticks are converted to
// wall time with a calibration taken across the measured phase.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "tsc/clock.h"
#include "workload/rng.h"

namespace jb {

using Ticks = std::uint64_t;
inline Ticks now_ticks() { return jiffy::TscClock{}.read(); }

// ---- roles and phases --------------------------------------------------------

// A role is what a call does for its caller: update (put, erase or a whole
// batch), point read (get or snapshot get) or scan (any scan call).
enum Role { kUpdate = 0, kGet, kScan, kRoles };
inline constexpr const char* kRoleNames[kRoles] = {"update", "get", "scan"};

// Phase 0 is warm-up; phases 1..measured are measured slices; measured+1
// stops the workers. An untraced run reports the median over its slices, so
// a short disturbance from outside the process moves one slice, not the
// result. A traced run alternates untraced (odd) and traced (even) slices so
// that the tracing overhead is the throughput difference of two interleaved
// halves of one run.
inline constexpr int kMaxPhases = 16;
// In a traced slice a worker traces one loop iteration in kTraceEvery (all
// spans of that op), which keeps the tracing overhead a few percent.
inline constexpr std::uint64_t kTraceEvery = 8;

struct alignas(64) Control {
  std::atomic<int> phase{0};
  int measured = 1;
  bool trace = false;

  int stop_phase() const { return measured + 1; }
  bool traced(int ph) const {
    return trace && ph >= 1 && ph <= measured && ph % 2 == 0;
  }
  bool sampled(int ph) const { return !trace && ph >= 1 && ph <= measured; }
};

struct PhaseTally {
  std::uint64_t calls[kRoles] = {};
  std::uint64_t basic[kRoles] = {};  // basic ops: entries for scans, ops for
                                     // a batch, 1 otherwise
};

// ---- latency reservoir -------------------------------------------------------

// Uniform sample of at most `cap` latencies (Algorithm R), so a long slice
// keeps a bounded, unbiased sample. Storage is touched in init() so it
// counts in the RSS baseline, not in the measured growth.
class Reservoir {
 public:
  void init(std::size_t cap) { buf_.assign(cap, 0); }

  void add(Ticks v, jiffy::Rng& rng) {
    if (buf_.empty()) return;
    ++seen_;
    if (size_ < buf_.size()) {
      buf_[size_++] = v;
      return;
    }
    const std::uint64_t j = rng.next_below(seen_);
    if (j < buf_.size()) buf_[j] = v;
  }

  void append_to(std::vector<Ticks>& out) const {
    out.insert(out.end(), buf_.begin(), buf_.begin() + size_);
  }

 private:
  std::vector<Ticks> buf_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
};

// Order statistic at fraction q of a sample (nearest rank).
inline Ticks quantile(std::vector<Ticks>& v, double q) {
  if (v.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

// ---- spans -------------------------------------------------------------------

// Span names: <layer>.<call>. `bench.*` spans are the benchmark's own ops
// (roots); every other span wraps one call from the benchmark into the
// named layer's public functions.
enum SpanId : std::uint16_t {
  kBenchUpdate,
  kBenchGet,
  kBenchScan,
  kBenchRead,   // one batch_snapshot reader iteration
  kBenchProbe,  // one coordinator probe round
  kBenchPhase,  // coordinator work at phase boundaries and after the run
  kCorePut,
  kCoreErase,
  kCoreGet,
  kCoreApply,
  kCoreSnapshot,
  kCoreSnapGet,
  kCoreScanN,
  kCoreRscanN,
  kCoreRangeScan,
  kCorePurge,
  kCoreDebugStats,
  kEbrGuard,
  kTscRead,
  kCommonBlockCache,
  kWorkloadKeygen,
  kObsSnapshot,
  kSpanCount
};

inline constexpr const char* kSpanNames[kSpanCount] = {
    "bench.update",    "bench.get",        "bench.scan",
    "bench.read",      "bench.probe",      "bench.phase",
    "core.put",        "core.erase",       "core.get",
    "core.apply",      "core.snapshot",    "core.snap_get",
    "core.scan_n",     "core.rscan_n",     "core.range_scan",
    "core.purge",      "core.debug_stats", "ebr.guard",
    "tsc.read",        "common.block_cache", "workload.keygen",
    "obs.snapshot"};

inline bool is_core(std::uint16_t id) {
  return id >= kCorePut && id <= kCoreDebugStats;
}

struct SpanAgg {
  std::uint64_t count = 0;
  Ticks total = 0;
};

struct SpanRec {
  std::uint32_t sid;
  std::uint32_t parent;  // sid of the parent span; kNoParent for a root
  std::uint32_t op;      // sid of the root span: shared by one op's spans
  std::uint16_t name;
  Ticks t0;
  Ticks t1;
};
inline constexpr std::uint32_t kNoParent = ~0u;

// Per-thread span recorder. Every span of a traced op feeds the per-name
// aggregates; the raw spans of every `keep_every`-th traced op are kept in
// memory (bounded) and written out after the run.
class Tracer {
 public:
  void configure(std::uint32_t keep_every, std::size_t raw_cap) {
    keep_every_ = keep_every;
    raw_cap_ = raw_cap;
    raw_.reserve(raw_cap);
  }

  void begin(std::uint16_t name) {
    Open& o = stack_[depth_++];
    o.name = name;
    o.sid = next_sid_++;
    if (depth_ == 1) {
      op_ = o.sid;
      keep_ = keep_every_ != 0 && roots_++ % keep_every_ == 0;
    }
    o.t0 = now_ticks();
  }

  void end() {
    const Ticks t1 = now_ticks();
    const Open& o = stack_[--depth_];
    ++agg[o.name].count;
    agg[o.name].total += t1 - o.t0;
    if (keep_ && raw_.size() < raw_cap_)
      raw_.push_back({o.sid, depth_ > 0 ? stack_[depth_ - 1].sid : kNoParent,
                      op_, o.name, o.t0, t1});
  }

  const std::vector<SpanRec>& raw() const { return raw_; }

  SpanAgg agg[kSpanCount];

 private:
  struct Open {
    std::uint16_t name;
    std::uint32_t sid;
    Ticks t0;
  };
  Open stack_[8];
  int depth_ = 0;
  std::uint32_t next_sid_ = 0;
  std::uint32_t op_ = 0;
  std::uint64_t roots_ = 0;
  std::uint32_t keep_every_ = 0;
  bool keep_ = false;
  std::size_t raw_cap_ = 0;
  std::vector<SpanRec> raw_;
};

// ---- per-thread context ------------------------------------------------------

struct alignas(64) ThreadCtx {
  explicit ThreadCtx(std::uint64_t seed) : rng(seed), lat_rng(~seed) {}

  jiffy::Rng rng;      // workload inputs
  jiffy::Rng lat_rng;  // reservoir replacement choices
  PhaseTally tally[kMaxPhases];
  Reservoir lat[kMaxPhases][kRoles];  // per measured slice
  std::uint64_t lat_tick[kRoles] = {};
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  std::atomic<std::uint64_t> warm_updates{0};  // basic update ops in warm-up
  Tracer tr;
  bool traced = false;   // spans on for the current iteration
  std::uint64_t iters_in_traced = 0;  // loop iterations in traced slices
  std::uint64_t traced_iters = 0;     // of which traced
  bool sampled = false;  // latency samples on for the current iteration
  int phase = 0;

  // Reads the phase at the top of one loop iteration; false means stop.
  bool next(const Control& c) {
    // relaxed: the phase is a schedule hint; the results the workers write
    // are read only after join.
    phase = c.phase.load(std::memory_order_relaxed);
    if (phase >= c.stop_phase()) return false;
    traced = false;
    if (c.traced(phase)) {
      // Hashed, not strided, so the choice cannot alias with a worker's
      // own call pattern (update_small issues a get every 128th call).
      traced = jiffy::splitmix64(iters_in_traced++) % kTraceEvery == 0;
      traced_iters += traced;
    }
    sampled = c.sampled(phase);
    ++attempted;
    return true;
  }

  void count(Role r, std::uint64_t basic) {
    ++tally[phase].calls[r];
    tally[phase].basic[r] += basic;
    // relaxed: a progress statistic the coordinator samples during warm-up.
    if (phase == 0 && r == kUpdate)
      warm_updates.fetch_add(basic, std::memory_order_relaxed);
  }

  void fail(const char* what) {
    if (failed++ < 5) std::fprintf(stderr, "check failed: %s\n", what);
  }
  void check(bool ok, const char* what) {
    if (!ok) fail(what);
  }
};

// RAII span: active only in traced iterations.
class Span {
 public:
  Span(ThreadCtx& t, std::uint16_t name) : t_(t.traced ? &t : nullptr) {
    if (t_) t_->tr.begin(name);
  }
  ~Span() {
    if (t_) t_->tr.end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadCtx* t_;
};

// Wraps one call into the engine: a span in traced iterations, a latency
// sample (1 call in `stride` per role) in the untraced measured phase.
class CoreCall {
 public:
  CoreCall(ThreadCtx& t, Role r, std::uint16_t name, unsigned stride = 1)
      : t_(t), r_(r), span_(t.traced) {
    if (span_) {
      t_.tr.begin(name);
    } else if (t_.sampled && t_.lat_tick[r]++ % stride == 0) {
      timed_ = true;
      t0_ = now_ticks();
    }
  }
  ~CoreCall() {
    if (span_)
      t_.tr.end();
    else if (timed_)
      t_.lat[t_.phase][r_].add(now_ticks() - t0_, t_.lat_rng);
  }
  CoreCall(const CoreCall&) = delete;
  CoreCall& operator=(const CoreCall&) = delete;

 private:
  ThreadCtx& t_;
  Role r_;
  bool span_;
  bool timed_ = false;
  Ticks t0_ = 0;
};

// ---- machine facts -----------------------------------------------------------

inline double rss_bytes() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  f >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

inline std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

inline std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      if (p != std::string::npos) return line.substr(p + 2);
    }
  }
  return "unknown";
}

#ifndef JB_CXX_FLAGS
#define JB_CXX_FLAGS "unknown"
#endif

#if defined(__clang__)
inline const std::string kCompiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
inline const std::string kCompiler = std::string("gcc ") + __VERSION__;
#else
inline const std::string kCompiler = "unknown";
#endif

// Box fingerprint printed with every result, so numbers from boxes of
// different shapes are never compared by mistake.
inline std::string box_json(std::uint64_t seed) {
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"nproc\": %ld, \"cpu\": \"%s\", \"l2_bytes\": %ld, \"l3_bytes\": %ld, "
      "\"compiler\": \"%s\", \"flags\": \"%s\", \"seed\": %llu}",
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
      sysconf(_SC_LEVEL2_CACHE_SIZE), sysconf(_SC_LEVEL3_CACHE_SIZE),
      json_escape(kCompiler).c_str(), JB_CXX_FLAGS,
      static_cast<unsigned long long>(seed));
  return buf;
}

// ---- result printing ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

inline std::string metrics_json(const std::vector<Metric>& ms) {
  std::string o = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    o += buf;
  }
  return o + "}";
}

}  // namespace jb
