// Uniform adapter layer between the figure harness and every index it
// benchmarks, pinned down by the MapApi concept: CRUD + contains /
// approx_size, typed atomic-batch apply, forward/reverse bounded scans and
// a half-open range scan. The harness templates are constrained on MapApi,
// so adding an index is "make it model the concept" — no per-index special
// cases. registry.h lists the indices by their --index= names.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "baselines/cslm.h"
#include "baselines/lf_list.h"
#include "baselines/locked_map.h"
#include "baselines/registry.h"
#include "core/jiffy.h"
#include "workload/keyvalue.h"

namespace jiffy {

// The single surface the harness compiles against. `scan_n` visits up to n
// entries with key >= from in ascending order; `rscan_n` up to n entries
// with key <= from in descending order; `range_scan` every entry in the
// half-open range [lo, hi) ascending. All three return the visit count.
// `apply` consumes a typed Batch (atomic where the index supports it — see
// registry.h). `approx_size` is O(1) and may be transiently off by
// in-flight operations.
template <class A>
concept MapApi = requires(A& a, const A& ca, const typename A::key_type& k,
                          const typename A::mapped_type& v,
                          Batch<typename A::key_type,
                                typename A::mapped_type> b) {
  { a.put(k, v) } -> std::same_as<bool>;
  { a.erase(k) } -> std::same_as<bool>;
  { ca.get(k) } -> std::same_as<std::optional<typename A::mapped_type>>;
  { ca.contains(k) } -> std::same_as<bool>;
  { ca.approx_size() } -> std::same_as<std::size_t>;
  { a.apply(std::move(b)) } -> std::same_as<void>;
  { ca.scan_n(k, std::size_t{1},
              [](const typename A::key_type&,
                 const typename A::mapped_type&) {}) }
      -> std::same_as<std::size_t>;
  { ca.rscan_n(k, std::size_t{1},
               [](const typename A::key_type&,
                  const typename A::mapped_type&) {}) }
      -> std::same_as<std::size_t>;
  { ca.range_scan(k, k,
                  [](const typename A::key_type&,
                     const typename A::mapped_type&) {}) }
      -> std::same_as<std::size_t>;
};

template <class K, class V>
class JiffyAdapter {
 public:
  using key_type = K;
  using mapped_type = V;

  bool put(const K& k, const V& v) { return map_.put(k, v); }
  bool erase(const K& k) { return map_.erase(k); }
  std::optional<V> get(const K& k) const { return map_.get(k); }
  bool contains(const K& k) const { return map_.contains(k); }
  std::size_t approx_size() const { return map_.approx_size(); }
  void apply(Batch<K, V> b) { map_.apply(std::move(b)); }
  template <class F>
  std::size_t scan_n(const K& from, std::size_t n, F&& f) const {
    return map_.scan_n(from, n, std::forward<F>(f));
  }
  template <class F>
  std::size_t rscan_n(const K& from, std::size_t n, F&& f) const {
    return map_.rscan_n(from, n, std::forward<F>(f));
  }
  template <class F>
  std::size_t range_scan(const K& lo, const K& hi, F&& f) const {
    return map_.range_scan(lo, hi, std::forward<F>(f));
  }
  JiffyMap<K, V>& underlying() { return map_; }

 private:
  JiffyMap<K, V> map_;
};

template <class K, class V>
class CslmAdapter {
 public:
  using key_type = K;
  using mapped_type = V;

  bool put(const K& k, const V& v) { return map_.put(k, v); }
  bool erase(const K& k) { return map_.erase(k); }
  std::optional<V> get(const K& k) const { return map_.get(k); }
  bool contains(const K& k) const { return map_.contains(k); }
  std::size_t approx_size() const { return map_.approx_size(); }
  void apply(Batch<K, V> b) { map_.apply(std::move(b)); }
  template <class F>
  std::size_t scan_n(const K& from, std::size_t n, F&& f) const {
    return map_.scan_n(from, n, std::forward<F>(f));
  }
  template <class F>
  std::size_t rscan_n(const K& from, std::size_t n, F&& f) const {
    return map_.rscan_n(from, n, std::forward<F>(f));
  }
  template <class F>
  std::size_t range_scan(const K& lo, const K& hi, F&& f) const {
    return map_.range_scan(lo, hi, std::forward<F>(f));
  }

 private:
  baselines::CslmMap<K, V> map_;
};

template <class K, class V>
class LfListAdapter {
 public:
  using key_type = K;
  using mapped_type = V;

  bool put(const K& k, const V& v) { return map_.put(k, v); }
  bool erase(const K& k) { return map_.erase(k); }
  std::optional<V> get(const K& k) const { return map_.get(k); }
  bool contains(const K& k) const { return map_.contains(k); }
  std::size_t approx_size() const { return map_.approx_size(); }
  void apply(Batch<K, V> b) { map_.apply(std::move(b)); }
  template <class F>
  std::size_t scan_n(const K& from, std::size_t n, F&& f) const {
    return map_.scan_n(from, n, std::forward<F>(f));
  }
  template <class F>
  std::size_t rscan_n(const K& from, std::size_t n, F&& f) const {
    return map_.rscan_n(from, n, std::forward<F>(f));
  }
  template <class F>
  std::size_t range_scan(const K& lo, const K& hi, F&& f) const {
    return map_.range_scan(lo, hi, std::forward<F>(f));
  }

 private:
  baselines::LfList<K, V> map_;
};

// The locked-map reference models MapApi as it is.
template <class K, class V>
using LockedMapAdapter = baselines::LockedMap<K, V>;

static_assert(MapApi<JiffyAdapter<std::uint64_t, std::uint64_t>>);
static_assert(MapApi<CslmAdapter<std::uint64_t, std::uint64_t>>);
static_assert(MapApi<LfListAdapter<std::uint64_t, std::uint64_t>>);
static_assert(MapApi<LockedMapAdapter<std::uint64_t, std::uint64_t>>);

}  // namespace jiffy
