// Mutex-guarded std::map: the `locked-map` reference index. It is
// sequentially correct — including atomic batches and consistent scans,
// both trivially, under the lock — and it is a lower bound on concurrency:
// every call serializes on one mutex. It models MapApi directly.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "workload/keyvalue.h"

namespace jiffy::baselines {

template <class K, class V, class Less = std::less<K>>
class LockedMap {
 public:
  using key_type = K;
  using mapped_type = V;

  bool put(const K& k, const V& v) {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.insert_or_assign(k, v).second;
  }

  bool erase(const K& k) {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.erase(k) > 0;
  }

  std::optional<V> get(const K& k) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(k);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  bool contains(const K& k) const {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.find(k) != map_.end();
  }

  std::size_t approx_size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.size();  // exact under the lock
  }

  void apply(Batch<K, V> b) {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& op : b.ops()) {
      if (op.kind == BatchOp<K, V>::Kind::kPut)
        map_.insert_or_assign(op.key, op.value);
      else
        map_.erase(op.key);
    }
  }

  template <class F>
  std::size_t scan_n(const K& from, std::size_t n, F&& f) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t emitted = 0;
    for (auto it = map_.lower_bound(from); it != map_.end() && emitted < n;
         ++it, ++emitted)
      f(it->first, it->second);
    return emitted;
  }

  // Descending visit of up to n entries with key <= from.
  template <class F>
  std::size_t rscan_n(const K& from, std::size_t n, F&& f) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t emitted = 0;
    for (auto it = map_.upper_bound(from);
         it != map_.begin() && emitted < n;) {
      --it;
      f(it->first, it->second);
      ++emitted;
    }
    return emitted;
  }

  // Ordered visit of every entry in the half-open range [lo, hi).
  template <class F>
  std::size_t range_scan(const K& lo, const K& hi, F&& f) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t emitted = 0;
    for (auto it = map_.lower_bound(lo);
         it != map_.end() && map_.key_comp()(it->first, hi); ++it) {
      f(it->first, it->second);
      ++emitted;
    }
    return emitted;
  }

 private:
  mutable std::mutex mu_;
  std::map<K, V, Less> map_;
};

}  // namespace jiffy::baselines
