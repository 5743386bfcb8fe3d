// Compile-time registry of the benchmark indices (paper §4.1). Each entry
// is a real implementation in this tree, named for what it is: jiffy, cslm,
// the lf-list differential reference and the locked-map reference (a
// mutexed std::map). run_all.sh sweeps only jiffy and cslm by default
// (lf-list: O(n) searches; locked-map: one global lock). The paper's other
// baselines (k-ary, the CA trees, lfca, kiwi) are not ported.
#pragma once

#include <cstddef>

namespace jiffy::baselines {

struct AdapterInfo {
  const char* name;        // --index= spelling in the harness
  const char* description;
  bool atomic_batches;     // participates in the batch rows of the figures
  // Every adapter models MapApi (forward/reverse/range scans included); this
  // flag records whether multi-entry reads are snapshot-consistent (Jiffy's
  // versioned scans, locked-map's global lock) or weakly consistent (CSLM).
  bool snapshot_scans;
};

inline constexpr AdapterInfo kAdapterRegistry[] = {
    {"jiffy", "this tree's JiffyMap (paper's subject)", true, true},
    {"cslm", "lock-free skip list, Herlihy-Shavit style (Java CSLM analogue)",
     false, false},
    {"lf-list", "Fomitchev-Ruppert lock-free linked list", false, false},
    {"locked-map", "std::map behind one mutex (reference lower bound)", true,
     true},
};

inline constexpr std::size_t kAdapterCount =
    sizeof(kAdapterRegistry) / sizeof(kAdapterRegistry[0]);

constexpr const AdapterInfo* adapter_info(const char* name) {
  for (const AdapterInfo& a : kAdapterRegistry) {
    const char* p = a.name;
    const char* q = name;
    while (*p && *q && *p == *q) {
      ++p;
      ++q;
    }
    if (*p == '\0' && *q == '\0') return &a;
  }
  return nullptr;
}

}  // namespace jiffy::baselines
