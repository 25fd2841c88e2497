// Standard-library reference set, per the TKTRIE2 comparison methodology:
// what a production team reaches for first — a `std::map`-family
// red-black tree under one global mutex (here std::set<Key>, the exact
// set-workload analogue). Tests use it as a reference structure, also
// behind the same KeyspaceView codec round trip as the tries; it is the
// planned `std` rung of stackbench's ladder (ROADMAP 2(b)).
#pragma once

#include <cstddef>
#include <mutex>
#include <set>
#include <vector>

#include "core/types.hpp"
#include "query/range_scan.hpp"

namespace lfbt {

/// std::set (red-black tree) under one global mutex. Full ordered
/// surface; every op serialises.
class LockedStdSet {
 public:
  explicit LockedStdSet(Key universe) : u_(universe) {}

  void insert(Key x) {
    std::lock_guard lock(mu_);
    set_.insert(x);
  }
  void erase(Key x) {
    std::lock_guard lock(mu_);
    set_.erase(x);
  }
  bool contains(Key x) {
    std::lock_guard lock(mu_);
    return set_.count(x) != 0;
  }
  Key predecessor(Key y) {
    std::lock_guard lock(mu_);
    auto it = set_.lower_bound(y);
    return it == set_.begin() ? kNoKey : *std::prev(it);
  }
  Key successor(Key y) {
    std::lock_guard lock(mu_);
    auto it = set_.upper_bound(y);
    return it == set_.end() ? kNoKey : *it;
  }
  std::size_t range_scan(Key lo, Key hi, std::size_t limit,
                         std::vector<Key>& out) {
    std::lock_guard lock(mu_);
    std::size_t n = 0;
    for (auto it = set_.lower_bound(lo); it != set_.end() && *it <= hi; ++it) {
      if (n == limit) break;
      out.push_back(*it);
      ++n;
    }
    return n;
  }
  /// Lock held for the walk: exact snapshot, always atomic.
  ScanResult range_scan_validated(Key lo, Key hi, std::size_t limit,
                                  std::vector<Key>& out,
                                  uint32_t /*max_retries*/ = 0) {
    ScanResult r;
    r.n = range_scan(lo, hi, limit, out);
    r.atomic = true;
    return r;
  }
  std::size_t size() const {
    std::lock_guard lock(mu_);
    return set_.size();
  }
  bool empty() const { return size() == 0; }
  Key universe() const noexcept { return u_; }

 private:
  const Key u_;
  mutable std::mutex mu_;
  std::set<Key> set_;
};

}  // namespace lfbt
