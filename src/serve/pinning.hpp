// Worker placement: core pinning with a topology probe and graceful
// degradation (src/serve/, the serve-at-scale front door).
//
// Closed-loop microbenches tolerate the scheduler bouncing workers across
// cores; a serving stack does not — a migrated worker drags its arena
// chunk cursors, scratch buffers and announcement-list cache lines to a
// cold core and pays the refill on the next request. The workload
// harness (`BenchConfig::pin`, which E16 sets) and `workbench --pin`
// route through here.
//
// The probe asks the OS which CPUs this thread may use (containers and
// cgroup-restricted CI hosts often allow a strict subset of the machine),
// then orders them so that consecutive worker indices land on distinct
// physical cores before doubling up on SMT siblings (core-id read from
// sysfs when available). Everything degrades gracefully:
//   * affinity syscall unavailable / denied  -> pin_* return false,
//   * sysfs topology unreadable              -> allowed-CPU order as-is,
//   * non-Linux platform                     -> probe reports the CPU
//     count and `restricted`, pinning is a documented no-op.
// Callers must treat a false return as "run unpinned", never as an error:
// the structures are placement-oblivious; pinning is a performance layer.
#pragma once

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace lfbt::serve {

/// What the placement layer discovered about this host.
struct Topology {
  /// CPUs this process may run on, ordered distinct-physical-core-first
  /// (worker i pins to cpus[i % cpus.size()]). Never empty: falls back to
  /// {0, ..., hardware_concurrency-1} when the probe fails.
  std::vector<int> cpus;
  /// True when the affinity probe failed (or the platform has no such
  /// API) and `cpus` is the synthetic fallback — pinning will likely
  /// return false, and reported placement is a guess.
  bool restricted = false;
};

namespace detail {

#if defined(__linux__)
/// Physical core id of `cpu` from sysfs, or -1 (then -1 sorts the CPUs
/// in their original order, a fine fallback).
inline int core_id_of(int cpu) {
  char path[128];
  std::snprintf(path, sizeof(path),
                "/sys/devices/system/cpu/cpu%d/topology/core_id", cpu);
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return -1;
  int id = -1;
  if (std::fscanf(f, "%d", &id) != 1) id = -1;
  std::fclose(f);
  return id;
}
#endif

inline Topology probe() {
  Topology t;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) t.cpus.push_back(cpu);
    }
  }
  if (!t.cpus.empty()) {
    // Distinct-core-first order: stable round-robin over core ids, so
    // workers spread across physical cores before sharing SMT siblings.
    std::vector<std::pair<int, int>> keyed;  // (core_id, cpu)
    keyed.reserve(t.cpus.size());
    for (int cpu : t.cpus) keyed.emplace_back(core_id_of(cpu), cpu);
    std::vector<int> ordered;
    ordered.reserve(t.cpus.size());
    std::vector<bool> taken(keyed.size(), false);
    while (ordered.size() < keyed.size()) {
      int last_core = -2;
      for (std::size_t i = 0; i < keyed.size(); ++i) {
        if (taken[i]) continue;
        if (keyed[i].first == last_core && keyed[i].first != -1) continue;
        ordered.push_back(keyed[i].second);
        taken[i] = true;
        last_core = keyed[i].first;
      }
    }
    t.cpus = std::move(ordered);
    return t;
  }
#endif
  t.restricted = true;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  for (unsigned i = 0; i < hw; ++i) t.cpus.push_back(static_cast<int>(i));
  return t;
}

}  // namespace detail

/// Cached host topology (probed once, thread-safe via static init).
inline const Topology& topology() {
  static const Topology t = detail::probe();
  return t;
}

/// Pin the calling thread to one specific CPU. Returns false (leaving the
/// thread unpinned) when the CPU is outside the allowed set or the
/// affinity call is denied — restricted containers land here.
inline bool pin_self_to_cpu(int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

/// Pin worker `index` to its place in the topology's distinct-core-first
/// order. The mapping is stable for a fixed host, so re-runs compare like
/// with like. Returns false when pinning is unavailable (run unpinned).
inline bool pin_self(int index) {
  const Topology& t = topology();
  if (t.cpus.empty() || index < 0) return false;
  return pin_self_to_cpu(t.cpus[static_cast<std::size_t>(index) % t.cpus.size()]);
}

/// CPU the calling thread is currently on, or -1 when unknowable.
inline int current_cpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

}  // namespace lfbt::serve
