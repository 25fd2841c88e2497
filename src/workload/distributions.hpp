// Key distributions for workload generation.
//
// Uniform, Zipfian (YCSB-style analytic generator — Gray et al.'s
// "Quickly generating billion-record synthetic databases" method, no
// per-key tables so it scales to 2^30 universes), and a clustered
// distribution that confines traffic to a hot range to dial contention
// up.
#pragma once

#include <cstdint>

#include "core/types.hpp"
#include "sync/random.hpp"

namespace lfbt {

class KeyDistribution {
 public:
  virtual ~KeyDistribution() = default;
  /// Next key in [0, range) driven by `rng`.
  virtual Key sample(Xoshiro256& rng) = 0;
  virtual Key range() const = 0;
};

class UniformDist final : public KeyDistribution {
 public:
  explicit UniformDist(Key range) : range_(range) {}
  Key sample(Xoshiro256& rng) override {
    return static_cast<Key>(rng.bounded(static_cast<uint64_t>(range_)));
  }
  Key range() const override { return range_; }

 private:
  Key range_;
};

/// Zipf over {0..range-1} with exponent theta in [0, 1); theta = 0 is
/// uniform, 0.99 is the YCSB default "heavy skew". Hot keys are scattered
/// over the range by a multiplicative hash so skew does not align with key
/// order.
class ZipfDist final : public KeyDistribution {
 public:
  ZipfDist(Key range, double theta);
  Key sample(Xoshiro256& rng) override;
  Key range() const override { return range_; }

 private:
  Key range_;
  double theta_;
  double zetan_;
  double zeta2_;
  double alpha_;
  double eta_;
};

/// Uniform over a window [base, base + width) of the universe.
class ClusteredDist final : public KeyDistribution {
 public:
  ClusteredDist(Key range, Key width)
      : range_(range), width_(width < 1 ? 1 : (width > range ? range : width)) {}
  Key sample(Xoshiro256& rng) override {
    return static_cast<Key>(rng.bounded(static_cast<uint64_t>(width_)));
  }
  Key range() const override { return range_; }

 private:
  Key range_;
  Key width_;
};

}  // namespace lfbt
