#pragma once

// Memory-bounded fusion primitives.
//
// The mean-family statistics (FedAvg/FedProx/FedNova) are linear: the fused
// state is sum_i (w_i / W) * state_i with W known up front from the member
// weights alone.  StreamingWeightedSum exploits that — it folds one member at
// a time into a single accumulator (O(model) RAM, not O(cohort));
// weighted_state_average_into is implemented on top of it.
//
// Order statistics (trimmed mean / median) are not streamable: they need all
// member values per coordinate.  FusionReservoir is the graceful-degradation
// fallback — it retains the first `capacity` members in arrival (canonical)
// order and drops the rest, counting them, so a bounded server computes the
// exact statistic over a deterministic subset instead of crashing.  A
// reservoir that dropped members marks the round `degraded` in RoundRecord.

#include <cstddef>
#include <vector>

#include "core/tensor.hpp"
#include "nn/module.hpp"

namespace fedkemf::fl {

/// Streaming weighted mean over module states.  Usage:
///   StreamingWeightedSum sum(global, total_weight);
///   for (member : members) sum.add(member, weight);   // canonical order!
///   sum.finalize();
/// finalize() restores the accumulated mean into the target module.  Members
/// must be added in the same canonical order the batch helpers use, or the
/// result (while mathematically equal) will not be bitwise-identical.
class StreamingWeightedSum {
 public:
  /// `total_weight` is the sum of every weight that will be add()ed; it must
  /// be positive and known up front (shard sizes and staleness discounts are
  /// cheap scalars — no member state is needed to compute it).
  StreamingWeightedSum(nn::Module& target, double total_weight);

  /// Folds a live module's state in at weight / total_weight.
  void add(nn::Module& member, double weight);
  /// Folds a raw state snapshot (snapshot_state layout) in.
  void add(const std::vector<core::Tensor>& state, double weight);

  std::size_t members_added() const { return members_; }

  /// Writes the accumulated mean back into the target.  Call exactly once,
  /// after every member is added; throws if no member was added.
  void finalize();

 private:
  nn::Module& target_;
  double total_weight_;
  std::vector<core::Tensor> accumulator_;
  std::size_t members_ = 0;
  bool finalized_ = false;
};

/// Bounded holder for fusion members of non-streamable statistics.  Keeps the
/// first `capacity` offered snapshots (capacity 0 = unbounded) in arrival
/// order; later offers are dropped and counted.  Deterministic by
/// construction: same offer order -> same kept set.
class FusionReservoir {
 public:
  explicit FusionReservoir(std::size_t capacity) : capacity_(capacity) {}

  /// Takes ownership of `state` when kept; returns false (and counts the
  /// drop) when the reservoir is full.
  bool offer(std::vector<core::Tensor> state);

  const std::vector<std::vector<core::Tensor>>& members() const { return members_; }
  std::size_t dropped() const { return dropped_; }
  /// True when at least one member was shed — the statistic downstream is
  /// exact over a subset, i.e. the round ran degraded.
  bool degraded() const { return dropped_ > 0; }

 private:
  std::size_t capacity_;
  std::vector<std::vector<core::Tensor>> members_;
  std::size_t dropped_ = 0;
};

}  // namespace fedkemf::fl
