#pragma once

// Server-side buffer for post-deadline client uploads.
//
// When a sampled client misses the round deadline it is a straggler — but
// its local work is finished and its upload is merely in flight.  Instead of
// discarding it, the algorithm parks the staged update here together with
// the round it was trained against (origin_round) and the round the upload
// reaches the server (due_round = origin_round + lateness).  At aggregation
// time the server drains everything due and folds it into the fusion with
// the FedBuff-style discounted weight w = 1 / (1 + s)^alpha, s = current
// round - origin_round.
//
// Thread-safety/determinism: push() is called from the parallel client
// section, so arrival order depends on the thread pool — take_due() sorts
// canonically by (origin_round, client_id) before returning, making the
// consumed sequence (and the capacity evictions) a pure function of the
// buffer content, bit-identical across thread counts.
//
// The buffer is part of the durable run state: save_state/load_state
// serialize every entry (tensors included) so a resumed run replays the same
// late arrivals the uninterrupted run would have seen.

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/memory_budget.hpp"
#include "core/serialize.hpp"
#include "core/tensor.hpp"
#include "fl/config.hpp"

namespace fedkemf::fl {

/// One parked late upload: the client's staged post-training state plus
/// whatever extras its algorithm needs to apply it later (SCAFFOLD control
/// variates in `extra_state`, FedNova's tau / SCAFFOLD's lr*K in `scalars`).
struct StaleUpdate {
  std::size_t client_id = 0;
  std::size_t origin_round = 0;  ///< round the client trained in
  std::size_t due_round = 0;     ///< round the upload reaches the server
  std::vector<core::Tensor> state;
  std::vector<core::Tensor> extra_state;
  std::vector<double> scalars;
};

/// Approximate resident footprint of one parked update (tensor payloads plus
/// a small fixed overhead) — the quantity charged to the memory budget.
std::size_t stale_update_bytes(const StaleUpdate& update);

/// The entries due at one round with their staleness discounts, in
/// take_due's canonical order.
struct DueUpdates {
  std::vector<StaleUpdate> updates;
  std::vector<double> weights;  ///< parallel to updates, all > 0

  bool empty() const { return updates.empty(); }
  std::size_t size() const { return updates.size(); }
  /// Keeps the `count` newest entries (the back), dropping the oldest.
  void keep_newest(std::size_t count);
};

/// w = 1 / (1 + s)^alpha, with the s == 0 case pinned to exactly 1.0 so a
/// zero-lateness "stale" update is indistinguishable from a fresh one.
double staleness_weight(std::size_t staleness, double alpha);

class StaleUpdateBuffer {
 public:
  explicit StaleUpdateBuffer(StalenessOptions options);

  const StalenessOptions& options() const { return options_; }

  /// Parks one late upload.  Thread-safe; callable from the parallel client
  /// section.  Capacity is enforced at the next take_due() so a burst within
  /// one round cannot evict entries in thread-arrival order.
  void push(StaleUpdate update);

  /// Removes and returns every entry with due_round <= round, sorted by
  /// (origin_round, client_id); also applies the capacity bound to what
  /// stays (oldest origin evicted first).  Call once per round, before
  /// aggregation, from the coordinating thread.
  std::vector<StaleUpdate> take_due(std::size_t round);

  /// take_due with each entry's discount weight(round - origin_round),
  /// skipping entries whose discount underflowed to zero (alpha -> inf
  /// therefore reproduces the discard policy bitwise).
  DueUpdates take_due_discounted(std::size_t round);

  std::size_t size() const;
  /// Entries lost to the capacity bound across the run.
  std::size_t evicted_total() const;
  /// Entries additionally shed because the shared memory budget was over its
  /// high-water mark (stale uploads are the lowest-priority resident state).
  std::size_t budget_evicted_total() const;
  /// Bytes currently charged against the memory budget by parked entries.
  std::size_t resident_bytes() const;

  /// Installs (or clears) the shared memory budget.  Entries charge
  /// BudgetCategory::kStaleBuffer on push and release on drain/eviction; when
  /// the budget is over its high-water mark, take_due() sheds
  /// oldest-origin-first beyond the usual capacity bound.  The owner of the
  /// budget must outlive the buffer or clear the pointer first.
  void set_memory_budget(core::MemoryBudget* budget);

  /// Discount for an `staleness`-rounds-old update under this buffer's alpha.
  double weight(std::size_t staleness) const {
    return staleness_weight(staleness, options_.alpha);
  }

  void save_state(core::ByteWriter& writer) const;
  void load_state(core::ByteReader& reader);

 private:
  void sort_entries();  ///< caller holds mutex_

  void charge(const StaleUpdate& update);   ///< caller holds mutex_
  void release(const StaleUpdate& update);  ///< caller holds mutex_

  StalenessOptions options_;
  mutable std::mutex mutex_;
  std::vector<StaleUpdate> entries_;
  std::size_t evicted_ = 0;
  std::size_t budget_evicted_ = 0;
  std::size_t resident_bytes_ = 0;
  core::MemoryBudget* budget_ = nullptr;
};

}  // namespace fedkemf::fl
