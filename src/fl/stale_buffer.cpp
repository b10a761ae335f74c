#include "fl/stale_buffer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fedkemf::fl {

double staleness_weight(std::size_t staleness, double alpha) {
  if (staleness == 0) return 1.0;
  return 1.0 / std::pow(1.0 + static_cast<double>(staleness), alpha);
}

std::size_t stale_update_bytes(const StaleUpdate& update) {
  std::size_t bytes = sizeof(StaleUpdate) + update.scalars.size() * sizeof(double);
  for (const core::Tensor& tensor : update.state) bytes += tensor.numel() * sizeof(float);
  for (const core::Tensor& tensor : update.extra_state) {
    bytes += tensor.numel() * sizeof(float);
  }
  return bytes;
}

void DueUpdates::keep_newest(std::size_t count) {
  const auto drop = static_cast<std::ptrdiff_t>(updates.size() - std::min(count, updates.size()));
  updates.erase(updates.begin(), updates.begin() + drop);
  weights.erase(weights.begin(), weights.begin() + drop);
}

StaleUpdateBuffer::StaleUpdateBuffer(StalenessOptions options) : options_(options) {
  if (!(options_.alpha >= 0.0)) {
    throw std::invalid_argument("StaleUpdateBuffer: alpha must be >= 0");
  }
  if (options_.buffer_capacity == 0) {
    throw std::invalid_argument("StaleUpdateBuffer: buffer_capacity must be positive");
  }
}

void StaleUpdateBuffer::push(StaleUpdate update) {
  if (update.due_round <= update.origin_round) {
    throw std::invalid_argument("StaleUpdateBuffer: due_round must follow origin_round");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  charge(update);
  entries_.push_back(std::move(update));
}

void StaleUpdateBuffer::set_memory_budget(core::MemoryBudget* budget) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (budget_ != nullptr && budget_ != budget) {
    budget_->release(core::BudgetCategory::kStaleBuffer, resident_bytes_);
  }
  budget_ = budget;
  if (budget_ != nullptr) {
    budget_->charge(core::BudgetCategory::kStaleBuffer, resident_bytes_);
  }
}

void StaleUpdateBuffer::charge(const StaleUpdate& update) {
  const std::size_t bytes = stale_update_bytes(update);
  resident_bytes_ += bytes;
  if (budget_ != nullptr) budget_->charge(core::BudgetCategory::kStaleBuffer, bytes);
}

void StaleUpdateBuffer::release(const StaleUpdate& update) {
  const std::size_t bytes = stale_update_bytes(update);
  resident_bytes_ -= std::min(resident_bytes_, bytes);
  if (budget_ != nullptr) budget_->release(core::BudgetCategory::kStaleBuffer, bytes);
}

void StaleUpdateBuffer::sort_entries() {
  std::sort(entries_.begin(), entries_.end(),
            [](const StaleUpdate& a, const StaleUpdate& b) {
              if (a.origin_round != b.origin_round) return a.origin_round < b.origin_round;
              return a.client_id < b.client_id;
            });
}

std::vector<StaleUpdate> StaleUpdateBuffer::take_due(std::size_t round) {
  std::lock_guard<std::mutex> lock(mutex_);
  sort_entries();

  std::vector<StaleUpdate> due;
  std::vector<StaleUpdate> keep;
  for (StaleUpdate& entry : entries_) {
    (entry.due_round <= round ? due : keep).push_back(std::move(entry));
  }
  for (const StaleUpdate& entry : due) release(entry);
  // Capacity applies to what stays buffered: evict oldest-origin-first (the
  // front after the canonical sort), counting the loss.
  if (keep.size() > options_.buffer_capacity) {
    const std::size_t excess = keep.size() - options_.buffer_capacity;
    evicted_ += excess;
    for (std::size_t i = 0; i < excess; ++i) release(keep[i]);
    keep.erase(keep.begin(), keep.begin() + static_cast<std::ptrdiff_t>(excess));
  }
  // Under memory pressure, parked late uploads are the lowest-priority
  // resident state: shed oldest-origin-first until the shared budget clears
  // its high-water mark.  Deterministic — the canonical sort fixed the order.
  while (budget_ != nullptr && budget_->over_high_water() && !keep.empty()) {
    ++budget_evicted_;
    release(keep.front());
    keep.erase(keep.begin());
  }
  entries_ = std::move(keep);
  return due;
}

DueUpdates StaleUpdateBuffer::take_due_discounted(std::size_t round) {
  DueUpdates due;
  for (StaleUpdate& update : take_due(round)) {
    const double discount = weight(round - update.origin_round);
    if (discount <= 0.0) continue;
    due.updates.push_back(std::move(update));
    due.weights.push_back(discount);
  }
  return due;
}

std::size_t StaleUpdateBuffer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t StaleUpdateBuffer::evicted_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

std::size_t StaleUpdateBuffer::budget_evicted_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return budget_evicted_;
}

std::size_t StaleUpdateBuffer::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

void StaleUpdateBuffer::save_state(core::ByteWriter& writer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Serialize in canonical order so the checkpoint bytes are independent of
  // the thread-arrival order within the crashed round.
  const_cast<StaleUpdateBuffer*>(this)->sort_entries();
  writer.write_u64(static_cast<std::uint64_t>(evicted_));
  writer.write_u64(static_cast<std::uint64_t>(budget_evicted_));
  writer.write_u64(static_cast<std::uint64_t>(entries_.size()));
  for (const StaleUpdate& entry : entries_) {
    writer.write_u64(static_cast<std::uint64_t>(entry.client_id));
    writer.write_u64(static_cast<std::uint64_t>(entry.origin_round));
    writer.write_u64(static_cast<std::uint64_t>(entry.due_round));
    writer.write_u64(static_cast<std::uint64_t>(entry.state.size()));
    for (const core::Tensor& tensor : entry.state) core::write_tensor(writer, tensor);
    writer.write_u64(static_cast<std::uint64_t>(entry.extra_state.size()));
    for (const core::Tensor& tensor : entry.extra_state) core::write_tensor(writer, tensor);
    writer.write_u64(static_cast<std::uint64_t>(entry.scalars.size()));
    for (const double value : entry.scalars) writer.write_f64(value);
  }
}

void StaleUpdateBuffer::load_state(core::ByteReader& reader) {
  std::lock_guard<std::mutex> lock(mutex_);
  evicted_ = static_cast<std::size_t>(reader.read_u64());
  budget_evicted_ = static_cast<std::size_t>(reader.read_u64());
  const std::uint64_t count = reader.read_u64();
  if (budget_ != nullptr) {
    budget_->release(core::BudgetCategory::kStaleBuffer, resident_bytes_);
  }
  resident_bytes_ = 0;
  entries_.clear();
  entries_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    StaleUpdate entry;
    entry.client_id = static_cast<std::size_t>(reader.read_u64());
    entry.origin_round = static_cast<std::size_t>(reader.read_u64());
    entry.due_round = static_cast<std::size_t>(reader.read_u64());
    const std::uint64_t states = reader.read_u64();
    entry.state.reserve(static_cast<std::size_t>(states));
    for (std::uint64_t t = 0; t < states; ++t) entry.state.push_back(core::read_tensor(reader));
    const std::uint64_t extras = reader.read_u64();
    entry.extra_state.reserve(static_cast<std::size_t>(extras));
    for (std::uint64_t t = 0; t < extras; ++t) {
      entry.extra_state.push_back(core::read_tensor(reader));
    }
    const std::uint64_t scalars = reader.read_u64();
    entry.scalars.reserve(static_cast<std::size_t>(scalars));
    for (std::uint64_t s = 0; s < scalars; ++s) entry.scalars.push_back(reader.read_f64());
    charge(entry);
    entries_.push_back(std::move(entry));
  }
}

}  // namespace fedkemf::fl
