#include "fl/fedavg.hpp"

#include <mutex>
#include <stdexcept>

#include "fl/checkpoint/state_io.hpp"
#include "models/flops.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace fedkemf::fl {

FedAvg::FedAvg(models::ModelSpec spec, LocalTrainConfig local_config)
    : spec_(std::move(spec)), local_config_(local_config) {}

void FedAvg::setup(Federation& federation) {
  federation_ = &federation;
  core::Rng init_rng = federation.root_rng().fork(0x91055E8FULL);
  global_ = models::build_model(spec_, init_rng);
  slots_.clear();
  slots_.resize(federation.num_clients());
}

nn::Module& FedAvg::global_model() {
  if (!global_) throw std::logic_error("FedAvg: setup() not called");
  return *global_;
}

Federation& FedAvg::federation() {
  if (federation_ == nullptr) throw std::logic_error("FedAvg: setup() not called");
  return *federation_;
}

FedAvg::Slot& FedAvg::slot(std::size_t client_id) {
  Slot& s = slots_.at(client_id);
  if (!s.model) {
    // Weights are immediately overwritten by the downlink transfer; the init
    // rng only has to produce a valid instance.
    core::Rng rng = federation().root_rng().fork(0x510700ULL + client_id);
    s.model = models::build_model(spec_, rng);
    s.staged = models::build_model(spec_, rng);
    if (memory_budget_ != nullptr) {
      memory_budget_->charge(
          core::BudgetCategory::kClientState,
          (nn::state_numel(*s.model) + nn::state_numel(*s.staged)) * sizeof(float));
    }
  }
  return s;
}

void FedAvg::save_state(core::ByteWriter& writer) {
  Algorithm::save_state(writer);
  writer.write_u32(static_cast<std::uint32_t>(slots_.size()));
  for (Slot& s : slots_) {
    writer.write_u8(s.model ? 1 : 0);
    if (s.model) {
      ckpt::write_module_rng_streams(writer, *s.model);
      ckpt::write_module_rng_streams(writer, *s.staged);
    }
  }
}

void FedAvg::load_state(core::ByteReader& reader) {
  Algorithm::load_state(reader);
  const std::uint32_t count = reader.read_u32();
  if (count != slots_.size()) {
    throw std::runtime_error("FedAvg::load_state: checkpoint has " +
                             std::to_string(count) + " slots, federation has " +
                             std::to_string(slots_.size()));
  }
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    if (reader.read_u8() == 0) continue;
    Slot& s = slot(id);  // rebuild lazily, exactly as the original run did
    ckpt::read_module_rng_streams(reader, *s.model);
    ckpt::read_module_rng_streams(reader, *s.staged);
  }
}

GradHook FedAvg::make_grad_hook(std::size_t client_id, nn::Module& client_model) {
  (void)client_id;
  (void)client_model;
  return {};
}

void FedAvg::after_local_update(std::size_t round_index, std::size_t client_id,
                                Slot& client_slot, const LocalTrainResult& result) {
  (void)round_index;
  (void)client_id;
  (void)client_slot;
  (void)result;
}

void FedAvg::fill_stale_extras(std::size_t round_index, std::size_t client_id,
                               const LocalTrainResult& result, StaleUpdate& update) {
  (void)client_id;
  update.scalars.push_back(static_cast<double>(result.steps));
  update.scalars.push_back(local_config_.at_round(round_index).learning_rate);
}

bool FedAvg::park_straggler(std::size_t round_index, std::size_t client_id,
                            Slot& client_slot, const LocalTrainResult& result) {
  if (stale_buffer_ == nullptr) return false;  // legacy policy: discard
  const std::size_t delay = simulator_->lateness(round_index, client_id);
  if (delay == 0) return true;  // lands within its own round after all
  StaleUpdate update;
  update.client_id = client_id;
  update.origin_round = round_index;
  update.due_round = round_index + delay;
  update.state = nn::snapshot_state(*client_slot.staged);
  fill_stale_extras(round_index, client_id, result, update);
  stale_buffer_->push(std::move(update));
  return false;
}

std::vector<std::size_t> FedAvg::apply_fusion_cap(std::vector<std::size_t> survivors) {
  const FusionCap kept =
      cap_fusion_members(max_fusion_members_, survivors.size(), stale_.size());
  survivors.resize(kept.keep_fresh);
  stale_.keep_newest(kept.keep_stale);
  last_stale_applied_ = stale_.size();
  last_fusion_degraded_ = kept.degraded;
  return survivors;
}

FusionMembers FedAvg::fusion_members(std::span<const std::size_t> sampled) {
  FusionMembers members;
  members.fresh_ids.assign(sampled.begin(), sampled.end());
  for (std::size_t id : sampled) members.fresh_nets.push_back(slots_.at(id).staged.get());
  members.add_stale(stale_);
  return members;
}

void FedAvg::on_client_evicted(std::size_t client_id) {
  Slot& s = slots_.at(client_id);
  if (s.model && memory_budget_ != nullptr) {
    memory_budget_->release(
        core::BudgetCategory::kClientState,
        (nn::state_numel(*s.model) + nn::state_numel(*s.staged)) * sizeof(float));
  }
  s.model.reset();
  s.staged.reset();
}

void FedAvg::aggregate(std::size_t round_index, std::span<const std::size_t> sampled) {
  (void)round_index;
  obs::ScopedPhaseTimer fuse_timer(phases_, obs::Phase::kFuse);
  obs::TraceSpan span("fl.fuse");
  weighted_state_average_into(*global_,
                              shard_weighted_contributions(fusion_members(sampled), federation()));
}

std::vector<std::size_t> FedAvg::surviving_clients(
    std::span<const std::size_t> sampled) const {
  std::vector<std::size_t> survivors;
  survivors.reserve(sampled.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    if (completed_[i] != 0) survivors.push_back(sampled[i]);
  }
  return survivors;
}

double FedAvg::client_training_flops(std::size_t client_id, std::size_t round_index) {
  if (flops_per_sample_ < 0.0) {
    flops_per_sample_ =
        static_cast<double>(models::estimate_cost(spec_).training_flops());
  }
  const LocalTrainConfig config = local_config_.at_round(round_index);
  const double samples = static_cast<double>(config.epochs) *
                         static_cast<double>(federation().client_shard(client_id).size());
  return flops_per_sample_ * samples;
}

double FedAvg::round(std::size_t round_index, std::span<const std::size_t> sampled,
                     utils::ThreadPool& pool) {
  if (sampled.empty()) throw std::invalid_argument("FedAvg::round: no sampled clients");
  Federation& fed = federation();
  last_results_.assign(sampled.size(), {});
  completed_.assign(sampled.size(), 0);

  {
    // Slot instantiation is part of standing the clients up, so it is charged
    // to the local-train phase alongside the training itself.
    obs::ScopedPhaseTimer timer(phases_, obs::Phase::kLocalTrain);
    // Slots must exist before the parallel section (lazy build mutates the
    // vector's elements; doing it up front keeps the loop body race-free).
    for (std::size_t id : sampled) slot(id);
    // Warm the FLOPs cache outside the parallel section too.
    if (simulator_ != nullptr && !sampled.empty()) {
      client_training_flops(sampled.front(), round_index);
    }
  }

  const sim::AdversaryModel* adversary = adversary_model();
  pool.parallel_for(sampled.size(), [&](std::size_t i) {
    obs::TraceSpan client_span("fl.client");
    const std::size_t id = sampled[i];
    if (simulator_ != nullptr && !simulator_->begin_client(round_index, id)) {
      return;  // device offline this round: no traffic, no training
    }
    Slot& s = slots_[id];
    const sim::AdversaryRole role =
        adversary != nullptr ? adversary->role(id) : sim::AdversaryRole::kHonest;
    try {
      {
        obs::ScopedPhaseTimer timer(phases_, obs::Phase::kUpload);
        fed.channel().transfer(*global_, *s.model, round_index, id,
                               comm::Direction::kDownlink, "model");
      }
      LocalTrainResult result;
      {
        obs::ScopedPhaseTimer timer(phases_, obs::Phase::kLocalTrain);
        obs::TraceSpan train_span("fl.local_train");
        if (role == sim::AdversaryRole::kFreeRider) {
          // Free-riders skip training and lie about their step count (a
          // truthful tau of 0 would trip FedNova's zero-step check).
          adversary->free_ride(*s.model, round_index, id);
          result.steps = 1;
        } else {
          std::vector<std::size_t> label_map;
          if (role == sim::AdversaryRole::kLabelFlip) {
            label_map = adversary->label_permutation(fed.train_set().num_classes(), id);
          }
          const GradHook hook = make_grad_hook(id, *s.model);
          result = supervised_local_update(
              *s.model, fed.train_set(), fed.client_shard(id),
              local_config_.at_round(round_index), client_stream(fed, round_index, id),
              hook, label_map);
          if (role == sim::AdversaryRole::kPoison) {
            adversary->poison_update(*s.model, round_index, id);
          }
        }
      }
      if (simulator_ != nullptr && simulator_->mid_round_failure(round_index, id)) {
        return;  // died after training, before upload
      }
      {
        // after_local_update is charged here too: the subclass hooks compute
        // and meter the extra uplink payloads (tau, control variates).
        obs::ScopedPhaseTimer timer(phases_, obs::Phase::kUpload);
        fed.channel().transfer(*s.model, *s.staged, round_index, id,
                               comm::Direction::kUplink, "model");
        after_local_update(round_index, id, s, result);
      }
      if (simulator_ != nullptr &&
          !simulator_->finish_client(round_index, id,
                                     client_training_flops(id, round_index))) {
        // Straggler: the update arrives after the deadline.  With a stale
        // buffer it is parked for a later round (or, at lateness 0, folded
        // back into this cohort); without one it is discarded as before.
        if (!park_straggler(round_index, id, s, result)) return;
      }
      last_results_[i] = result;
      completed_[i] = 1;
    } catch (const comm::TransferFailed&) {
      if (simulator_ == nullptr) throw;
      simulator_->report_transfer_failure(round_index, id);
    }
  });

  stale_ = stale_buffer_ != nullptr ? stale_buffer_->take_due_discounted(round_index)
                                    : DueUpdates{};
  const std::vector<std::size_t> survivors =
      apply_fusion_cap(surviving_clients(sampled));
  if (!survivors.empty() || !stale_.empty()) aggregate(round_index, survivors);

  double loss_total = 0.0;
  std::size_t reported = 0;
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    if (completed_[i] == 0) continue;
    loss_total += last_results_[i].mean_loss;
    ++reported;
  }
  return reported > 0 ? loss_total / static_cast<double>(reported) : 0.0;
}

}  // namespace fedkemf::fl
