#include "fl/feddf.hpp"

#include <algorithm>

#include "fl/checkpoint/state_io.hpp"
#include "fl/server_fusion.hpp"

namespace fedkemf::fl {

FedDf::FedDf(models::ModelSpec spec, LocalTrainConfig local_config, FedDfOptions options)
    : FedAvg(std::move(spec), local_config), options_(options) {}

void FedDf::setup(Federation& federation) {
  FedAvg::setup(federation);
  server_optimizer_ = std::make_unique<nn::Sgd>(
      global_model().parameters(),
      nn::SgdOptions{.learning_rate = options_.server_learning_rate,
                     .momentum = options_.server_momentum});
  reputation_.reset();
  if (options_.reputation.enabled) {
    reputation_ = std::make_unique<ReputationTracker>(options_.reputation,
                                                      federation.num_clients());
  }
  last_distill_loss_ = 0.0;
  last_rejected_ = 0;
}

void FedDf::save_state(core::ByteWriter& writer) {
  FedAvg::save_state(writer);
  ckpt::write_optimizer(writer, *server_optimizer_);
  writer.write_u8(reputation_ ? 1 : 0);
  if (reputation_) reputation_->save_state(writer);
}

void FedDf::load_state(core::ByteReader& reader) {
  FedAvg::load_state(reader);
  ckpt::read_optimizer(reader, *server_optimizer_);
  const bool has_reputation = reader.read_u8() != 0;
  if (has_reputation != (reputation_ != nullptr)) {
    throw std::runtime_error("FedDF::load_state: reputation configuration mismatch");
  }
  if (reputation_) reputation_->load_state(reader);
}

void FedDf::on_client_evicted(std::size_t client_id) {
  FedAvg::on_client_evicted(client_id);
  if (reputation_) reputation_->reset(client_id);
}

void FedDf::aggregate(std::size_t round_index, std::span<const std::size_t> sampled) {
  last_distill_loss_ = 0.0;
  last_rejected_ = 0;
  Federation& fed = federation();
  if (std::min(options_.distill_batch_size, fed.server_pool().dim(0)) == 0) {
    FedAvg::aggregate(round_index, sampled);  // nothing to distil on
    return;
  }
  // The cohort was already capped in FedAvg::round, before screening.
  const FusionOutcome outcome = fuse_by_distillation(
      {.distill = {.ensemble = options_.ensemble,
                   .temperature = options_.distill_temperature,
                   .epochs = options_.distill_epochs,
                   .batch_size = options_.distill_batch_size},
       .sanitize = options_.sanitize,
       .reputation = reputation_.get(),
       .member_spec = spec_,
       .max_members = max_fusion_members_},
      fusion_members(sampled), fed, global_model(), *server_optimizer_,
      fed.root_rng().fork(0xFEDD1F00ULL + round_index), phases_);
  last_rejected_ = outcome.rejected;
  last_stale_applied_ = outcome.stale_applied;
  last_fusion_degraded_ = last_fusion_degraded_ || outcome.degraded;
  last_distill_loss_ = outcome.distill_loss;
}

}  // namespace fedkemf::fl
