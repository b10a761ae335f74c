#pragma once

// FedDF (Lin et al. 2020): ensemble distillation for robust model fusion.
//
// The direct ancestor of FedKEMF's server update, included as a comparator
// that isolates the two halves of FedKEMF's contribution:
//   * FedDF  = full-model exchange + ensemble distillation fusion;
//   * FedKEMF = tiny-knowledge-net exchange (DML extraction) + the same
//     fusion machinery — literally: both call fuse_by_distillation
//     (fl/server_fusion.hpp), each with its own distillation rng stream.
// Comparing the two shows how much of FedKEMF's gain comes from distillation
// fusion versus from the knowledge-extraction/communication design.
//
// Protocol: clients train the full model locally (plain SGD, as FedAvg);
// the server weight-averages the returned models (warm start, as in the
// original AvgLogits variant) and then distills the ensemble of client
// models into the global model on the unlabeled server pool.

#include "fl/defense/reputation.hpp"
#include "fl/fedavg.hpp"
#include "nn/optim.hpp"

namespace fedkemf::fl {

struct FedDfOptions {
  EnsembleStrategy ensemble = EnsembleStrategy::kAvgLogits;  ///< Lin et al. use averaging
  float distill_temperature = 2.0f;
  std::size_t distill_epochs = 2;
  std::size_t distill_batch_size = 32;
  double server_learning_rate = 0.02;
  double server_momentum = 0.0;
  SanitizeOptions sanitize;        ///< pre-fusion upload screening
  ReputationOptions reputation;    ///< cross-round outlier down-weighting
};

class FedDf final : public FedAvg {
 public:
  FedDf(models::ModelSpec spec, LocalTrainConfig local_config, FedDfOptions options = {});

  std::string name() const override { return "FedDF"; }
  void setup(Federation& federation) override;

  /// FedAvg state + server optimizer + reputation EMA.
  void save_state(core::ByteWriter& writer) override;
  void load_state(core::ByteReader& reader) override;

  const FedDfOptions& options() const { return options_; }
  double last_server_loss() const override { return last_distill_loss_; }
  std::size_t last_rejected_updates() const override { return last_rejected_; }
  const ReputationTracker* reputation() const { return reputation_.get(); }

  /// FedAvg slot eviction + reputation reset for the departed client.
  void on_client_evicted(std::size_t client_id) override;

 protected:
  void aggregate(std::size_t round_index, std::span<const std::size_t> sampled) override;

 private:
  FedDfOptions options_;
  std::unique_ptr<nn::Sgd> server_optimizer_;
  std::unique_ptr<ReputationTracker> reputation_;
  double last_distill_loss_ = 0.0;
  std::size_t last_rejected_ = 0;
};

}  // namespace fedkemf::fl
