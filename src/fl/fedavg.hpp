#pragma once

// FedAvg (McMahan et al. 2017) and the shared machinery for all
// weight-space baselines: per-client model slots, metered down/up transfers,
// and shard-size-weighted aggregation.
//
// FedProx / FedNova / SCAFFOLD subclass this and override the gradient hook
// and/or the aggregation rule.

#include <memory>
#include <vector>

#include "fl/algorithm.hpp"
#include "fl/server_fusion.hpp"

namespace fedkemf::fl {

class FedAvg : public Algorithm {
 public:
  FedAvg(models::ModelSpec spec, LocalTrainConfig local_config);

  std::string name() const override { return "FedAvg"; }
  void setup(Federation& federation) override;
  double round(std::size_t round_index, std::span<const std::size_t> sampled,
               utils::ThreadPool& pool) override;
  nn::Module& global_model() override;

  /// Base state + per-client slot presence and slot Rng stream positions.
  /// Slot *weights* are deliberately not saved: the downlink overwrites them
  /// at the top of every round, so only the Dropout stream positions (which
  /// advance monotonically across rounds) affect the resumed trajectory.
  void save_state(core::ByteWriter& writer) override;
  void load_state(core::ByteReader& reader) override;

  std::size_t last_stale_applied() const override { return last_stale_applied_; }
  /// Releases the departed client's working models; a rebuilt slot starts
  /// from fresh fork streams, exactly as a never-sampled client would.
  void on_client_evicted(std::size_t client_id) override;

  const models::ModelSpec& model_spec() const { return spec_; }
  const LocalTrainConfig& local_config() const { return local_config_; }

 protected:
  /// Per-client working state, built lazily when a client is first sampled.
  struct Slot {
    std::unique_ptr<nn::Module> model;    ///< trains locally
    std::unique_ptr<nn::Module> staged;   ///< server-side copy after upload
  };

  Slot& slot(std::size_t client_id);
  Federation& federation();

  /// Gradient hook applied during the client pass (FedProx overrides).
  virtual GradHook make_grad_hook(std::size_t client_id, nn::Module& client_model);

  /// Extra uplink payloads beyond the model (FedNova/SCAFFOLD override).
  /// Returns bytes metered; default none.
  virtual void after_local_update(std::size_t round_index, std::size_t client_id,
                                  Slot& client_slot, const LocalTrainResult& result);

  /// Folds the staged client models into the global model.  Default: FedAvg
  /// shard-size-weighted average over parameters and buffers.  Under
  /// simulation `sampled` holds only the clients that completed in time;
  /// with a stale buffer installed, `stale_` holds the late uploads due this
  /// round and their staleness discounts, to be folded in alongside the
  /// fresh cohort.
  virtual void aggregate(std::size_t round_index, std::span<const std::size_t> sampled);

  /// Algorithm-specific payload a parked straggler needs to be applied in a
  /// later round.  Default records {steps, learning_rate} in scalars (what
  /// FedNova's tau-normalization needs); SCAFFOLD adds its control variates.
  virtual void fill_stale_extras(std::size_t round_index, std::size_t client_id,
                                 const LocalTrainResult& result, StaleUpdate& update);

  /// Parks a straggler's staged update in the stale buffer (no-op without
  /// one).  Returns true when the update turned out to arrive within its own
  /// round (lateness 0) — the caller then folds the client back into the
  /// cohort exactly as a synchronous completion.
  bool park_straggler(std::size_t round_index, std::size_t client_id, Slot& client_slot,
                      const LocalTrainResult& result);

  /// Subset of `sampled` whose round survived every simulator gate (all of
  /// `sampled` when no simulator is installed).  Valid after the parallel
  /// client section of round().
  std::vector<std::size_t> surviving_clients(std::span<const std::size_t> sampled) const;

  /// Enforces max_fusion_members_ over survivors + due stale updates
  /// (cap_fusion_members) and flags the round degraded when anything was
  /// shed.  Returns the survivors that remain.  No-op (and bitwise-neutral)
  /// when the cap is 0.
  std::vector<std::size_t> apply_fusion_cap(std::vector<std::size_t> survivors);

  /// `sampled`'s staged models plus every entry of stale_, as fusion members.
  FusionMembers fusion_members(std::span<const std::size_t> sampled);

  /// Simulated local training cost for one client this round, in FLOPs.
  double client_training_flops(std::size_t client_id, std::size_t round_index);

  models::ModelSpec spec_;
  LocalTrainConfig local_config_;
  Federation* federation_ = nullptr;
  std::unique_ptr<nn::Module> global_;
  std::vector<Slot> slots_;
  std::vector<LocalTrainResult> last_results_;  ///< per sampled index, this round
  std::vector<std::uint8_t> completed_;         ///< per sampled index, this round
  DueUpdates stale_;                            ///< late uploads due this round
  std::size_t last_stale_applied_ = 0;
  double flops_per_sample_ = -1.0;              ///< lazy models::estimate_cost cache
};

}  // namespace fedkemf::fl
