#include "fl/algorithm.hpp"

#include <stdexcept>

#include "data/dataloader.hpp"
#include "fl/checkpoint/state_io.hpp"
#include "fl/fusion_stream.hpp"
#include "nn/loss.hpp"
#include "sim/simulator.hpp"

namespace fedkemf::fl {

const sim::AdversaryModel* Algorithm::adversary_model() const {
  if (simulator_ == nullptr) return nullptr;
  const sim::AdversaryModel& adversary = simulator_->adversary();
  return adversary.spec().any() ? &adversary : nullptr;
}

void Algorithm::save_state(core::ByteWriter& writer) {
  ckpt::write_module_state(writer, global_model());
}

void Algorithm::load_state(core::ByteReader& reader) {
  ckpt::read_module_state(reader, global_model());
}

void apply_label_map(std::vector<std::size_t>& labels,
                     const std::vector<std::size_t>& label_map) {
  if (label_map.empty()) return;
  for (std::size_t& label : labels) label = label_map.at(label);
}

LocalTrainResult supervised_local_update(nn::Module& model, const data::Dataset& train_set,
                                         const std::vector<std::size_t>& shard,
                                         const LocalTrainConfig& config, core::Rng rng,
                                         const GradHook& hook,
                                         const std::vector<std::size_t>& label_map) {
  if (shard.empty()) throw std::invalid_argument("supervised_local_update: empty shard");
  model.set_training(true);
  nn::Sgd optimizer(model.parameters(),
                    {.learning_rate = config.learning_rate,
                     .momentum = config.momentum,
                     .weight_decay = config.weight_decay});
  nn::SoftmaxCrossEntropy ce;
  data::DataLoader loader(train_set, shard,
                          std::min(config.batch_size, shard.size()),
                          /*shuffle=*/true, rng);
  const auto params = model.parameters();

  LocalTrainResult result;
  double loss_total = 0.0;
  std::size_t batches = 0;
  data::Batch batch;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    loader.reset();
    while (loader.next(batch)) {
      apply_label_map(batch.labels, label_map);
      optimizer.zero_grad();
      core::Tensor logits = model.forward(batch.images);
      nn::LossResult loss = ce.compute(logits, batch.labels);
      model.backward(loss.grad);
      if (hook) hook(params);
      optimizer.step();
      loss_total += loss.value;
      ++batches;
    }
  }
  result.steps = optimizer.steps_taken();
  result.mean_loss = batches == 0 ? 0.0 : loss_total / static_cast<double>(batches);
  return result;
}

core::Rng client_stream(const Federation& federation, std::size_t round_index,
                        std::size_t client_id) {
  // One fork level per coordinate keeps streams decorrelated across both axes.
  return federation.root_rng().fork(0xC11E47ULL + round_index).fork(client_id);
}

void weighted_state_average_into(nn::Module& global,
                                 std::span<const StateContribution> members) {
  if (members.empty()) {
    throw std::invalid_argument("weighted_state_average_into: no members");
  }
  double total_weight = 0.0;
  for (const StateContribution& member : members) {
    if ((member.module == nullptr) == (member.state == nullptr)) {
      throw std::invalid_argument(
          "weighted_state_average_into: member needs exactly one of module/state");
    }
    total_weight += member.weight;
  }
  if (total_weight <= 0.0) {
    throw std::invalid_argument("weighted_state_average_into: zero total weight");
  }

  StreamingWeightedSum sum(global, total_weight);
  for (const StateContribution& member : members) {
    if (member.module != nullptr) {
      sum.add(*member.module, member.weight);
    } else {
      sum.add(*member.state, member.weight);
    }
  }
  sum.finalize();
}

}  // namespace fedkemf::fl
