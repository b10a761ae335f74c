#include "fl/scaffold.hpp"

#include <stdexcept>

#include "core/serialize.hpp"
#include "obs/trace.hpp"

namespace fedkemf::fl {

Scaffold::Scaffold(models::ModelSpec spec, LocalTrainConfig local_config)
    : FedAvg(std::move(spec), local_config) {
  // SCAFFOLD's control-variate algebra assumes plain local SGD: the c_i
  // update divides the travelled distance by K * lr, which no longer matches
  // the applied updates once momentum compounds them.  Karimireddy et al.
  // use vanilla SGD locally; we enforce that here.
  local_config_.momentum = 0.0;
}

void Scaffold::setup(Federation& federation) {
  FedAvg::setup(federation);
  server_control_ = make_zero_variate();
  client_controls_.assign(federation.num_clients(), {});
  client_control_deltas_.assign(federation.num_clients(), {});
}

namespace {

void write_variate(core::ByteWriter& writer, const std::vector<core::Tensor>& variate) {
  writer.write_u32(static_cast<std::uint32_t>(variate.size()));
  for (const core::Tensor& t : variate) core::write_tensor(writer, t);
}

std::vector<core::Tensor> read_variate(core::ByteReader& reader) {
  const std::uint32_t count = reader.read_u32();
  std::vector<core::Tensor> variate;
  variate.reserve(count);
  for (std::uint32_t k = 0; k < count; ++k) variate.push_back(core::read_tensor(reader));
  return variate;
}

}  // namespace

void Scaffold::save_state(core::ByteWriter& writer) {
  FedAvg::save_state(writer);
  write_variate(writer, server_control_);
  writer.write_u32(static_cast<std::uint32_t>(client_controls_.size()));
  for (const Variate& ci : client_controls_) {
    writer.write_u8(ci.empty() ? 0 : 1);
    if (!ci.empty()) write_variate(writer, ci);
  }
}

void Scaffold::load_state(core::ByteReader& reader) {
  FedAvg::load_state(reader);
  Variate server = read_variate(reader);
  if (server.size() != server_control_.size()) {
    throw std::runtime_error("SCAFFOLD::load_state: server control size mismatch");
  }
  server_control_ = std::move(server);
  const std::uint32_t count = reader.read_u32();
  if (count != client_controls_.size()) {
    throw std::runtime_error("SCAFFOLD::load_state: client control count mismatch");
  }
  for (std::size_t id = 0; id < client_controls_.size(); ++id) {
    if (reader.read_u8() == 0) continue;
    client_controls_[id] = read_variate(reader);
  }
}

Scaffold::Variate Scaffold::make_zero_variate() const {
  Variate variate;
  for (nn::Parameter* p : const_cast<Scaffold*>(this)->global_->parameters()) {
    variate.push_back(core::Tensor::zeros(p->value.shape()));
  }
  return variate;
}

std::size_t Scaffold::variate_wire_bytes() const {
  std::size_t bytes = 0;
  for (const core::Tensor& t : server_control_) bytes += core::tensor_wire_size(t);
  return bytes;
}

double Scaffold::round(std::size_t round_index, std::span<const std::size_t> sampled,
                       utils::ThreadPool& pool) {
  round_start_.clear();
  for (nn::Parameter* p : global_model().parameters()) {
    round_start_.push_back(p->value.clone());
  }
  // Lazily materialize client controls for first-time participants (must be
  // done before the parallel section).
  for (std::size_t id : sampled) {
    if (client_controls_.at(id).empty()) client_controls_[id] = make_zero_variate();
    client_control_deltas_[id].clear();
  }
  // The server control variate rides the downlink alongside the model.
  for (std::size_t id : sampled) {
    federation().channel().transfer_raw(variate_wire_bytes(), round_index, id,
                                        comm::Direction::kDownlink, "control_variate");
  }
  return FedAvg::round(round_index, sampled, pool);
}

GradHook Scaffold::make_grad_hook(std::size_t client_id, nn::Module& client_model) {
  (void)client_model;
  const Variate* c = &server_control_;
  const Variate* ci = &client_controls_.at(client_id);
  return [c, ci](const std::vector<nn::Parameter*>& params) {
    if (params.size() != c->size() || params.size() != ci->size()) {
      throw std::logic_error("SCAFFOLD hook: variate size mismatch");
    }
    for (std::size_t k = 0; k < params.size(); ++k) {
      // g += c - c_i
      float* __restrict g = params[k]->grad.data();
      const float* __restrict cs = (*c)[k].data();
      const float* __restrict cc = (*ci)[k].data();
      const std::size_t n = params[k]->grad.numel();
      for (std::size_t j = 0; j < n; ++j) g[j] += cs[j] - cc[j];
    }
  };
}

void Scaffold::after_local_update(std::size_t round_index, std::size_t client_id,
                                  Slot& client_slot, const LocalTrainResult& result) {
  if (result.steps == 0) throw std::logic_error("SCAFFOLD: zero local steps");
  // Option II update of the client control variate.
  const float inv_klr = static_cast<float>(
      1.0 / (static_cast<double>(result.steps) * local_config_.learning_rate));
  Variate& ci = client_controls_.at(client_id);
  Variate& delta = client_control_deltas_.at(client_id);
  delta = make_zero_variate();
  auto client_params = client_slot.staged->parameters();
  for (std::size_t k = 0; k < ci.size(); ++k) {
    // c_i+ = c_i - c + (x_start - y_i) / (K * lr); delta = c_i+ - c_i.
    float* __restrict d = delta[k].data();
    float* __restrict cc = ci[k].data();
    const float* __restrict cs = server_control_[k].data();
    const float* __restrict start = round_start_[k].data();
    const float* __restrict y = client_params[k]->value.data();
    const std::size_t n = ci[k].numel();
    for (std::size_t j = 0; j < n; ++j) {
      const float new_ci = cc[j] - cs[j] + inv_klr * (start[j] - y[j]);
      d[j] = new_ci - cc[j];
      cc[j] = new_ci;
    }
  }
  federation().channel().transfer_raw(variate_wire_bytes(), round_index, client_id,
                                      comm::Direction::kUplink, "control_variate");
}

void Scaffold::fill_stale_extras(std::size_t round_index, std::size_t client_id,
                                 const LocalTrainResult& result, StaleUpdate& update) {
  FedAvg::fill_stale_extras(round_index, client_id, result, update);
  // after_local_update already ran for a straggler, so the delta is fresh.
  for (const core::Tensor& t : client_control_deltas_.at(client_id)) {
    update.extra_state.push_back(t.clone());
  }
  for (const core::Tensor& t : server_control_) {
    update.extra_state.push_back(t.clone());  // c_origin
  }
}

void Scaffold::aggregate(std::size_t round_index, std::span<const std::size_t> sampled) {
  (void)round_index;
  obs::ScopedPhaseTimer fuse_timer(phases_, obs::Phase::kFuse);
  obs::TraceSpan span("fl.fuse");
  Federation& fed = federation();
  const float inv_n = 1.0f / static_cast<float>(fed.num_clients());
  auto global_params = global_model().parameters();
  const std::size_t num_params = global_params.size();

  if (stale_.empty()) {
    // Fresh-only path, kept verbatim for bit-stability.
    const float inv_s = 1.0f / static_cast<float>(sampled.size());

    // x <- x_start + (1/|S|) sum (y_i - x_start); parameters.
    for (std::size_t k = 0; k < num_params; ++k) {
      core::Tensor next = round_start_[k].clone();
      for (std::size_t id : sampled) {
        auto client_params = slots_.at(id).staged->parameters();
        float* __restrict x = next.data();
        const float* __restrict y = client_params[k]->value.data();
        const float* __restrict start = round_start_[k].data();
        const std::size_t n = next.numel();
        for (std::size_t j = 0; j < n; ++j) x[j] += inv_s * (y[j] - start[j]);
      }
      global_params[k]->value = std::move(next);
    }

    // c <- c + (1/N) sum delta_i.
    for (std::size_t id : sampled) {
      const Variate& delta = client_control_deltas_.at(id);
      for (std::size_t k = 0; k < server_control_.size(); ++k) {
        server_control_[k].add_scaled_(delta[k], inv_n);
      }
    }

    // Buffers: weighted average (same convention as the other baselines).
    double total_weight = 0.0;
    for (std::size_t id : sampled) {
      total_weight += static_cast<double>(fed.client_shard(id).size());
    }
    auto global_buffers = global_model().buffers();
    for (std::size_t k = 0; k < global_buffers.size(); ++k) {
      core::Tensor avg = core::Tensor::zeros(global_buffers[k]->value.shape());
      for (std::size_t id : sampled) {
        const float p = static_cast<float>(
            static_cast<double>(fed.client_shard(id).size()) / total_weight);
        avg.add_scaled_(slots_.at(id).staged->buffers()[k]->value, p);
      }
      global_buffers[k]->value = std::move(avg);
    }
    return;
  }

  // Stale-aware path.  Fresh survivors carry unit weight; buffered updates
  // carry their staleness discount, and their travelled distance is first
  // re-based onto the current server control: the client's K local steps
  // applied g + c_origin - c_i, so under today's control c_now the
  // equivalent endpoint is y + lr*K*(c_origin - c_now).
  double effective = static_cast<double>(sampled.size());
  for (const double w : stale_.weights) effective += w;
  const float inv_w = static_cast<float>(1.0 / effective);

  for (std::size_t k = 0; k < num_params; ++k) {
    core::Tensor next = round_start_[k].clone();
    const float* __restrict start = round_start_[k].data();
    const std::size_t n = next.numel();
    for (std::size_t id : sampled) {
      auto client_params = slots_.at(id).staged->parameters();
      float* __restrict x = next.data();
      const float* __restrict y = client_params[k]->value.data();
      for (std::size_t j = 0; j < n; ++j) x[j] += inv_w * (y[j] - start[j]);
    }
    for (std::size_t e = 0; e < stale_.size(); ++e) {
      const StaleUpdate& update = stale_.updates[e];
      const float w = static_cast<float>(stale_.weights[e]);
      const float lr_k = static_cast<float>(update.scalars.at(1) * update.scalars.at(0));
      float* __restrict x = next.data();
      const float* __restrict y = update.state.at(k).data();
      const float* __restrict c_origin = update.extra_state.at(num_params + k).data();
      const float* __restrict c_now = server_control_[k].data();
      for (std::size_t j = 0; j < n; ++j) {
        const float y_corr = y[j] + lr_k * (c_origin[j] - c_now[j]);
        x[j] += w * inv_w * (y_corr - start[j]);
      }
    }
    global_params[k]->value = std::move(next);
  }

  // c <- c + (1/N) sum w_i * delta_i (fresh deltas at w = 1).
  for (std::size_t id : sampled) {
    const Variate& delta = client_control_deltas_.at(id);
    for (std::size_t k = 0; k < server_control_.size(); ++k) {
      server_control_[k].add_scaled_(delta[k], inv_n);
    }
  }
  for (std::size_t e = 0; e < stale_.size(); ++e) {
    const StaleUpdate& update = stale_.updates[e];
    const float scale = inv_n * static_cast<float>(stale_.weights[e]);
    for (std::size_t k = 0; k < server_control_.size(); ++k) {
      server_control_[k].add_scaled_(update.extra_state.at(k), scale);
    }
  }

  // Buffers: shard-size-weighted average with the staleness discount applied.
  double total_weight = 0.0;
  for (std::size_t id : sampled) {
    total_weight += static_cast<double>(fed.client_shard(id).size());
  }
  for (std::size_t e = 0; e < stale_.size(); ++e) {
    total_weight +=
        static_cast<double>(fed.client_shard(stale_.updates[e].client_id).size()) *
        stale_.weights[e];
  }
  auto global_buffers = global_model().buffers();
  for (std::size_t k = 0; k < global_buffers.size(); ++k) {
    core::Tensor avg = core::Tensor::zeros(global_buffers[k]->value.shape());
    for (std::size_t id : sampled) {
      const float p = static_cast<float>(
          static_cast<double>(fed.client_shard(id).size()) / total_weight);
      avg.add_scaled_(slots_.at(id).staged->buffers()[k]->value, p);
    }
    for (std::size_t e = 0; e < stale_.size(); ++e) {
      const StaleUpdate& update = stale_.updates[e];
      const float p = static_cast<float>(
          static_cast<double>(fed.client_shard(update.client_id).size()) *
          stale_.weights[e] / total_weight);
      avg.add_scaled_(update.state.at(num_params + k), p);
    }
    global_buffers[k]->value = std::move(avg);
  }
}

void Scaffold::on_client_evicted(std::size_t client_id) {
  FedAvg::on_client_evicted(client_id);
  client_controls_.at(client_id).clear();
  client_control_deltas_.at(client_id).clear();
}

}  // namespace fedkemf::fl
