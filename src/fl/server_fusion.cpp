#include "fl/server_fusion.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/tensor_ops.hpp"
#include "fl/defense/robust_ensemble.hpp"
#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedkemf::fl {
namespace {

/// Stale entries are materialised into scratch nets whose init is overwritten
/// by restore_state; eval mode draws no Dropout stream, so the salt only has
/// to produce a valid instance.
constexpr std::uint64_t kStaleScratchSalt = 0x57A1E4E7ULL;

core::Shape with_rows(const core::Shape& shape, std::size_t rows) {
  switch (shape.rank()) {
    case 1: return core::Shape{rows};
    case 2: return core::Shape{rows, shape[1]};
    case 3: return core::Shape{rows, shape[1], shape[2]};
    case 4: return core::Shape{rows, shape[1], shape[2], shape[3]};
  }
  throw std::invalid_argument("gather_rows: source must have rank 1-4");
}

/// Rows [start, start + count) of `source`.
core::Tensor row_range(const core::Tensor& source, std::size_t start, std::size_t count) {
  std::vector<std::size_t> rows(count);
  std::iota(rows.begin(), rows.end(), start);
  return gather_rows(source, rows);
}

/// Reputation pass: scores every member by how often its argmax on the probe
/// batch agrees with the fused ensemble's.  Returns each member's probe
/// logits (reused as the first chunk of its teacher pass).
std::vector<core::Tensor> observe_agreement(ReputationTracker& reputation,
                                            EnsembleStrategy strategy,
                                            std::span<const std::size_t> ids,
                                            std::span<nn::Module* const> nets,
                                            const core::Tensor& probe) {
  std::vector<core::Tensor> logits(nets.size());
  if (nets.empty()) return logits;
  for (std::size_t i = 0; i < nets.size(); ++i) logits[i] = nets[i]->forward(probe);
  const std::size_t rows = probe.dim(0);
  std::vector<std::size_t> fused_argmax(rows);
  core::argmax_rows(ensemble_logits(strategy, logits), fused_argmax.data());
  std::vector<std::size_t> member_argmax(rows);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    core::argmax_rows(logits[i], member_argmax.data());
    std::size_t matches = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      if (member_argmax[r] == fused_argmax[r]) ++matches;
    }
    reputation.observe(ids[i], static_cast<double>(matches) / static_cast<double>(rows));
  }
  return logits;
}

}  // namespace

core::Tensor gather_rows(const core::Tensor& source, std::span<const std::size_t> rows) {
  const std::size_t row_numel = source.numel() / source.dim(0);
  core::Tensor out(with_rows(source.shape(), rows.size()));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(out.data() + i * row_numel, source.data() + rows[i] * row_numel,
                row_numel * sizeof(float));
  }
  return out;
}

core::Tensor ensemble_logits(EnsembleStrategy strategy,
                             std::span<const core::Tensor> member_logits) {
  if (member_logits.empty()) throw std::invalid_argument("ensemble_logits: no members");
  const core::Shape shape = member_logits.front().shape();
  for (const core::Tensor& m : member_logits) {
    if (m.shape() != shape) throw std::invalid_argument("ensemble_logits: shape mismatch");
  }
  if (shape.rank() != 2) throw std::invalid_argument("ensemble_logits: expected [N, C]");
  const std::size_t rows = shape[0];
  const std::size_t cols = shape[1];

  switch (strategy) {
    case EnsembleStrategy::kMaxLogits: {
      // Eq. (5): element-wise maxima across all member output vectors.
      core::Tensor out = member_logits.front().clone();
      for (std::size_t m = 1; m < member_logits.size(); ++m) {
        float* __restrict o = out.data();
        const float* __restrict v = member_logits[m].data();
        for (std::size_t i = 0; i < out.numel(); ++i) o[i] = std::max(o[i], v[i]);
      }
      return out;
    }
    case EnsembleStrategy::kAvgLogits: {
      core::Tensor out = core::Tensor::zeros(shape);
      const float inv = 1.0f / static_cast<float>(member_logits.size());
      for (const core::Tensor& m : member_logits) out.add_scaled_(m, inv);
      return out;
    }
    case EnsembleStrategy::kMajorityVote: {
      // Each member votes for its argmax class; the teacher distribution is
      // the (smoothed) vote histogram expressed as log-probabilities so it
      // plugs into the same KL distillation loss.
      core::Tensor votes = core::Tensor::zeros(shape);
      std::vector<std::size_t> winners(rows);
      for (const core::Tensor& m : member_logits) {
        core::argmax_rows(m, winners.data());
        for (std::size_t r = 0; r < rows; ++r) votes.data()[r * cols + winners[r]] += 1.0f;
      }
      core::Tensor out(shape);
      const float k = static_cast<float>(member_logits.size());
      constexpr float kSmoothing = 0.1f;
      for (std::size_t i = 0; i < out.numel(); ++i) {
        out.data()[i] = std::log((votes.data()[i] + kSmoothing) /
                                 (k + kSmoothing * static_cast<float>(cols)));
      }
      return out;
    }
    case EnsembleStrategy::kTrimmedMean:
      return trimmed_mean_logits(member_logits);
    case EnsembleStrategy::kMedian:
      return median_logits(member_logits);
  }
  throw std::logic_error("ensemble_logits: unknown strategy");
}

void FusionMembers::add_stale(const DueUpdates& due) {
  for (const StaleUpdate& update : due.updates) stale.push_back(&update);
  stale_weights.insert(stale_weights.end(), due.weights.begin(), due.weights.end());
}

std::vector<StateContribution> shard_weighted_contributions(const FusionMembers& members,
                                                            const Federation& federation) {
  std::vector<StateContribution> contributions;
  contributions.reserve(members.size());
  for (std::size_t i = 0; i < members.fresh_ids.size(); ++i) {
    contributions.push_back(
        {members.fresh_nets[i], nullptr,
         static_cast<double>(federation.client_shard(members.fresh_ids[i]).size())});
  }
  for (std::size_t k = 0; k < members.stale.size(); ++k) {
    const StaleUpdate& update = *members.stale[k];
    const double shard = static_cast<double>(federation.client_shard(update.client_id).size());
    contributions.push_back({nullptr, &update.state, shard * members.stale_weights[k]});
  }
  return contributions;
}

FusionCap cap_fusion_members(std::size_t cap, std::size_t fresh, std::size_t stale) {
  if (cap == 0 || fresh + stale <= cap) return {fresh, stale, false};
  FusionCap kept;
  kept.keep_fresh = std::min(fresh, cap);
  kept.keep_stale = std::min(stale, cap - kept.keep_fresh);
  kept.degraded = true;
  static obs::Counter& shed_counter =
      obs::MetricsRegistry::global().counter("fl.fusion.shed_members");
  static obs::Counter& degraded_counter =
      obs::MetricsRegistry::global().counter("fl.fusion.degraded_rounds");
  shed_counter.add(fresh + stale - kept.keep_fresh - kept.keep_stale);
  degraded_counter.add();
  return kept;
}

double distill_from_ensemble(nn::Module& student, nn::Sgd& optimizer,
                             std::span<nn::Module* const> teachers,
                             std::span<const double> member_weights,
                             const core::Tensor& pool, core::Rng rng,
                             const DistillOptions& options,
                             std::span<const core::Tensor> probe_logits) {
  const std::size_t pool_size = pool.dim(0);
  const std::size_t batch_size = std::min(options.batch_size, pool_size);
  if (batch_size == 0) throw std::invalid_argument("distill_from_ensemble: empty pool");
  if (teachers.empty()) throw std::invalid_argument("distill_from_ensemble: no teachers");
  student.set_training(true);
  if (options.epochs == 0) return 0.0;

  // Teacher pass: every teacher once over the pool, in batch_size chunks.
  std::vector<core::Tensor> member_logits(teachers.size());
  for (std::size_t start = 0; start < pool_size; start += batch_size) {
    const std::size_t count = std::min(batch_size, pool_size - start);
    core::Tensor chunk;
    for (std::size_t t = 0; t < teachers.size(); ++t) {
      core::Tensor logits;
      if (start == 0 && t < probe_logits.size() && probe_logits[t].defined()) {
        logits = probe_logits[t];
        if (logits.dim(0) != count) {
          throw std::invalid_argument("distill_from_ensemble: probe logits must span one batch");
        }
      } else {
        if (!chunk.defined()) chunk = row_range(pool, start, count);
        logits = teachers[t]->forward(chunk);
      }
      const std::size_t classes = logits.dim(1);
      if (start == 0) member_logits[t] = core::Tensor(core::Shape::matrix(pool_size, classes));
      std::memcpy(member_logits[t].data() + start * classes, logits.data(),
                  count * classes * sizeof(float));
    }
  }
  const core::Tensor target = member_weights.empty()
                                  ? ensemble_logits(options.ensemble, member_logits)
                                  : weighted_avg_logits(member_logits, member_weights);
  member_logits.clear();

  nn::DistillationKl kd(options.temperature);
  double loss_total = 0.0;
  std::size_t loss_batches = 0;
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    const std::vector<std::size_t> order = rng.permutation(pool_size);
    for (std::size_t start = 0; start < pool_size; start += batch_size) {
      const std::span<const std::size_t> rows(order.data() + start,
                                              std::min(batch_size, pool_size - start));
      core::Tensor prediction = student.forward(gather_rows(pool, rows));
      nn::LossResult loss = kd.compute(prediction, gather_rows(target, rows));
      optimizer.zero_grad();
      student.backward(loss.grad);
      optimizer.step();
      loss_total += loss.value;
      ++loss_batches;
    }
  }
  return loss_batches > 0 ? loss_total / static_cast<double>(loss_batches) : 0.0;
}

FusionOutcome fuse_by_distillation(const ServerFusionOptions& options,
                                   const FusionMembers& candidates,
                                   const Federation& federation, nn::Module& student,
                                   nn::Sgd& optimizer, core::Rng rng,
                                   obs::PhaseAccumulator& phases) {
  const core::Tensor& pool = federation.server_pool();
  const std::size_t batch_size = std::min(options.distill.batch_size, pool.dim(0));
  if (batch_size == 0) throw std::invalid_argument("fuse_by_distillation: empty server pool");
  ReputationTracker* reputation = options.reputation;

  FusionOutcome outcome;
  FusionMembers members;  ///< the screened candidates
  std::vector<core::Tensor> probe_logits;                ///< parallel to fresh_ids
  std::vector<std::unique_ptr<nn::Module>> stale_nets;   ///< parallel to stale
  {
    obs::ScopedPhaseTimer timer(phases, obs::Phase::kSanitize);
    obs::TraceSpan span("fl.sanitize");
    // Fresh uploads: sanitation drops non-finite uploads and norm outliers;
    // reputation then observes each survivor's agreement and excludes the
    // clients whose cross-round score has fallen below the bar.
    for (nn::Module* net : candidates.fresh_nets) net->set_training(false);
    SanitizeResult sanitized =
        sanitize_updates(candidates.fresh_nets, candidates.fresh_ids, options.sanitize);
    outcome.rejected += sanitized.rejected.size();
    std::vector<nn::Module*> accepted_nets;
    accepted_nets.reserve(sanitized.accepted.size());
    for (std::size_t i = 0, a = 0; i < candidates.fresh_ids.size(); ++i) {
      if (a < sanitized.accepted.size() && candidates.fresh_ids[i] == sanitized.accepted[a]) {
        accepted_nets.push_back(candidates.fresh_nets[i]);
        ++a;
      }
    }
    std::vector<core::Tensor> accepted_probe_logits(accepted_nets.size());
    if (reputation != nullptr) {
      accepted_probe_logits = observe_agreement(*reputation, options.distill.ensemble,
                                                sanitized.accepted, accepted_nets,
                                                row_range(pool, 0, batch_size));
    }
    for (std::size_t i = 0; i < accepted_nets.size(); ++i) {
      if (reputation != nullptr && reputation->excluded(sanitized.accepted[i])) {
        ++outcome.rejected;
        continue;
      }
      members.fresh_ids.push_back(sanitized.accepted[i]);
      members.fresh_nets.push_back(accepted_nets[i]);
      probe_logits.push_back(std::move(accepted_probe_logits[i]));
    }

    // Stale entries pass the same sanitation plus the reputation exclusion
    // bar (no new observation: their agreement is a round old).  A stale
    // Byzantine upload is therefore doubly discounted: screened here, then
    // staleness-weighted in fusion.
    if (!candidates.stale.empty()) {
      std::vector<std::unique_ptr<nn::Module>> nets(candidates.stale.size());
      std::vector<nn::Module*> raw;
      std::vector<std::size_t> entries;  // entries, not client ids: a client
                                         // can appear both fresh and stale
      for (std::size_t e = 0; e < candidates.stale.size(); ++e) {
        core::Rng scratch_rng = federation.root_rng().fork(kStaleScratchSalt + e);
        nets[e] = models::build_model(options.member_spec, scratch_rng);
        nn::restore_state(*nets[e], candidates.stale[e]->state);
        nets[e]->set_training(false);
        raw.push_back(nets[e].get());
        entries.push_back(e);
      }
      SanitizeResult screened = sanitize_updates(raw, entries, options.sanitize);
      outcome.rejected += screened.rejected.size();
      for (std::size_t e : screened.accepted) {
        if (reputation != nullptr && reputation->excluded(candidates.stale[e]->client_id)) {
          ++outcome.rejected;
          continue;
        }
        members.stale.push_back(candidates.stale[e]);
        members.stale_weights.push_back(candidates.stale_weights[e]);
        stale_nets.push_back(std::move(nets[e]));
      }
    }
  }
  if (members.size() == 0) return outcome;  // every upload screened out: keep last global

  // FedKEMF caps its members here, after screening.  FedDF's cohort was
  // capped before screening (FedAvg::round), and screening only removes
  // members, so this cap never fires for it.
  const FusionCap kept = cap_fusion_members(options.max_members, members.fresh_ids.size(),
                                            members.stale.size());
  members.fresh_ids.resize(kept.keep_fresh);
  members.fresh_nets.resize(kept.keep_fresh);
  probe_logits.resize(kept.keep_fresh);
  const auto drop_stale = static_cast<std::ptrdiff_t>(members.stale.size() - kept.keep_stale);
  members.stale.erase(members.stale.begin(), members.stale.begin() + drop_stale);
  members.stale_weights.erase(members.stale_weights.begin(),
                              members.stale_weights.begin() + drop_stale);
  stale_nets.erase(stale_nets.begin(), stale_nets.begin() + drop_stale);
  outcome.degraded = kept.degraded;
  outcome.stale_applied = members.stale.size();

  // Teachers predict in eval mode with frozen statistics; screened stale nets
  // join the ensemble after the fresh cohort.
  std::vector<nn::Module*> teachers = members.fresh_nets;
  for (const std::unique_ptr<nn::Module>& net : stale_nets) teachers.push_back(net.get());

  {
    // Warm start: fuse the members in weight space before distilling, as
    // FedDF does; it stabilises early rounds when the student is random.
    // Under a robust logit strategy the weight-space fusion must be robust
    // too: a plain average is exactly the aggregation a sign-flip minority
    // breaks (see robust_ensemble.hpp).
    obs::ScopedPhaseTimer timer(phases, obs::Phase::kFuse);
    obs::TraceSpan span("fl.fuse");
    switch (options.distill.ensemble) {
      case EnsembleStrategy::kTrimmedMean:
        trimmed_mean_state(teachers, student);
        break;
      case EnsembleStrategy::kMedian:
        median_state(teachers, student);
        break;
      default:
        weighted_state_average_into(student, shard_weighted_contributions(members, federation));
        break;
    }
  }

  // Under avg-logits with reputation, members are soft-weighted by their
  // score instead of equally; the robust strategies ignore weights by design.
  // Stale teachers always carry their staleness discount (x reputation).
  std::vector<double> member_weights;
  if (options.distill.ensemble == EnsembleStrategy::kAvgLogits &&
      (reputation != nullptr || !members.stale.empty())) {
    member_weights.reserve(teachers.size());
    for (std::size_t id : members.fresh_ids) {
      member_weights.push_back(reputation != nullptr ? reputation->weight(id) : 1.0);
    }
    for (std::size_t k = 0; k < members.stale.size(); ++k) {
      const double rep =
          reputation != nullptr ? reputation->weight(members.stale[k]->client_id) : 1.0;
      member_weights.push_back(rep * members.stale_weights[k]);
    }
  }

  obs::ScopedPhaseTimer distill_timer(phases, obs::Phase::kDistill);
  obs::TraceSpan distill_span("fl.distill");
  outcome.distill_loss = distill_from_ensemble(student, optimizer, teachers, member_weights,
                                               pool, rng, options.distill, probe_logits);
  return outcome;
}

}  // namespace fedkemf::fl
