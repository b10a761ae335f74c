#pragma once

// Server fusion: the machinery that turns a round's uploads into the next
// global model, shared by every algorithm that fuses on the server.
//
// Weight space (FedAvg and its descendants, and the distillation warm start):
// FusionMembers lists a round's fresh and stale members in canonical order,
// shard_weighted_contributions turns them into the FedAvg rule's weights, and
// cap_fusion_members is the one fusion-member cap.
//
// Logit space (FedKEMF's multi-model knowledge fusion and FedDF, Lin et al.
// 2020, which is the same step applied to full models): fuse_by_distillation
// screens the members (sanitation, reputation), warm-starts the student from
// their weight-space fusion and distils their ensemble into it on the
// unlabeled server pool.
//
// The ensemble is a fixed teacher within a round, so distill_from_ensemble
// runs each teacher once over the pool (eval mode, in batch_size chunks) and
// fuses the [pool, C] target once; every distillation batch then gathers its
// target rows by the epoch's permutation.  That is bitwise the computation a
// per-batch re-forward would do: in eval mode a row's logits do not depend on
// which rows share its batch (the GEMM kernels sum over k in a fixed order,
// BatchNorm uses its running statistics, pooling is per sample), and every
// ensemble strategy works row by row or element by element.

#include <cstddef>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "fl/algorithm.hpp"
#include "fl/defense/reputation.hpp"
#include "fl/defense/sanitize.hpp"
#include "models/zoo.hpp"
#include "nn/module.hpp"
#include "nn/optim.hpp"
#include "obs/telemetry.hpp"

namespace fedkemf::fl {

/// Rows `rows` of `source` ([M, ...], rank 1-4), stacked in the given order.
core::Tensor gather_rows(const core::Tensor& source, std::span<const std::size_t> rows);

/// Fuses per-member logits [N, C] into ensemble teacher logits (Eq. 5 for
/// kMaxLogits).  Exposed for unit tests and the ensemble-strategy ablation.
core::Tensor ensemble_logits(EnsembleStrategy strategy,
                             std::span<const core::Tensor> member_logits);

/// One round's fusion members in canonical order: the fresh uploads
/// (ascending client id) and the due stale entries (oldest origin first) with
/// their staleness discounts.
struct FusionMembers {
  std::vector<std::size_t> fresh_ids;
  std::vector<nn::Module*> fresh_nets;   ///< parallel to fresh_ids
  std::vector<const StaleUpdate*> stale;
  std::vector<double> stale_weights;     ///< parallel to stale, all > 0

  std::size_t size() const { return fresh_ids.size() + stale.size(); }
  /// Appends every entry of `due` (which must outlive the members).
  void add_stale(const DueUpdates& due);
};

/// The FedAvg rule's members for weighted_state_average_into: a fresh member
/// weighs its shard size, a stale entry its shard size times its discount.
std::vector<StateContribution> shard_weighted_contributions(const FusionMembers& members,
                                                            const Federation& federation);

/// How many members of each class a fusion keeps under `cap` (0 =
/// unlimited).  Fresh members outrank stale ones; within a class the
/// canonical order decides, so the caller drops the highest fresh ids and the
/// oldest (most-discounted) stale entries.  When anything is shed, the shed
/// members and the round are counted in fl.fusion.shed_members and
/// fl.fusion.degraded_rounds.
struct FusionCap {
  std::size_t keep_fresh = 0;
  std::size_t keep_stale = 0;
  bool degraded = false;  ///< members were shed
};
FusionCap cap_fusion_members(std::size_t cap, std::size_t fresh, std::size_t stale);

struct DistillOptions {
  EnsembleStrategy ensemble = EnsembleStrategy::kMaxLogits;
  float temperature = 2.0f;
  std::size_t epochs = 2;
  std::size_t batch_size = 32;
};

/// Distils the teachers' fused logits into `student` on `pool`: `epochs`
/// passes, each over a permutation drawn from `rng`, one optimizer step per
/// batch of batch_size rows (the last batch of an epoch may be short).  With
/// `member_weights` (one per teacher) the target is weighted_avg_logits;
/// otherwise ensemble_logits(options.ensemble).  Teachers must be in eval
/// mode.  `probe_logits`, when given, holds per teacher either a default
/// tensor or its logits on the pool's first min(batch_size, pool) rows,
/// already computed for reputation scoring; those rows are not forwarded
/// again.  Returns the mean distillation KL over the batches.
double distill_from_ensemble(nn::Module& student, nn::Sgd& optimizer,
                             std::span<nn::Module* const> teachers,
                             std::span<const double> member_weights,
                             const core::Tensor& pool, core::Rng rng,
                             const DistillOptions& options,
                             std::span<const core::Tensor> probe_logits = {});

struct ServerFusionOptions {
  DistillOptions distill;
  SanitizeOptions sanitize;
  ReputationTracker* reputation = nullptr;  ///< null: no reputation screening
  models::ModelSpec member_spec;            ///< architecture of every member
  std::size_t max_members = 0;              ///< post-screen cap, 0 = unlimited
};

struct FusionOutcome {
  std::size_t rejected = 0;       ///< sanitation rejections + reputation exclusions
  std::size_t stale_applied = 0;  ///< stale members that took part in the fusion
  bool degraded = false;          ///< the post-screen cap shed members
  double distill_loss = 0.0;      ///< mean KL of the distillation, 0 when none ran
};

/// The whole logit-space server step, in order:
///  1. sanitation of every candidate, then (with a tracker) reputation: each
///     fresh member's agreement with the fused ensemble on the probe batch
///     (the pool's leading rows, fixed so scores compare across rounds) is
///     observed, and excluded clients are dropped, stale entries included;
///  2. the post-screen cap (stale entries are materialised into scratch
///     nets of member_spec for screening and fusion);
///  3. the warm start: trimmed-mean / median state under those strategies,
///     otherwise the shard-weighted average;
///  4. distill_from_ensemble.  Under avg-logits with reputation or stale
///     members, teachers are weighted by reputation (times the staleness
///     discount for stale ones); `rng` is the caller's per-round fork.
/// At distill.epochs == 0 (FedKEMF's weight-average mode) step 4 only puts
/// the student in training mode; the warm start is the fused model.
/// Leaves `student` untouched when every candidate is screened out.  Phases
/// are charged to kSanitize, kFuse and kDistill.
FusionOutcome fuse_by_distillation(const ServerFusionOptions& options,
                                   const FusionMembers& candidates,
                                   const Federation& federation, nn::Module& student,
                                   nn::Sgd& optimizer, core::Rng rng,
                                   obs::PhaseAccumulator& phases);

}  // namespace fedkemf::fl
