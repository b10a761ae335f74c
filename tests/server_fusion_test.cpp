// Server fusion tests: the row gather, the fusion-member cap, the discounted
// stale drain, and distill_from_ensemble against a per-batch re-forward
// reference (the loop FedKEMF and FedDF ran before the teacher logits were
// cached once per round).

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "fl/defense/robust_ensemble.hpp"
#include "fl/server_fusion.hpp"
#include "fl/stale_buffer.hpp"
#include "nn/loss.hpp"

namespace fedkemf::fl {
namespace {

using core::Shape;
using core::Tensor;

TEST(GatherRows, StacksRowsInTheGivenOrderForAnyRank) {
  const Tensor matrix =
      Tensor::from_values(Shape::matrix(3, 2), std::vector<float>{0, 1, 2, 3, 4, 5});
  const std::size_t rows[] = {2, 0, 2};
  const Tensor gathered = gather_rows(matrix, rows);
  EXPECT_EQ(gathered.shape(), Shape::matrix(3, 2));
  EXPECT_EQ(std::vector<float>(gathered.values().begin(), gathered.values().end()),
            (std::vector<float>{4, 5, 0, 1, 4, 5}));

  core::Rng rng(3);
  const Tensor images = Tensor::normal(Shape::nchw(5, 2, 3, 3), rng);
  const std::size_t picks[] = {4, 1};
  const Tensor batch = gather_rows(images, picks);
  EXPECT_EQ(batch.shape(), Shape::nchw(2, 2, 3, 3));
  EXPECT_EQ(std::memcmp(batch.data(), images.data() + 4 * 18, 18 * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(batch.data() + 18, images.data() + 18, 18 * sizeof(float)), 0);
}

TEST(CapFusionMembers, FreshOutranksStaleAndZeroMeansUnlimited) {
  FusionCap kept = cap_fusion_members(0, 5, 3);
  EXPECT_EQ(kept.keep_fresh, 5u);
  EXPECT_EQ(kept.keep_stale, 3u);
  EXPECT_FALSE(kept.degraded);

  kept = cap_fusion_members(8, 5, 3);  // exactly at the cap
  EXPECT_FALSE(kept.degraded);

  kept = cap_fusion_members(6, 5, 3);
  EXPECT_EQ(kept.keep_fresh, 5u);
  EXPECT_EQ(kept.keep_stale, 1u);
  EXPECT_TRUE(kept.degraded);

  kept = cap_fusion_members(2, 5, 3);
  EXPECT_EQ(kept.keep_fresh, 2u);
  EXPECT_EQ(kept.keep_stale, 0u);
  EXPECT_TRUE(kept.degraded);
}

StaleUpdate late_upload(std::size_t client_id, std::size_t origin_round, std::size_t due_round) {
  StaleUpdate update;
  update.client_id = client_id;
  update.origin_round = origin_round;
  update.due_round = due_round;
  return update;
}

TEST(StaleDrain, DiscountsEveryDueEntryAndSkipsZeroWeights) {
  StaleUpdateBuffer buffer(StalenessOptions{.alpha = 1.0});
  buffer.push(late_upload(3, 1, 2));
  buffer.push(late_upload(1, 0, 2));
  buffer.push(late_upload(2, 2, 5));
  DueUpdates due = buffer.take_due_discounted(3);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due.updates[0].client_id, 1u);  // oldest origin first
  EXPECT_EQ(due.weights[0], staleness_weight(3, 1.0));
  EXPECT_EQ(due.updates[1].client_id, 3u);
  EXPECT_EQ(due.weights[1], staleness_weight(2, 1.0));
  due.keep_newest(1);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due.updates[0].client_id, 3u);

  StaleUpdateBuffer discard(StalenessOptions{.alpha = 1e6});
  discard.push(late_upload(0, 0, 1));
  EXPECT_TRUE(discard.take_due_discounted(1).empty());
  EXPECT_EQ(discard.size(), 0u);
}

// ---- distill_from_ensemble against the per-batch re-forward ----

models::ModelSpec spec_of(const std::string& arch) {
  return models::ModelSpec{.arch = arch, .num_classes = 4, .in_channels = 3,
                           .image_size = 8, .width_multiplier = 0.25};
}

/// A teacher with its own weights and BatchNorm statistics moved off their
/// init, frozen in eval mode.
std::unique_ptr<nn::Module> make_teacher(const models::ModelSpec& spec, std::uint64_t seed) {
  core::Rng rng(seed);
  auto net = models::build_model(spec, rng);
  net->set_training(true);
  (void)net->forward(Tensor::normal(Shape::nchw(8, 3, 8, 8), rng, 0.0f, 2.0f));
  net->set_training(false);
  return net;
}

/// The loop this routine replaced: every teacher forwards every batch.
double reference_distill(nn::Module& student, nn::Sgd& optimizer,
                         std::span<nn::Module* const> teachers,
                         std::span<const double> member_weights, const Tensor& pool,
                         core::Rng rng, const DistillOptions& options) {
  const std::size_t pool_size = pool.dim(0);
  const std::size_t batch_size = std::min(options.batch_size, pool_size);
  const std::size_t row_numel = pool.numel() / pool_size;
  nn::DistillationKl kd(options.temperature);
  student.set_training(true);
  double loss_total = 0.0;
  std::size_t batches = 0;
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    const std::vector<std::size_t> order = rng.permutation(pool_size);
    for (std::size_t start = 0; start < pool_size; start += batch_size) {
      const std::size_t count = std::min(batch_size, pool_size - start);
      Tensor batch(Shape::nchw(count, pool.dim(1), pool.dim(2), pool.dim(3)));
      for (std::size_t i = 0; i < count; ++i) {
        std::copy_n(pool.data() + order[start + i] * row_numel, row_numel,
                    batch.data() + i * row_numel);
      }
      std::vector<Tensor> member_logits;
      for (nn::Module* teacher : teachers) member_logits.push_back(teacher->forward(batch));
      const Tensor target = member_weights.empty()
                                ? ensemble_logits(options.ensemble, member_logits)
                                : weighted_avg_logits(member_logits, member_weights);
      nn::LossResult loss = kd.compute(student.forward(batch), target);
      optimizer.zero_grad();
      student.backward(loss.grad);
      optimizer.step();
      loss_total += loss.value;
      ++batches;
    }
  }
  return loss_total / static_cast<double>(batches);
}

bool same_state_bits(nn::Module& a, nn::Module& b) {
  const std::vector<Tensor> sa = nn::snapshot_state(a);
  const std::vector<Tensor> sb = nn::snapshot_state(b);
  if (sa.size() != sb.size()) return false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].shape() != sb[i].shape() ||
        std::memcmp(sa[i].data(), sb[i].data(), sa[i].numel() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

struct Student {
  std::unique_ptr<nn::Module> net;
  std::unique_ptr<nn::Sgd> optimizer;
};

Student make_student(const models::ModelSpec& spec, const nn::SgdOptions& sgd) {
  core::Rng rng(99);
  Student s;
  s.net = models::build_model(spec, rng);
  s.optimizer = std::make_unique<nn::Sgd>(s.net->parameters(), sgd);
  return s;
}

// A 48-row pool in batches of 32: two batches per epoch, the second short, so
// every epoch's permutation decides which rows share a batch.
Tensor make_pool() {
  core::Rng rng(5);
  return Tensor::normal(Shape::nchw(48, 3, 8, 8), rng);
}

TEST(DistillFromEnsemble, MaxLogitsMatchesPerBatchReforwardBitwise) {
  // FedKEMF's default: knowledge nets fused by max-logits, momentum server.
  const models::ModelSpec spec = spec_of("resnet20");
  std::vector<std::unique_ptr<nn::Module>> owned;
  std::vector<nn::Module*> teachers;
  for (std::uint64_t seed : {11, 12, 13}) {
    owned.push_back(make_teacher(spec, seed));
    teachers.push_back(owned.back().get());
  }
  const nn::SgdOptions sgd{.learning_rate = 0.02, .momentum = 0.9, .clip_norm = 5.0};
  const DistillOptions options{.ensemble = EnsembleStrategy::kMaxLogits,
                               .temperature = 2.0f, .epochs = 2, .batch_size = 32};
  const Tensor pool = make_pool();
  const core::Rng rng = core::Rng(7).fork(0xD157111ULL);

  Student cached = make_student(spec, sgd);
  Student reference = make_student(spec, sgd);
  const double cached_loss = distill_from_ensemble(*cached.net, *cached.optimizer, teachers,
                                                   {}, pool, rng, options);
  const double reference_loss = reference_distill(*reference.net, *reference.optimizer,
                                                  teachers, {}, pool, rng, options);
  EXPECT_EQ(cached_loss, reference_loss);
  EXPECT_TRUE(same_state_bits(*cached.net, *reference.net));
}

TEST(DistillFromEnsemble, WeightedAvgLogitsWithStaleTeacherAndProbeMatchesReforwardBitwise) {
  // FedDF's setting: avg-logits, two fresh members soft-weighted by
  // reputation, one stale member restored from a snapshot into a scratch net
  // and weighted by reputation x staleness discount.  The fresh members'
  // probe logits (pool rows 0..31, as reputation scoring computes them) are
  // handed in and must stand in for their first chunk exactly.
  const models::ModelSpec spec = spec_of("cnn2");
  auto fresh_a = make_teacher(spec, 21);
  auto fresh_b = make_teacher(spec, 22);
  const std::vector<Tensor> stale_state = nn::snapshot_state(*make_teacher(spec, 23));
  core::Rng scratch_rng(0x57A1E4E7ULL);
  auto stale_net = models::build_model(spec, scratch_rng);
  nn::restore_state(*stale_net, stale_state);
  stale_net->set_training(false);
  std::vector<nn::Module*> teachers = {fresh_a.get(), fresh_b.get(), stale_net.get()};
  const std::vector<double> weights = {0.9, 0.35, 0.7 * staleness_weight(2, 1.0)};

  const Tensor pool = make_pool();
  std::vector<std::size_t> probe_rows(32);
  for (std::size_t i = 0; i < probe_rows.size(); ++i) probe_rows[i] = i;
  const Tensor probe = gather_rows(pool, probe_rows);
  const std::vector<Tensor> probe_logits = {fresh_a->forward(probe), fresh_b->forward(probe),
                                            Tensor()};

  const nn::SgdOptions sgd{.learning_rate = 0.02, .momentum = 0.0};
  const DistillOptions options{.ensemble = EnsembleStrategy::kAvgLogits,
                               .temperature = 2.0f, .epochs = 3, .batch_size = 32};
  const core::Rng rng = core::Rng(7).fork(0xFEDD1F00ULL);

  Student cached = make_student(spec, sgd);
  Student reference = make_student(spec, sgd);
  const double cached_loss = distill_from_ensemble(
      *cached.net, *cached.optimizer, teachers, weights, pool, rng, options, probe_logits);
  const double reference_loss = reference_distill(*reference.net, *reference.optimizer,
                                                  teachers, weights, pool, rng, options);
  EXPECT_EQ(cached_loss, reference_loss);
  EXPECT_TRUE(same_state_bits(*cached.net, *reference.net));
}

}  // namespace
}  // namespace fedkemf::fl
