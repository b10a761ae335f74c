// Byzantine-defense tests: pre-aggregation sanitation (NaN and norm-band
// rejection), reputation tracking (EMA scores, warmup, exclusion), robust
// logit fusion properties, the runner's divergence watchdog (non-finite and
// accuracy-collapse rollback), and the miniature acceptance experiment —
// defended FedKEMF resists 30% sign-flip poisoners while undefended
// max-logits fusion degrades.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "fl/defense/reputation.hpp"
#include "fl/defense/robust_ensemble.hpp"
#include "fl/defense/sanitize.hpp"
#include "fl/fedkemf.hpp"
#include "fl/runner.hpp"
#include "models/zoo.hpp"
#include "sim/simulator.hpp"

namespace fedkemf::fl {
namespace {

using core::Rng;
using core::Shape;
using core::Tensor;

models::ModelSpec tiny_spec(const char* arch = "mlp") {
  return models::ModelSpec{.arch = arch, .num_classes = 4, .in_channels = 3,
                           .image_size = 8, .width_multiplier = 0.25};
}

std::unique_ptr<nn::Module> tiny_model(std::uint64_t seed) {
  Rng rng(seed);
  return models::build_model(tiny_spec(), rng);
}

FederationOptions tiny_federation(std::uint64_t seed = 21, std::size_t clients = 4) {
  FederationOptions options;
  options.data = data::SyntheticSpec::cifar_like();
  options.data.image_size = 8;
  options.data.num_classes = 4;
  options.data.noise_stddev = 0.5;
  options.train_samples = 40 * clients;
  options.test_samples = 64;
  options.server_pool_samples = 48;
  options.num_clients = clients;
  options.dirichlet_alpha = 0.5;
  options.seed = seed;
  return options;
}

LocalTrainConfig tiny_local() {
  LocalTrainConfig config;
  config.epochs = 1;
  config.batch_size = 16;
  config.learning_rate = 0.05;
  config.momentum = 0.0;
  config.weight_decay = 0.0;
  return config;
}

// ---- Sanitation ----

TEST(Sanitize, DisabledAcceptsEverything) {
  auto a = tiny_model(1);
  auto b = tiny_model(2);
  b->parameters()[0]->value.data()[0] = std::numeric_limits<float>::quiet_NaN();
  nn::Module* updates[] = {a.get(), b.get()};
  const std::size_t clients[] = {3, 7};
  const SanitizeResult result = sanitize_updates(updates, clients, SanitizeOptions{});
  EXPECT_EQ(result.accepted, (std::vector<std::size_t>{3, 7}));
  EXPECT_TRUE(result.rejected.empty());
}

TEST(Sanitize, RejectsNonFiniteUpdates) {
  auto a = tiny_model(1);
  auto b = tiny_model(2);
  auto c = tiny_model(3);
  b->parameters()[0]->value.data()[0] = std::numeric_limits<float>::infinity();
  nn::Module* updates[] = {a.get(), b.get(), c.get()};
  const std::size_t clients[] = {0, 1, 2};
  SanitizeOptions options;
  options.enabled = true;
  const SanitizeResult result = sanitize_updates(updates, clients, options);
  EXPECT_EQ(result.accepted, (std::vector<std::size_t>{0, 2}));
  ASSERT_EQ(result.rejected.size(), 1u);
  EXPECT_EQ(result.rejected[0].client_id, 1u);
  EXPECT_EQ(result.rejected[0].reason, "non_finite");
}

TEST(Sanitize, RejectsNormOutliersAgainstCohortMedian) {
  std::vector<std::unique_ptr<nn::Module>> models;
  std::vector<nn::Module*> updates;
  std::vector<std::size_t> clients;
  for (std::uint64_t i = 0; i < 5; ++i) {
    models.push_back(tiny_model(10 + i));
    updates.push_back(models.back().get());
    clients.push_back(i);
  }
  // Blow up one member's norm far outside the band.
  for (nn::Parameter* p : models[3]->parameters()) p->value.scale_(1000.0f);
  SanitizeOptions options;
  options.enabled = true;
  options.max_norm_ratio = 10.0;
  const SanitizeResult result = sanitize_updates(updates, clients, options);
  EXPECT_EQ(result.accepted, (std::vector<std::size_t>{0, 1, 2, 4}));
  ASSERT_EQ(result.rejected.size(), 1u);
  EXPECT_EQ(result.rejected[0].client_id, 3u);
  EXPECT_EQ(result.rejected[0].reason, "norm_out_of_band");
}

TEST(Sanitize, NormBandNeedsAtLeastThreeFiniteMembers) {
  auto a = tiny_model(1);
  auto b = tiny_model(2);
  for (nn::Parameter* p : b->parameters()) p->value.scale_(1000.0f);
  nn::Module* updates[] = {a.get(), b.get()};
  const std::size_t clients[] = {0, 1};
  SanitizeOptions options;
  options.enabled = true;
  const SanitizeResult result = sanitize_updates(updates, clients, options);
  // With two members the median is meaningless; both are kept.
  EXPECT_EQ(result.accepted, (std::vector<std::size_t>{0, 1}));
}

TEST(Sanitize, StateFiniteAndNormHelpers) {
  auto model = tiny_model(4);
  EXPECT_TRUE(state_finite(*model));
  EXPECT_GT(state_l2_norm(*model), 0.0);
  model->parameters()[0]->value.data()[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(state_finite(*model));
}

// ---- Reputation ----

TEST(Reputation, NeutralPriorThenEmaUpdates) {
  ReputationOptions options;
  options.enabled = true;
  options.ema_beta = 0.5;
  ReputationTracker tracker(options, 4);
  EXPECT_DOUBLE_EQ(tracker.score(2), 1.0);  // neutral before any observation
  tracker.observe(2, 0.0);                  // first observation replaces the prior
  EXPECT_DOUBLE_EQ(tracker.score(2), 0.0);
  tracker.observe(2, 1.0);
  EXPECT_DOUBLE_EQ(tracker.score(2), 0.5);
  EXPECT_EQ(tracker.observations(2), 2u);
  EXPECT_EQ(tracker.observations(0), 0u);
}

TEST(Reputation, ExcludesPersistentOutliersAfterWarmup) {
  ReputationOptions options;
  options.enabled = true;
  options.ema_beta = 0.5;
  options.exclude_below = 0.25;
  options.warmup_observations = 2;
  ReputationTracker tracker(options, 3);
  tracker.observe(1, 0.0);
  EXPECT_FALSE(tracker.excluded(1));  // still inside the warmup window
  tracker.observe(1, 0.1);
  EXPECT_TRUE(tracker.excluded(1));
  EXPECT_DOUBLE_EQ(tracker.weight(1), 0.0);
  tracker.observe(0, 0.9);
  tracker.observe(0, 0.9);
  EXPECT_FALSE(tracker.excluded(0));
  EXPECT_DOUBLE_EQ(tracker.weight(0), tracker.score(0));
}

TEST(Reputation, CohortWideLowScoresDoNotMassExclude) {
  // Early rounds: every model predicts near chance, so raw agreement sits
  // below the absolute floor for the whole cohort.  The median-relative bar
  // must keep everyone in — only a genuine outlier vs the cohort goes.
  ReputationOptions options;
  options.enabled = true;
  options.ema_beta = 0.5;
  options.exclude_below = 0.25;
  options.exclude_below_median = 0.5;
  options.warmup_observations = 2;
  ReputationTracker tracker(options, 4);
  for (std::size_t round = 0; round < 2; ++round) {
    tracker.observe(0, 0.10);
    tracker.observe(1, 0.12);
    tracker.observe(2, 0.10);
    tracker.observe(3, 0.01);  // far below even the chance-level cohort
  }
  EXPECT_FALSE(tracker.excluded(0));  // 0.10 >= 0.5 * median(0.10)
  EXPECT_FALSE(tracker.excluded(1));
  EXPECT_FALSE(tracker.excluded(2));
  EXPECT_TRUE(tracker.excluded(3));  // 0.01 < 0.05 and < exclude_below

  // Once the honest cohort trains up, a chance-level member is an outlier
  // again and the absolute floor binds.
  for (std::size_t round = 0; round < 4; ++round) {
    tracker.observe(0, 0.9);
    tracker.observe(1, 0.9);
    tracker.observe(2, 0.1);
  }
  EXPECT_FALSE(tracker.excluded(0));
  EXPECT_TRUE(tracker.excluded(2));
}

TEST(Reputation, ValidatesMedianRatio) {
  ReputationOptions bad;
  bad.exclude_below_median = 1.5;
  EXPECT_THROW(ReputationTracker(bad, 2), std::invalid_argument);
}

TEST(Reputation, ValidatesOptionsAndObservations) {
  ReputationOptions bad_beta;
  bad_beta.ema_beta = 1.0;
  EXPECT_THROW(ReputationTracker(bad_beta, 2), std::invalid_argument);
  ReputationOptions bad_threshold;
  bad_threshold.exclude_below = 1.5;
  EXPECT_THROW(ReputationTracker(bad_threshold, 2), std::invalid_argument);
  ReputationTracker tracker(ReputationOptions{}, 2);
  EXPECT_THROW(tracker.observe(0, -0.1), std::invalid_argument);
  EXPECT_THROW(tracker.observe(0, 1.1), std::invalid_argument);
}

// ---- Robust fusion properties ----

TEST(RobustEnsemble, MinorityOfPoisonedMembersCannotMoveTrimmedMean) {
  // Three honest members agree exactly; two poisoned members push +/-1000.
  const float honest_v[] = {1.0f, -2.0f, 0.5f, 3.0f};
  Tensor honest = Tensor::from_values(Shape::matrix(2, 2), honest_v);
  Tensor high = honest.clone();
  Tensor low = honest.clone();
  for (std::size_t i = 0; i < high.numel(); ++i) {
    high.data()[i] = 1000.0f;
    low.data()[i] = -1000.0f;
  }
  const Tensor members[] = {high, honest, honest, honest, low};
  const Tensor trimmed = trimmed_mean_logits(members, 0.3);
  const Tensor median = median_logits(members);
  for (std::size_t i = 0; i < honest.numel(); ++i) {
    EXPECT_EQ(trimmed.data()[i], honest.data()[i]) << "cell " << i;
    EXPECT_EQ(median.data()[i], honest.data()[i]) << "cell " << i;
  }
}

TEST(RobustEnsemble, WeightedAverageRespectsWeights) {
  const float a_v[] = {2.0f, 4.0f};
  const float b_v[] = {6.0f, 8.0f};
  Tensor a = Tensor::from_values(Shape::matrix(1, 2), a_v);
  Tensor b = Tensor::from_values(Shape::matrix(1, 2), b_v);
  const Tensor members[] = {a, b};
  const double equal[] = {1.0, 1.0};
  const Tensor mid = weighted_avg_logits(members, equal);
  EXPECT_FLOAT_EQ(mid.data()[0], 4.0f);
  EXPECT_FLOAT_EQ(mid.data()[1], 6.0f);
  const double skewed[] = {1.0, 0.0};
  const Tensor only_a = weighted_avg_logits(members, skewed);
  EXPECT_FLOAT_EQ(only_a.data()[0], 2.0f);
  const double zeros[] = {0.0, 0.0};
  EXPECT_THROW(weighted_avg_logits(members, zeros), std::invalid_argument);
}

// ---- Divergence watchdog ----

/// A minimal algorithm whose round() either nudges one weight (honest) or
/// injects NaN into the global model and reports a NaN loss (poisoned),
/// letting the rollback contract be checked bit-for-bit.
class NanInjector final : public Algorithm {
 public:
  explicit NanInjector(std::size_t poison_round) : poison_round_(poison_round) {}
  std::string name() const override { return "NanInjector"; }
  void setup(Federation&) override { global_ = tiny_model(99); }
  double round(std::size_t round_index, std::span<const std::size_t>,
               utils::ThreadPool&) override {
    float* w = global_->parameters().front()->value.data();
    if (round_index == poison_round_) {
      w[0] = std::numeric_limits<float>::quiet_NaN();
      return std::nan("");
    }
    w[1] += 0.001f;
    return 1.0;
  }
  nn::Module& global_model() override { return *global_; }

 private:
  std::size_t poison_round_;
  std::unique_ptr<nn::Module> global_;
};

TEST(Watchdog, NonFiniteRoundRollsBackByteIdenticalAndRunContinues) {
  Federation fed(tiny_federation());
  NanInjector algorithm(/*poison_round=*/2);
  RunOptions run;
  run.rounds = 5;
  run.sample_ratio = 1.0;
  run.eval_every = 100;  // only the forced rollback record and the last round
  run.watchdog = WatchdogOptions{};
  const RunResult result = run_federated(fed, algorithm, run);

  // The run survives the poisoned round and completes every round.
  EXPECT_EQ(result.rounds_completed, run.rounds);
  EXPECT_EQ(result.total_rolled_back, 1u);
  ASSERT_EQ(result.history.size(), 2u);  // round 2 (rolled back) + round 4
  EXPECT_EQ(result.history[0].round, 2u);
  EXPECT_TRUE(result.history[0].rolled_back);
  EXPECT_FALSE(result.history[1].rolled_back);

  // Byte-identical restore: the NaN never survives, and the honest nudges
  // from the four accepted rounds (0, 1, 3, 4) are all present.
  auto reference = tiny_model(99);
  const float* got = algorithm.global_model().parameters().front()->value.data();
  const float* init = reference->parameters().front()->value.data();
  EXPECT_EQ(got[0], init[0]);  // poisoned cell restored to its pre-round value
  float expected = init[1];
  for (int i = 0; i < 4; ++i) expected += 0.001f;
  EXPECT_EQ(got[1], expected);
}

/// Trains honestly for one round, then replaces the global model with zeros —
/// finite weights, but the accuracy collapses to the majority-class rate.
class CollapseInjector final : public Algorithm {
 public:
  std::string name() const override { return "CollapseInjector"; }
  void setup(Federation& federation) override {
    federation_ = &federation;
    global_ = tiny_model(7);
  }
  double round(std::size_t round_index, std::span<const std::size_t> sampled,
               utils::ThreadPool&) override {
    if (round_index == 0) {
      // Train on every client shard so the first evaluation is well above
      // the zeroed model's majority-class accuracy.
      LocalTrainConfig config = tiny_local();
      config.epochs = 3;
      for (std::size_t id : sampled) {
        supervised_local_update(*global_, federation_->train_set(),
                                federation_->client_shard(id), config,
                                client_stream(*federation_, round_index, id));
      }
      return 1.0;
    }
    for (nn::Parameter* p : global_->parameters()) p->value.zero();
    return 1.0;
  }
  nn::Module& global_model() override { return *global_; }

 private:
  Federation* federation_ = nullptr;
  std::unique_ptr<nn::Module> global_;
};

TEST(Watchdog, AccuracyCollapseTriggersRollback) {
  Federation fed(tiny_federation());
  CollapseInjector algorithm;
  RunOptions run;
  run.rounds = 2;
  run.sample_ratio = 1.0;
  run.eval_every = 1;
  run.watchdog = WatchdogOptions{.accuracy_drop_threshold = 0.1};
  const RunResult result = run_federated(fed, algorithm, run);

  ASSERT_EQ(result.history.size(), 2u);
  EXPECT_FALSE(result.history[0].rolled_back);
  EXPECT_TRUE(result.history[1].rolled_back);
  EXPECT_EQ(result.total_rolled_back, 1u);
  // The recorded accuracy is the restored model's, not the collapsed one's.
  EXPECT_DOUBLE_EQ(result.history[1].accuracy, result.history[0].accuracy);
  // And the weights really are the trained ones, not the zeroed ones.
  EXPECT_GT(state_l2_norm(algorithm.global_model()), 0.0);
}

// ---- Acceptance: defended FedKEMF resists 30% sign-flip poisoners ----

TEST(Acceptance, DefendedFedKemfResists30PercentSignFlip) {
  FedKemfOptions defended;
  defended.knowledge_spec = tiny_spec();
  defended.distill_epochs = 1;
  defended.distill_batch_size = 16;
  defended.ensemble = EnsembleStrategy::kTrimmedMean;
  defended.sanitize.enabled = true;
  defended.reputation.enabled = true;

  FedKemfOptions undefended;
  undefended.knowledge_spec = tiny_spec();
  undefended.distill_epochs = 1;
  undefended.distill_batch_size = 16;
  undefended.ensemble = EnsembleStrategy::kMaxLogits;

  RunOptions run;
  run.rounds = 8;
  run.sample_ratio = 1.0;
  run.eval_every = 2;

  const auto execute = [&](const FedKemfOptions& options, double poison_fraction,
                           bool watchdog) {
    RunOptions local = run;
    if (poison_fraction > 0.0) {
      local.sim = sim::SimOptions{};
      local.sim->adversary.poison_fraction = poison_fraction;
      local.sim->adversary.poison_mode = sim::PoisonMode::kSignFlip;
    }
    if (watchdog) local.watchdog = WatchdogOptions{};
    Federation fed(tiny_federation(55, /*clients=*/10));
    FedKemf algorithm({tiny_spec()}, tiny_local(), options);
    return run_federated(fed, algorithm, local);
  };

  const RunResult clean = execute(defended, 0.0, true);
  const RunResult survived = execute(defended, 0.3, true);
  const RunResult degraded = execute(undefended, 0.3, false);

  // Defense held: >= 90% of the clean run's final accuracy.
  EXPECT_GE(survived.final_accuracy, 0.9 * clean.final_accuracy)
      << "clean=" << clean.final_accuracy << " survived=" << survived.final_accuracy;
  // The screens actually fired on the poisoners.
  EXPECT_GT(survived.total_rejected_updates, 0u);
  // Undefended max-logits fusion measurably degrades under the same attack.
  EXPECT_LT(degraded.final_accuracy + 0.05, survived.final_accuracy)
      << "degraded=" << degraded.final_accuracy
      << " survived=" << survived.final_accuracy;
}

// ---- Weight-average fusion goes through the same screens ----

TEST(WeightAverageFusion, SanitizesAndCapsLikeDistillation) {
  // A 34% Gaussian-noise minority (scale 1000) against sanitation and a
  // three-member fusion cap: the weight-average mode must reject the noisy
  // uploads and shed the surplus members, as the distillation mode does.
  FedKemfOptions options;
  options.knowledge_spec = tiny_spec();
  options.distill_batch_size = 16;
  options.fuse_by_weight_average = true;
  options.sanitize.enabled = true;

  RunOptions run;
  run.rounds = 4;
  run.sample_ratio = 1.0;
  run.sim = sim::SimOptions{};
  run.sim->adversary.poison_fraction = 0.34;
  run.sim->adversary.poison_mode = sim::PoisonMode::kGaussianNoise;
  run.sim->adversary.poison_noise_scale = 1000.0;
  run.resources = ResourceLimits{};
  run.resources->max_fusion_members = 3;

  Federation fed(tiny_federation(21, /*clients=*/6));
  FedKemf algorithm({tiny_spec()}, tiny_local(), options);
  const RunResult result = run_federated(fed, algorithm, run);
  EXPECT_GT(result.total_rejected_updates, 0u);
  EXPECT_GT(result.total_degraded_rounds, 0u);
  EXPECT_TRUE(state_finite(algorithm.global_model()));
}

}  // namespace
}  // namespace fedkemf::fl
