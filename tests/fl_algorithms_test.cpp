// Behaviour of the baseline FL algorithms: aggregation math, gradient hooks,
// communication accounting, and cross-algorithm invariants.

#include <cmath>

#include <gtest/gtest.h>

#include "fl/fedavg.hpp"
#include "fl/fednova.hpp"
#include "fl/fedprox.hpp"
#include "fl/runner.hpp"
#include "fl/scaffold.hpp"

namespace fedkemf::fl {
namespace {

FederationOptions tiny_federation() {
  FederationOptions options;
  options.data = data::SyntheticSpec::cifar_like();
  options.data.image_size = 8;
  options.data.num_classes = 4;
  options.data.noise_stddev = 0.5;
  options.train_samples = 160;
  options.test_samples = 64;
  options.server_pool_samples = 32;
  options.num_clients = 4;
  options.dirichlet_alpha = 0.5;
  options.seed = 11;
  return options;
}

models::ModelSpec tiny_model() {
  return models::ModelSpec{.arch = "mlp", .num_classes = 4, .in_channels = 3,
                           .image_size = 8, .width_multiplier = 0.25};
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

RunOptions tiny_run(std::size_t rounds = 3) {
  RunOptions options;
  options.rounds = rounds;
  options.sample_ratio = 0.5;
  return options;
}

TEST(LocalUpdate, ReducesTrainingLoss) {
  Federation fed(tiny_federation());
  core::Rng rng(1);
  auto model = models::build_model(tiny_model(), rng);
  LocalTrainConfig config = tiny_local();
  config.epochs = 5;
  const auto& shard = fed.client_shard(0);
  const LocalTrainResult first =
      supervised_local_update(*model, fed.train_set(), shard, config, core::Rng(2));
  const LocalTrainResult second =
      supervised_local_update(*model, fed.train_set(), shard, config, core::Rng(3));
  EXPECT_LT(second.mean_loss, first.mean_loss);
  EXPECT_EQ(first.steps, config.epochs * ((shard.size() + 15) / 16));
}

TEST(LocalUpdate, GradHookRuns) {
  Federation fed(tiny_federation());
  core::Rng rng(1);
  auto model = models::build_model(tiny_model(), rng);
  std::size_t hook_calls = 0;
  supervised_local_update(*model, fed.train_set(), fed.client_shard(0), tiny_local(),
                          core::Rng(2),
                          [&](const std::vector<nn::Parameter*>&) { ++hook_calls; });
  EXPECT_GT(hook_calls, 0u);
}

TEST(LocalUpdate, EmptyShardThrows) {
  Federation fed(tiny_federation());
  core::Rng rng(1);
  auto model = models::build_model(tiny_model(), rng);
  std::vector<std::size_t> empty;
  EXPECT_THROW(
      supervised_local_update(*model, fed.train_set(), empty, tiny_local(), core::Rng(2)),
      std::invalid_argument);
}

TEST(WeightedAverage, ExactWeightsForTwoModels) {
  Federation fed(tiny_federation());
  core::Rng rng(1);
  auto global = models::build_model(tiny_model(), rng);
  auto a = models::build_model(tiny_model(), rng);
  auto b = models::build_model(tiny_model(), rng);
  for (nn::Parameter* p : a->parameters()) p->value.fill(1.0f);
  for (nn::Parameter* p : b->parameters()) p->value.fill(3.0f);

  const double w0 = static_cast<double>(fed.client_shard(0).size());
  const double w1 = static_cast<double>(fed.client_shard(1).size());
  const StateContribution members[] = {{a.get(), nullptr, w0}, {b.get(), nullptr, w1}};
  weighted_state_average_into(*global, members);

  const float expected = static_cast<float>((w0 * 1.0 + w1 * 3.0) / (w0 + w1));
  for (nn::Parameter* p : global->parameters()) {
    ASSERT_NEAR(p->value[0], expected, 1e-5f);
  }
}

TEST(FedAvg, RunsAndMetersSymmetricTraffic) {
  Federation fed(tiny_federation());
  FedAvg algorithm(tiny_model(), tiny_local());
  const RunResult result = run_federated(fed, algorithm, tiny_run(3));
  EXPECT_EQ(result.rounds_completed, 3u);
  EXPECT_EQ(result.algorithm, "FedAvg");
  // FedAvg ships the model down and up: equal bytes in both directions.
  EXPECT_EQ(fed.meter().downlink_bytes(), fed.meter().uplink_bytes());
  EXPECT_GT(result.total_bytes, 0u);
}

TEST(FedAvg, FullParticipationWithIdenticalClientsKeepsConsensus) {
  // With one client (ratio 1.0) FedAvg's aggregate equals that client's
  // trained model — average of one.
  FederationOptions options = tiny_federation();
  options.num_clients = 1;
  Federation fed(options);
  FedAvg algorithm(tiny_model(), tiny_local());
  RunOptions run = tiny_run(1);
  run.sample_ratio = 1.0;
  const RunResult result = run_federated(fed, algorithm, run);
  EXPECT_EQ(result.rounds_completed, 1u);
}

TEST(FedProx, ProximalHookShrinksDriftFromAnchor) {
  // Same federation/seeds; FedProx with huge mu must end closer to its round
  // anchor than FedAvg does.
  const auto drift_of = [&](double mu) {
    Federation fed(tiny_federation());
    std::unique_ptr<FedAvg> algorithm;
    if (mu < 0) {
      algorithm = std::make_unique<FedAvg>(tiny_model(), tiny_local());
    } else {
      algorithm = std::make_unique<FedProx>(tiny_model(), tiny_local(), mu);
    }
    algorithm->setup(fed);
    const auto anchor = nn::snapshot_state(algorithm->global_model());
    utils::ThreadPool pool(0);
    const std::size_t sampled_arr[] = {0, 1, 2, 3};
    algorithm->round(0, sampled_arr, pool);
    double drift = 0.0;
    const auto params = algorithm->global_model().parameters();
    for (std::size_t i = 0; i < params.size(); ++i) {
      core::Tensor diff = params[i]->value.sub(anchor[i]);
      drift += diff.squared_norm();
    }
    return drift;
  };
  const double fedavg_drift = drift_of(-1.0);
  const double fedprox_drift = drift_of(5.0);
  EXPECT_LT(fedprox_drift, fedavg_drift * 0.8);
}

TEST(FedProx, ZeroMuMatchesFedAvgExactly) {
  Federation fed1(tiny_federation());
  Federation fed2(tiny_federation());
  FedAvg fedavg(tiny_model(), tiny_local());
  FedProx fedprox(tiny_model(), tiny_local(), 0.0);
  const RunResult r1 = run_federated(fed1, fedavg, tiny_run(2));
  const RunResult r2 = run_federated(fed2, fedprox, tiny_run(2));
  EXPECT_DOUBLE_EQ(r1.final_accuracy, r2.final_accuracy);
}

TEST(FedProx, RejectsNegativeMu) {
  EXPECT_THROW(FedProx(tiny_model(), tiny_local(), -0.1), std::invalid_argument);
}

TEST(FedNova, UploadsCostMoreThanDownloads) {
  Federation fed(tiny_federation());
  FedNova algorithm(tiny_model(), tiny_local(), /*ship_momentum=*/true);
  run_federated(fed, algorithm, tiny_run(2));
  // Uplink = model + tau + momentum ~= 2x model; downlink = model.
  EXPECT_GT(fed.meter().uplink_bytes(), fed.meter().downlink_bytes() * 3 / 2);
}

TEST(FedNova, MinimalVariantIsNearSymmetric) {
  Federation fed(tiny_federation());
  FedNova algorithm(tiny_model(), tiny_local(), /*ship_momentum=*/false);
  run_federated(fed, algorithm, tiny_run(2));
  const double ratio = static_cast<double>(fed.meter().uplink_bytes()) /
                       static_cast<double>(fed.meter().downlink_bytes());
  EXPECT_NEAR(ratio, 1.0, 0.01);  // only the 8-byte tau rides along
}

TEST(FedNova, MatchesFedAvgWhenStepsAreEqualForOneClient) {
  // With a single sampled client, FedNova's normalized update reduces to
  // x - tau_eff * (x - y)/tau = y: identical to FedAvg of one.
  FederationOptions options = tiny_federation();
  options.num_clients = 2;
  Federation fed1(options);
  Federation fed2(options);
  FedAvg fedavg(tiny_model(), tiny_local());
  FedNova fednova(tiny_model(), tiny_local());
  RunOptions run = tiny_run(1);
  run.sample_ratio = 0.5;  // one of two clients
  const RunResult r1 = run_federated(fed1, fedavg, run);
  const RunResult r2 = run_federated(fed2, fednova, run);
  EXPECT_NEAR(r1.final_accuracy, r2.final_accuracy, 1e-9);
}

TEST(Scaffold, CommunicatesTwiceTheModelBytes) {
  Federation fed_avg(tiny_federation());
  FedAvg fedavg(tiny_model(), tiny_local());
  run_federated(fed_avg, fedavg, tiny_run(2));
  const std::size_t fedavg_bytes = fed_avg.meter().total_bytes();

  Federation fed_scaffold(tiny_federation());
  Scaffold scaffold(tiny_model(), tiny_local());
  run_federated(fed_scaffold, scaffold, tiny_run(2));
  const std::size_t scaffold_bytes = fed_scaffold.meter().total_bytes();

  // Paper: SCAFFOLD costs ~2x FedAvg per round (model + control variate both
  // ways). Control variates exclude buffers so the ratio is slightly under 2.
  const double ratio =
      static_cast<double>(scaffold_bytes) / static_cast<double>(fedavg_bytes);
  EXPECT_GT(ratio, 1.7);
  EXPECT_LE(ratio, 2.05);
}

TEST(Scaffold, LearnsOnSkewedData) {
  Federation fed(tiny_federation());
  Scaffold algorithm(tiny_model(), tiny_local());
  RunOptions run = tiny_run(8);
  run.sample_ratio = 1.0;
  const RunResult result = run_federated(fed, algorithm, run);
  EXPECT_GT(result.best_accuracy, 0.3);  // above 4-class chance
}

TEST(Algorithms, AllBaselinesImproveOverInitialAccuracy) {
  for (int which = 0; which < 4; ++which) {
    Federation fed(tiny_federation());
    std::unique_ptr<Algorithm> algorithm;
    switch (which) {
      case 0: algorithm = std::make_unique<FedAvg>(tiny_model(), tiny_local()); break;
      case 1: algorithm = std::make_unique<FedProx>(tiny_model(), tiny_local(), 0.01); break;
      case 2: algorithm = std::make_unique<FedNova>(tiny_model(), tiny_local()); break;
      case 3: algorithm = std::make_unique<Scaffold>(tiny_model(), tiny_local()); break;
    }
    RunOptions run = tiny_run(8);
    run.sample_ratio = 1.0;
    const RunResult result = run_federated(fed, *algorithm, run);
    EXPECT_GT(result.best_accuracy, 0.3) << result.algorithm;
  }
}

TEST(Runner, EarlyStopAtTargetAccuracy) {
  Federation fed(tiny_federation());
  FedAvg algorithm(tiny_model(), tiny_local());
  RunOptions run = tiny_run(50);
  run.sample_ratio = 1.0;
  run.stop_at_accuracy = 0.3;
  const RunResult result = run_federated(fed, algorithm, run);
  EXPECT_LT(result.rounds_completed, 50u);
  EXPECT_GE(result.final_accuracy, 0.3);
}

TEST(Runner, EvalEveryReducesHistoryPoints) {
  Federation fed(tiny_federation());
  FedAvg algorithm(tiny_model(), tiny_local());
  RunOptions run = tiny_run(6);
  run.eval_every = 3;
  const RunResult result = run_federated(fed, algorithm, run);
  EXPECT_EQ(result.history.size(), 2u);  // rounds 3 and 6
  EXPECT_EQ(result.rounds_completed, 6u);
}

TEST(Runner, RejectsZeroRounds) {
  Federation fed(tiny_federation());
  FedAvg algorithm(tiny_model(), tiny_local());
  RunOptions run;
  run.rounds = 0;
  EXPECT_THROW(run_federated(fed, algorithm, run), std::invalid_argument);
}

}  // namespace
}  // namespace fedkemf::fl
