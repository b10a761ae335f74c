// Elastic federation tests: the FedBuff-style staleness discount, the
// ChurnModel join/leave/rejoin trace, the bounded stale-update buffer, and
// the run-level equivalence properties — alpha -> inf degenerates to the
// discard-stragglers policy exactly, and zero-lateness staleness reproduces
// the no-deadline run exactly.

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "core/serialize.hpp"
#include "fl/fedavg.hpp"
#include "fl/feddf.hpp"
#include "fl/fedkemf.hpp"
#include "fl/fedmd.hpp"
#include "fl/fednova.hpp"
#include "fl/fedprox.hpp"
#include "fl/runner.hpp"
#include "fl/scaffold.hpp"
#include "fl/stale_buffer.hpp"
#include "obs/metrics.hpp"
#include "sim/churn.hpp"
#include "sim/simulator.hpp"

namespace fedkemf::fl {
namespace {

FederationOptions small_federation(std::uint64_t seed = 53) {
  FederationOptions options;
  options.data = data::SyntheticSpec::cifar_like();
  options.data.image_size = 8;
  options.data.num_classes = 4;
  options.data.noise_stddev = 0.5;
  options.train_samples = 240;
  options.test_samples = 96;
  options.server_pool_samples = 48;
  options.num_clients = 6;
  options.dirichlet_alpha = 0.1;
  options.seed = seed;
  return options;
}

models::ModelSpec mlp_spec() {
  return models::ModelSpec{.arch = "mlp", .num_classes = 4, .in_channels = 3,
                           .image_size = 8, .width_multiplier = 0.25};
}

LocalTrainConfig local_config() {
  LocalTrainConfig config;
  config.epochs = 1;
  config.batch_size = 16;
  config.learning_rate = 0.05;
  config.momentum = 0.9;
  return config;
}

// A deadline tight enough that the slow end of the default 10x compute /
// 20x bandwidth spread misses it — the straggler source for these tests.
sim::SimOptions straggler_sim() {
  sim::SimOptions sim;
  sim.deadline_seconds = 0.2;  // ~half the default fleet misses this
  sim.churn.min_staleness = 1;
  sim.churn.max_staleness = 2;
  return sim;
}

// ---- staleness_weight ----

TEST(StalenessWeight, FreshUpdateIsExactlyUnity) {
  // s == 0 is pinned to 1.0 for every alpha, including the degenerate ones.
  EXPECT_EQ(staleness_weight(0, 0.0), 1.0);
  EXPECT_EQ(staleness_weight(0, 1.0), 1.0);
  EXPECT_EQ(staleness_weight(0, 1e9), 1.0);
}

TEST(StalenessWeight, AlphaZeroTreatsLateWorkAsFresh) {
  for (std::size_t s = 0; s < 10; ++s) EXPECT_EQ(staleness_weight(s, 0.0), 1.0);
}

TEST(StalenessWeight, MatchesClosedForm) {
  EXPECT_DOUBLE_EQ(staleness_weight(1, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(staleness_weight(3, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(staleness_weight(1, 2.0), 0.25);
}

TEST(StalenessWeight, MonotoneInStalenessAndAlpha) {
  for (std::size_t s = 1; s < 8; ++s) {
    EXPECT_LT(staleness_weight(s + 1, 1.0), staleness_weight(s, 1.0));
    EXPECT_LT(staleness_weight(s, 2.0), staleness_weight(s, 1.0));
  }
}

TEST(StalenessWeight, HugeAlphaUnderflowsToExactZero) {
  // The alpha -> inf limit must *reach* zero so discounted entries are
  // skipped outright and the policy degenerates to discard bitwise.
  EXPECT_EQ(staleness_weight(1, 1e6), 0.0);
  EXPECT_EQ(staleness_weight(5, 1e6), 0.0);
}

// ---- ChurnModel ----

sim::ChurnOptions dynamic_churn() {
  sim::ChurnOptions churn;
  churn.initial_fraction = 0.75;
  churn.leave_prob = 0.2;
  churn.rejoin_prob = 0.5;
  churn.join_prob = 0.3;
  return churn;
}

TEST(ChurnModel, StaticOptionsAreNotDynamic) {
  EXPECT_FALSE(sim::ChurnOptions{}.dynamic());
  EXPECT_TRUE(dynamic_churn().dynamic());
  sim::ChurnOptions partial;
  partial.initial_fraction = 0.5;
  EXPECT_TRUE(partial.dynamic());
}

TEST(ChurnModel, TraceIsDeterministicPerSeed) {
  sim::ChurnModel a(dynamic_churn(), 12, core::Rng(9));
  sim::ChurnModel b(dynamic_churn(), 12, core::Rng(9));
  for (std::size_t round = 0; round < 20; ++round) {
    const sim::ChurnEvents ea = a.begin_round(round);
    const sim::ChurnEvents eb = b.begin_round(round);
    EXPECT_EQ(ea.joined, eb.joined) << "round " << round;
    EXPECT_EQ(ea.left, eb.left) << "round " << round;
    EXPECT_EQ(a.present_clients(), b.present_clients());
  }
}

TEST(ChurnModel, AtLeastOneClientAlwaysPresent) {
  sim::ChurnOptions churn;
  churn.leave_prob = 1.0;  // everyone tries to leave every round
  sim::ChurnModel model(churn, 8, core::Rng(3));
  for (std::size_t round = 0; round < 10; ++round) {
    model.begin_round(round);
    EXPECT_GE(model.present_count(), 1u) << "round " << round;
  }
}

TEST(ChurnModel, RoundsMustBeConsumedInOrder) {
  sim::ChurnModel model(dynamic_churn(), 6, core::Rng(4));
  model.begin_round(0);
  EXPECT_THROW(model.begin_round(0), std::logic_error);  // replay
  EXPECT_THROW(model.begin_round(5), std::logic_error);  // skip
  EXPECT_NO_THROW(model.begin_round(1));
  EXPECT_EQ(model.next_round(), 2u);
}

TEST(ChurnModel, LatenessIsBoundedStatelessAndDeterministic) {
  sim::ChurnOptions churn = dynamic_churn();
  churn.min_staleness = 1;
  churn.max_staleness = 3;
  const sim::ChurnModel a(churn, 6, core::Rng(7));
  const sim::ChurnModel b(churn, 6, core::Rng(7));
  for (std::size_t round = 0; round < 6; ++round) {
    for (std::size_t client = 0; client < 6; ++client) {
      const std::size_t lateness = a.lateness(round, client);
      EXPECT_GE(lateness, churn.min_staleness);
      EXPECT_LE(lateness, churn.max_staleness);
      // Stateless: repeated and cross-instance queries agree.
      EXPECT_EQ(lateness, a.lateness(round, client));
      EXPECT_EQ(lateness, b.lateness(round, client));
    }
  }
}

TEST(ChurnModel, SaveLoadResumesTheTraceExactly) {
  sim::ChurnModel reference(dynamic_churn(), 10, core::Rng(11));
  sim::ChurnModel resumed(dynamic_churn(), 10, core::Rng(11));
  for (std::size_t round = 0; round < 4; ++round) {
    reference.begin_round(round);
    resumed.begin_round(round);
  }
  core::ByteWriter writer;
  resumed.save_state(writer);
  // Same rng as the original: a resumed run reconstructs the simulator from
  // the run seed, so the per-(round, client) draw streams line up; only the
  // membership + position come from the checkpoint.
  sim::ChurnModel restored(dynamic_churn(), 10, core::Rng(11));
  core::ByteReader reader(writer.buffer());
  restored.load_state(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(restored.next_round(), 4u);
  EXPECT_EQ(restored.present_clients(), reference.present_clients());
  for (std::size_t round = 4; round < 12; ++round) {
    const sim::ChurnEvents expected = reference.begin_round(round);
    const sim::ChurnEvents actual = restored.begin_round(round);
    EXPECT_EQ(expected.joined, actual.joined) << "round " << round;
    EXPECT_EQ(expected.left, actual.left) << "round " << round;
  }
}

TEST(ChurnModel, LoadRejectsClientCountMismatch) {
  sim::ChurnModel model(dynamic_churn(), 10, core::Rng(1));
  core::ByteWriter writer;
  model.save_state(writer);
  sim::ChurnModel other(dynamic_churn(), 4, core::Rng(1));
  core::ByteReader reader(writer.buffer());
  EXPECT_THROW(other.load_state(reader), std::runtime_error);
}

// ---- StaleUpdateBuffer ----

StaleUpdate make_update(std::size_t client, std::size_t origin, std::size_t due,
                        float fill) {
  StaleUpdate update;
  update.client_id = client;
  update.origin_round = origin;
  update.due_round = due;
  core::Tensor t(core::Shape{{2, 2}});
  t.fill(fill);
  update.state.push_back(t);
  update.scalars = {static_cast<double>(origin)};
  return update;
}

TEST(StaleBuffer, TakeDueFiltersAndSortsCanonically) {
  StaleUpdateBuffer buffer(StalenessOptions{});
  buffer.push(make_update(3, 1, 2, 0.f));
  buffer.push(make_update(1, 1, 2, 0.f));
  buffer.push(make_update(2, 0, 2, 0.f));
  buffer.push(make_update(0, 1, 5, 0.f));  // not due yet
  const std::vector<StaleUpdate> due = buffer.take_due(2);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].origin_round, 0u);  // oldest origin first...
  EXPECT_EQ(due[0].client_id, 2u);
  EXPECT_EQ(due[1].client_id, 1u);     // ...then client id within an origin
  EXPECT_EQ(due[2].client_id, 3u);
  EXPECT_EQ(buffer.size(), 1u);        // the round-5 entry stays parked
  EXPECT_TRUE(buffer.take_due(4).empty());
  EXPECT_EQ(buffer.take_due(5).size(), 1u);
}

TEST(StaleBuffer, CapacityEvictsOldestOriginFirst) {
  StalenessOptions options;
  options.buffer_capacity = 2;
  StaleUpdateBuffer buffer(options);
  buffer.push(make_update(0, 0, 9, 0.f));
  buffer.push(make_update(1, 1, 9, 0.f));
  buffer.push(make_update(2, 2, 9, 0.f));
  EXPECT_EQ(buffer.take_due(0).size(), 0u);  // capacity applied here
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.evicted_total(), 1u);
  const std::vector<StaleUpdate> due = buffer.take_due(9);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].client_id, 1u);  // client 0 (origin 0) was the eviction
  EXPECT_EQ(due[1].client_id, 2u);
}

TEST(StaleBuffer, SaveLoadRoundTripIsByteStable) {
  StalenessOptions options;
  options.alpha = 0.5;
  StaleUpdateBuffer original(options);
  original.push(make_update(4, 2, 5, 1.25f));
  original.push(make_update(1, 3, 4, -0.5f));
  core::ByteWriter first;
  original.save_state(first);

  StaleUpdateBuffer restored(options);
  core::ByteReader reader(first.buffer());
  restored.load_state(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(restored.size(), original.size());
  core::ByteWriter second;
  restored.save_state(second);
  EXPECT_EQ(first.buffer(), second.buffer());

  // The restored entries are the same tensors, not just the same count.
  const std::vector<StaleUpdate> due = restored.take_due(5);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].client_id, 4u);
  EXPECT_FLOAT_EQ(due[0].state.at(0).data()[0], 1.25f);
  EXPECT_EQ(due[1].client_id, 1u);
  EXPECT_FLOAT_EQ(due[1].state.at(0).data()[0], -0.5f);
}

TEST(StaleBuffer, WeightUsesConfiguredAlpha) {
  StalenessOptions options;
  options.alpha = 2.0;
  const StaleUpdateBuffer buffer(options);
  EXPECT_DOUBLE_EQ(buffer.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(buffer.weight(1), 0.25);
}

// ---- Run-level properties ----

TEST(StalenessRuns, StalenessWithoutSimulatorThrows) {
  Federation fed(small_federation());
  FedAvg algorithm(mlp_spec(), local_config());
  RunOptions run;
  run.rounds = 1;
  run.staleness = StalenessOptions{};
  EXPECT_THROW(run_federated(fed, algorithm, run), std::invalid_argument);
}

template <typename MakeAlgorithm>
RunResult run_once(MakeAlgorithm&& make, const RunOptions& run, std::uint64_t seed = 53) {
  Federation fed(small_federation(seed));
  std::unique_ptr<Algorithm> algorithm = make();
  return run_federated(fed, *algorithm, run);
}

void expect_same_trajectory(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].accuracy, b.history[i].accuracy) << "round " << i;
    EXPECT_EQ(a.history[i].train_loss, b.history[i].train_loss) << "round " << i;
    EXPECT_EQ(a.history[i].round_bytes, b.history[i].round_bytes) << "round " << i;
  }
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
}

// alpha -> inf: every buffered update's weight underflows to zero, so the
// staleness-aware run must reproduce the discard-stragglers run bitwise.
template <typename MakeAlgorithm>
void expect_huge_alpha_matches_discard(MakeAlgorithm&& make) {
  RunOptions run;
  run.rounds = 4;
  run.sample_ratio = 1.0;
  run.sim = straggler_sim();

  const RunResult discard = run_once(make, run);
  ASSERT_GT(discard.total_stragglers, 0u) << "deadline produced no stragglers";

  RunOptions buffered = run;
  buffered.staleness = StalenessOptions{.alpha = 1e9};
  const RunResult stale = run_once(make, buffered);
  EXPECT_EQ(stale.total_stale_applied, 0u);
  EXPECT_EQ(stale.total_stragglers, discard.total_stragglers);
  expect_same_trajectory(discard, stale);
}

TEST(StalenessRuns, FedAvgHugeAlphaMatchesDiscardExactly) {
  expect_huge_alpha_matches_discard(
      [] { return std::make_unique<FedAvg>(mlp_spec(), local_config()); });
}

TEST(StalenessRuns, FedKemfHugeAlphaMatchesDiscardExactly) {
  expect_huge_alpha_matches_discard([] {
    FedKemfOptions options;
    options.knowledge_spec = mlp_spec();
    options.distill_epochs = 1;
    return std::make_unique<FedKemf>(std::vector<models::ModelSpec>{mlp_spec()},
                                     local_config(), options);
  });
}

// Zero lateness: a "late" upload lands within its own round at full weight,
// which must be indistinguishable from never having had a deadline at all.
template <typename MakeAlgorithm>
void expect_zero_lateness_matches_ideal(MakeAlgorithm&& make) {
  RunOptions ideal;
  ideal.rounds = 4;
  ideal.sample_ratio = 1.0;
  ideal.sim = sim::SimOptions{};  // deadline = +inf: nobody straggles

  RunOptions instant = ideal;
  instant.sim->deadline_seconds = 0.2;
  instant.sim->churn.min_staleness = 0;
  instant.sim->churn.max_staleness = 0;
  instant.staleness = StalenessOptions{.alpha = 1.0};

  const RunResult reference = run_once(make, ideal);
  const RunResult folded = run_once(make, instant);
  ASSERT_GT(folded.total_stragglers, 0u) << "deadline produced no stragglers";
  expect_same_trajectory(reference, folded);
}

TEST(StalenessRuns, FedAvgZeroLatenessMatchesNoDeadlineExactly) {
  expect_zero_lateness_matches_ideal(
      [] { return std::make_unique<FedAvg>(mlp_spec(), local_config()); });
}

TEST(StalenessRuns, FedKemfZeroLatenessMatchesNoDeadlineExactly) {
  expect_zero_lateness_matches_ideal([] {
    FedKemfOptions options;
    options.knowledge_spec = mlp_spec();
    options.distill_epochs = 1;
    return std::make_unique<FedKemf>(std::vector<models::ModelSpec>{mlp_spec()},
                                     local_config(), options);
  });
}

TEST(StalenessRuns, LateUpdatesAreActuallyApplied) {
  RunOptions run;
  run.rounds = 5;
  run.sample_ratio = 1.0;
  run.sim = straggler_sim();
  run.staleness = StalenessOptions{.alpha = 0.5};
  const RunResult result = run_once(
      [] { return std::make_unique<FedAvg>(mlp_spec(), local_config()); }, run);
  EXPECT_GT(result.total_stragglers, 0u);
  EXPECT_GT(result.total_stale_applied, 0u);
  EXPECT_TRUE(std::isfinite(result.final_accuracy));
  for (const RoundRecord& record : result.history) {
    EXPECT_TRUE(record.staleness_tracked);
    EXPECT_TRUE(record.sim_tracked);
  }
}

// Every algorithm must survive a run with dynamic churn + staleness: joiners
// warm-start, leavers evict server-side state, late uploads fold in.
template <typename MakeAlgorithm>
void expect_churn_run_completes(MakeAlgorithm&& make) {
  RunOptions run;
  run.rounds = 4;
  run.sample_ratio = 1.0;
  run.sim = straggler_sim();
  run.sim->churn.initial_fraction = 0.8;
  run.sim->churn.leave_prob = 0.25;
  run.sim->churn.rejoin_prob = 0.5;
  run.sim->churn.join_prob = 0.5;
  run.sim->churn.departed_state_retention = 1;  // force evictions
  run.staleness = StalenessOptions{.alpha = 1.0};
  const RunResult result = run_once(make, run);
  EXPECT_EQ(result.rounds_completed, 4u);
  EXPECT_TRUE(std::isfinite(result.final_accuracy));
  EXPECT_GT(result.total_joined + result.total_left, 0u)
      << "churn trace produced no membership events";
  for (const RoundRecord& record : result.history) {
    EXPECT_TRUE(record.churn_tracked);
    EXPECT_LE(record.clients_sampled, small_federation().num_clients);
  }
}

TEST(ChurnRuns, FedAvgCompletesUnderChurn) {
  expect_churn_run_completes(
      [] { return std::make_unique<FedAvg>(mlp_spec(), local_config()); });
}

TEST(ChurnRuns, FedProxCompletesUnderChurn) {
  expect_churn_run_completes(
      [] { return std::make_unique<FedProx>(mlp_spec(), local_config(), 0.01); });
}

TEST(ChurnRuns, FedNovaCompletesUnderChurn) {
  expect_churn_run_completes(
      [] { return std::make_unique<FedNova>(mlp_spec(), local_config()); });
}

TEST(ChurnRuns, ScaffoldCompletesUnderChurn) {
  expect_churn_run_completes(
      [] { return std::make_unique<Scaffold>(mlp_spec(), local_config()); });
}

TEST(ChurnRuns, FedDfCompletesUnderChurn) {
  expect_churn_run_completes([] {
    FedDfOptions options;
    options.distill_epochs = 1;
    return std::make_unique<FedDf>(mlp_spec(), local_config(), options);
  });
}

TEST(ChurnRuns, FedMdCompletesUnderChurn) {
  expect_churn_run_completes([] {
    FedMdOptions options;
    options.server_student = mlp_spec();
    return std::make_unique<FedMd>(std::vector<models::ModelSpec>{mlp_spec()},
                                   local_config(), options);
  });
}

TEST(ChurnRuns, FedKemfCompletesUnderChurn) {
  expect_churn_run_completes([] {
    FedKemfOptions options;
    options.knowledge_spec = mlp_spec();
    options.distill_epochs = 1;
    return std::make_unique<FedKemf>(std::vector<models::ModelSpec>{mlp_spec()},
                                     local_config(), options);
  });
}

TEST(ChurnRuns, StaticChurnOptionsReproduceLegacyRunExactly) {
  // A sim with all-default churn must not change anything: the churn stream
  // is never consulted and the legacy selection path runs verbatim.
  RunOptions run;
  run.rounds = 3;
  run.sample_ratio = 0.5;
  run.sim = sim::SimOptions{};
  const auto make = [] { return std::make_unique<FedAvg>(mlp_spec(), local_config()); };
  const RunResult a = run_once(make, run);
  const RunResult b = run_once(make, run);
  expect_same_trajectory(a, b);
  for (const RoundRecord& record : a.history) {
    EXPECT_FALSE(record.churn_tracked);
    EXPECT_FALSE(record.staleness_tracked);
  }
}

// ---- An external membership source (the elastic server's seam) ----

/// FedAvg that logs the runner's membership calls and sampled cohorts.
class LoggingFedAvg final : public FedAvg {
 public:
  using FedAvg::FedAvg;
  void on_client_joined(std::size_t id) override {
    calls.push_back("join " + std::to_string(id));
    FedAvg::on_client_joined(id);
  }
  void on_client_evicted(std::size_t id) override {
    calls.push_back("evict " + std::to_string(id));
    FedAvg::on_client_evicted(id);
  }
  double round(std::size_t round_index, std::span<const std::size_t> sampled,
               utils::ThreadPool& pool) override {
    calls.push_back("round " + std::to_string(round_index));
    cohorts.emplace_back(sampled.begin(), sampled.end());
    return FedAvg::round(round_index, sampled, pool);
  }
  std::vector<std::string> calls;
  std::vector<std::vector<std::size_t>> cohorts;
};

TEST(MembershipRuns, ScriptedSourceAppliesChangesInArrivalOrder) {
  std::vector<MembershipSource::Round> script(3);
  script[0].eligible = {0, 1, 2};
  script[0].changes = {{0, true}, {1, true}, {2, true}};
  // Client 1 drops and reconnects before round 1: evicted, then joined, with
  // no departed-state retention in between.
  script[1].eligible = {0, 1, 2};
  script[1].changes = {{1, false}, {1, true}};
  script[2].eligible = {0, 2};
  script[2].changes = {{1, false}};
  std::vector<std::string> hooks;
  MembershipSource source;
  source.start = [&](core::MemoryBudget* budget) {
    hooks.push_back(budget == nullptr ? "start" : "start+budget");
  };
  source.begin_round = [&](std::size_t round) { return script.at(round); };
  source.stop = [&] { hooks.push_back("stop"); };

  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  Federation fed(small_federation());
  LoggingFedAvg algorithm(mlp_spec(), local_config());
  RunOptions run;
  run.rounds = script.size();
  run.sample_ratio = 1.0;
  const RunResult result = run_federated(fed, algorithm, run, &source);
  const obs::MetricsSnapshot after = obs::MetricsRegistry::global().snapshot();

  EXPECT_EQ(algorithm.calls,
            (std::vector<std::string>{"join 0", "join 1", "join 2", "round 0", "evict 1",
                                      "join 1", "round 1", "evict 1", "round 2"}));
  EXPECT_EQ(algorithm.cohorts,
            (std::vector<std::vector<std::size_t>>{{0, 1, 2}, {0, 1, 2}, {0, 2}}));
  EXPECT_EQ(hooks, (std::vector<std::string>{"start", "stop"}));
  ASSERT_EQ(result.history.size(), 3u);
  EXPECT_TRUE(result.history[1].churn_tracked);
  EXPECT_EQ(result.history[1].clients_joined, 1u);
  EXPECT_EQ(result.history[1].clients_left, 1u);
  EXPECT_EQ(result.total_joined, 4u);
  EXPECT_EQ(result.total_left, 2u);
  EXPECT_EQ(after.counter("fl.rounds") - before.counter("fl.rounds"), 3u);
  EXPECT_EQ(after.counter("fl.evals") - before.counter("fl.evals"), 3u);
}

TEST(MembershipRuns, SourceIsStoppedWhenARoundThrows) {
  bool stopped = false;
  MembershipSource source;
  source.begin_round = [](std::size_t) -> MembershipSource::Round {
    throw std::runtime_error("no clients");
  };
  source.stop = [&] { stopped = true; };
  Federation fed(small_federation());
  FedAvg algorithm(mlp_spec(), local_config());
  RunOptions run;
  run.rounds = 2;
  run.sim = sim::SimOptions{};
  EXPECT_THROW(run_federated(fed, algorithm, run, &source), std::runtime_error);
  EXPECT_TRUE(stopped);
  EXPECT_EQ(algorithm.simulator(), nullptr);
}

}  // namespace
}  // namespace fedkemf::fl
