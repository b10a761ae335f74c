#include "fl/runner.hpp"

#include "fl/selection.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <limits>
#include <memory>
#include <stdexcept>

#include "fl/checkpoint/run_state.hpp"
#include "fl/defense/sanitize.hpp"  // state_finite
#include "fl/stale_buffer.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/crash.hpp"
#include "sim/simulator.hpp"
#include "utils/logging.hpp"
#include "utils/stopwatch.hpp"

namespace fedkemf::fl {
namespace {

/// Run-loop instruments, resolved once (see obs/metrics.hpp).
struct RunnerMetrics {
  obs::Counter& rounds;
  obs::Counter& evals;
  obs::Counter& rollbacks;
  obs::Counter& rejected_updates;
  obs::Counter& checkpoints;
  obs::Counter& restores;
  obs::Histogram& round_seconds;

  static RunnerMetrics& get() {
    auto& registry = obs::MetricsRegistry::global();
    static RunnerMetrics metrics{
        registry.counter("fl.rounds"),
        registry.counter("fl.evals"),
        registry.counter("fl.rollbacks"),
        registry.counter("fl.rejected_updates"),
        registry.counter("fl.checkpoints"),
        registry.counter("fl.restores"),
        registry.histogram("fl.round_seconds"),
    };
    return metrics;
  }
};

obs::RoundTelemetry to_telemetry(const RoundRecord& record, bool evaluated,
                                 double server_loss) {
  obs::RoundTelemetry t;
  t.round = record.round;
  t.round_seconds = record.round_seconds;
  t.eval_seconds = record.eval_seconds;
  t.phases = record.phases;
  t.round_bytes = record.round_bytes;
  t.cumulative_bytes = record.cumulative_bytes;
  t.clients_sampled = record.clients_sampled;
  t.clients_completed = record.clients_completed;
  t.clients_dropped = record.clients_dropped;
  t.clients_straggled = record.clients_straggled;
  t.sim_seconds = record.sim_seconds;
  t.rejected_updates = record.rejected_updates;
  t.rolled_back = record.rolled_back;
  t.clients_joined = record.clients_joined;
  t.clients_left = record.clients_left;
  t.stale_applied = record.stale_applied;
  t.fusion_degraded = record.fusion_degraded;
  t.budget_used_bytes = record.budget_used_bytes;
  t.peak_rss_bytes = record.peak_rss_bytes;
  t.evaluated = evaluated;
  t.accuracy = record.accuracy;
  t.train_loss = record.train_loss;
  t.server_loss = server_loss;
  return t;
}

// ---- Graceful shutdown ----

// Everything the handler touches must be async-signal-safe: one flag write.
// A lock-free atomic is, and unlike a volatile sig_atomic_t it may also be
// set on one thread and polled on others (an in-process server and workers).
std::atomic<int> g_shutdown_flag{0};
static_assert(std::atomic<int>::is_always_lock_free);

extern "C" void handle_shutdown_signal(int) { g_shutdown_flag = 1; }

void load_algorithm_state(Algorithm& algorithm, const ckpt::Section& section) {
  core::ByteReader reader(section.bytes);
  algorithm.load_state(reader);
  if (!reader.exhausted()) {
    throw std::runtime_error(
        "resume: trailing bytes in the algorithm section (configuration mismatch)");
  }
}

/// Shared round loop of run_federated and resume_from.  `state` carries the
/// starting cursor and accumulated history (zeroed for a fresh run) and
/// `saved` the checkpoint's algorithm section (null for a fresh run).
RunResult run_loop(Federation& federation, Algorithm& algorithm, const RunOptions& options,
                   MembershipSource* membership, RunnerState state = {},
                   const ckpt::Section* saved = nullptr) {
  if (options.rounds == 0) throw std::invalid_argument("run: zero rounds");
  if (options.staleness && !options.sim) {
    throw std::invalid_argument(
        "run: options.staleness requires options.sim (stragglers only exist "
        "under a simulated round deadline)");
  }
  if (membership && options.sim && options.sim->churn.dynamic()) {
    throw std::invalid_argument("run: a membership source replaces simulated churn");
  }
  const bool resumed = saved != nullptr;
  federation.meter().reset();
  algorithm.setup(federation);
  // In process the algorithm state is restored before the run's memory
  // budget exists.  A membership source shares that budget with its
  // transport, so there the state is restored after it is attached, and
  // the client state load_state rebuilds is charged to it.
  if (saved && !membership) load_algorithm_state(algorithm, *saved);
  std::unique_ptr<ClientSelector> selector = make_selector(options.selector);
  utils::ThreadPool pool(options.num_threads);
  utils::Stopwatch run_clock;
  RunnerMetrics& metrics = RunnerMetrics::get();

  std::unique_ptr<sim::Simulator> simulator;
  if (options.sim) {
    simulator = std::make_unique<sim::Simulator>(
        *options.sim, federation.num_clients(),
        federation.root_rng().fork(0x51D07A1EULL));
    simulator->attach(federation.channel());
    algorithm.set_simulator(simulator.get());
  }

  // Elastic federation: staleness buffering needs the simulator (stragglers
  // only exist under a simulated deadline); churn is active only when the
  // options configure actual membership dynamics — a static population skips
  // the churn stream entirely, keeping legacy runs bitwise identical.
  std::unique_ptr<StaleUpdateBuffer> stale_buffer;
  if (options.staleness) {
    stale_buffer = std::make_unique<StaleUpdateBuffer>(*options.staleness);
    algorithm.set_stale_buffer(stale_buffer.get());
  }
  const bool churn_active = simulator && options.sim->churn.dynamic();
  const bool membership_tracked = churn_active || membership != nullptr;
  std::vector<std::size_t> departed_fifo;  ///< eviction order, oldest first

  // Overload policy: a shared memory budget, a spill store for departed
  // clients' heavy state, and a fusion-member cap.  Unset resources (the
  // default) install nothing, keeping legacy runs bitwise identical.
  std::unique_ptr<core::MemoryBudget> memory_budget;
  std::unique_ptr<SpillStore> spill_store;
  if (options.resources) {
    memory_budget = std::make_unique<core::MemoryBudget>(
        options.resources->memory_budget_bytes, options.resources->high_water_fraction);
    algorithm.set_memory_budget(memory_budget.get());
    if (stale_buffer) stale_buffer->set_memory_budget(memory_budget.get());
    if (!options.resources->spill_dir.empty()) {
      spill_store = std::make_unique<SpillStore>(options.resources->spill_dir);
      algorithm.set_spill_store(spill_store.get());
    }
    algorithm.set_max_fusion_members(options.resources->max_fusion_members);
  }

  // Detach what this run installed, and stop the membership source while the
  // budget it charges still exists: on return and on a throw alike.
  const auto detach = [&] {
    if (membership && membership->stop) membership->stop();
    if (stale_buffer) {
      stale_buffer->set_memory_budget(nullptr);
      algorithm.set_stale_buffer(nullptr);
    }
    if (options.resources) {
      algorithm.set_memory_budget(nullptr);
      algorithm.set_spill_store(nullptr);
      algorithm.set_max_fusion_members(0);
    }
    if (simulator) {
      algorithm.set_simulator(nullptr);
      simulator->detach();
    }
  };
  struct Teardown {
    std::function<void()> run;
    ~Teardown() { run(); }
  } teardown{detach};

  if (saved && membership) load_algorithm_state(algorithm, *saved);
  if (state.has_elastic) {
    if (churn_active && !state.churn_state.empty()) {
      core::ByteReader churn_reader(state.churn_state);
      simulator->churn().load_state(churn_reader);
    }
    departed_fifo.assign(state.departed_fifo.begin(), state.departed_fifo.end());
    if (stale_buffer && !state.stale_buffer_state.empty()) {
      core::ByteReader buffer_reader(state.stale_buffer_state);
      stale_buffer->load_state(buffer_reader);
    }
  }

  RunResult result = std::move(state.result);
  result.algorithm = algorithm.name();
  // The traffic meter was reset when this process started; cumulative byte
  // accounting continues from the checkpointed baseline.
  const std::size_t bytes_baseline = static_cast<std::size_t>(state.bytes_baseline);
  std::size_t bytes_before_round = bytes_baseline;
  const auto cumulative_bytes = [&] {
    return bytes_baseline + federation.meter().total_bytes();
  };

  std::unique_ptr<obs::RunTelemetry> telemetry;
  if (!options.telemetry_path.empty()) {
    telemetry = std::make_unique<obs::RunTelemetry>(options.telemetry_path,
                                                    /*append=*/resumed);
    if (!telemetry->ok()) {
      utils::log_warn("runner") << "telemetry sink failed to open: "
                                << options.telemetry_path;
      telemetry.reset();
    } else if (resumed) {
      telemetry->record_resume(static_cast<std::size_t>(state.next_round));
    }
  }

  std::unique_ptr<ckpt::CheckpointManager> checkpoints;
  if (!options.checkpoint_dir.empty()) {
    checkpoints = std::make_unique<ckpt::CheckpointManager>(
        options.checkpoint_dir, std::max<std::size_t>(1, options.checkpoint_retain));
  }
  const std::size_t checkpoint_every = std::max<std::size_t>(1, options.checkpoint_every);

  // Divergence watchdog: keep a snapshot of the last accepted global model
  // and its last evaluated accuracy; a poisoned round (non-finite losses or
  // weights, or an accuracy collapse) is rolled back to the snapshot and the
  // run continues.
  std::vector<core::Tensor> last_good = std::move(state.last_good);
  double last_good_accuracy = state.last_good_accuracy;
  if (options.watchdog && last_good.empty()) {
    last_good = nn::snapshot_state(algorithm.global_model());
  }

  const auto write_checkpoint = [&](std::size_t next_round) {
    obs::TraceSpan span("fl.checkpoint");
    ckpt::Checkpoint checkpoint;
    checkpoint.algorithm = algorithm.name();
    checkpoint.next_round = next_round;
    {
      RunnerState snapshot;
      snapshot.next_round = next_round;
      snapshot.result = result;
      snapshot.result.total_bytes = cumulative_bytes();
      snapshot.result.wall_seconds = state.wall_seconds_before + run_clock.seconds();
      snapshot.bytes_baseline = cumulative_bytes();
      snapshot.wall_seconds_before = snapshot.result.wall_seconds;
      snapshot.has_watchdog_snapshot = options.watchdog.has_value();
      if (options.watchdog) {
        snapshot.last_good = last_good;  // copy: the loop keeps mutating ours
        snapshot.last_good_accuracy = last_good_accuracy;
      }
      snapshot.has_elastic = churn_active || stale_buffer != nullptr;
      if (churn_active) {
        core::ByteWriter churn_writer;
        simulator->churn().save_state(churn_writer);
        snapshot.churn_state = churn_writer.take();
      }
      snapshot.departed_fifo.assign(departed_fifo.begin(), departed_fifo.end());
      if (stale_buffer) {
        core::ByteWriter buffer_writer;
        stale_buffer->save_state(buffer_writer);
        snapshot.stale_buffer_state = buffer_writer.take();
      }
      core::ByteWriter writer;
      encode_run_state(writer, snapshot);
      checkpoint.section("runner") = writer.take();
    }
    {
      core::ByteWriter writer;
      algorithm.save_state(writer);
      checkpoint.section("algorithm") = writer.take();
    }
    checkpoints->write(checkpoint);
    metrics.checkpoints.add(1);
    if (membership && membership->on_checkpoint) membership->on_checkpoint(next_round);
  };

  if (membership && membership->start) membership->start(memory_budget.get());
  for (std::size_t round = static_cast<std::size_t>(state.next_round);
       round < options.rounds; ++round) {
    obs::TraceSpan round_span("fl.round");
    // The source may block for clients: that wait is not the round's cost.
    MembershipSource::Round external;
    if (membership) external = membership->begin_round(round);
    utils::Stopwatch round_clock;
    sim::CrashInjector::instance().begin_round(round);

    std::size_t joined = 0;
    std::size_t left = 0;
    std::vector<std::size_t> eligible;
    std::vector<std::size_t> sampled;
    if (membership) {
      // Remote membership takes effect at once, in arrival order.
      for (const MembershipSource::Change& change : external.changes) {
        if (change.joined) {
          algorithm.on_client_joined(change.client_id);
          ++joined;
        } else {
          algorithm.on_client_evicted(change.client_id);
          ++left;
        }
      }
      if (!external.late.empty() && !stale_buffer) {
        throw std::logic_error("run: late uploads need options.staleness");
      }
      for (StaleUpdate& update : external.late) stale_buffer->push(std::move(update));
      eligible = std::move(external.eligible);
    } else if (churn_active) {
      // Simulated leavers keep their state until the departed FIFO overflows.
      const sim::ChurnEvents churn_events = simulator->churn().begin_round(round);
      for (const std::size_t id : churn_events.joined) {
        departed_fifo.erase(std::remove(departed_fifo.begin(), departed_fifo.end(), id),
                            departed_fifo.end());
        algorithm.on_client_joined(id);
      }
      for (const std::size_t id : churn_events.left) departed_fifo.push_back(id);
      while (departed_fifo.size() > options.sim->churn.departed_state_retention) {
        algorithm.on_client_evicted(departed_fifo.front());
        departed_fifo.erase(departed_fifo.begin());
      }
      joined = churn_events.joined.size();
      left = churn_events.left.size();
      eligible = simulator->churn().present_clients();
    }
    if (membership_tracked) {
      const std::size_t count = sampled_client_count(eligible.size(), options.sample_ratio);
      sampled = selector->select(federation, round, count, eligible);
    } else {
      const std::size_t count =
          sampled_client_count(federation.num_clients(), options.sample_ratio);
      sampled = selector->select(federation, round, count);
    }
    if (simulator) simulator->begin_round(round, sampled.size());
    algorithm.phase_accumulator().reset();
    const double train_loss = algorithm.round(round, sampled, pool);
    // Compute wall-clock, captured before the watchdog scan and evaluation so
    // round_seconds is the round's training/fusion cost alone.
    const double round_seconds = round_clock.seconds();
    metrics.rounds.add(1);
    metrics.round_seconds.observe(round_seconds);
    result.rounds_completed = round + 1;
    const std::size_t rejected = algorithm.last_rejected_updates();
    result.total_rejected_updates += rejected;
    metrics.rejected_updates.add(rejected);

    sim::RoundReport sim_report;
    if (simulator) {
      sim_report = simulator->round_report();
      result.sim_seconds += sim_report.simulated_seconds;
      result.total_dropped += sim_report.dropped();
      result.total_stragglers += sim_report.stragglers;
    }

    bool rolled_back = false;
    if (options.watchdog &&
        (!std::isfinite(train_loss) || !std::isfinite(algorithm.last_server_loss()) ||
         !state_finite(algorithm.global_model()))) {
      nn::restore_state(algorithm.global_model(), last_good);
      rolled_back = true;
    }

    RoundRecord record;
    record.round = round;
    record.train_loss = train_loss;
    const std::size_t bytes_now = cumulative_bytes();
    record.cumulative_bytes = bytes_now;
    record.round_bytes = bytes_now - bytes_before_round;
    bytes_before_round = bytes_now;
    record.round_seconds = round_seconds;
    record.clients_sampled = sampled.size();
    if (simulator) {
      record.clients_completed = sim_report.completed;
      record.clients_dropped = sim_report.dropped();
      record.clients_straggled = sim_report.stragglers;
      record.sim_seconds = sim_report.simulated_seconds;
    } else {
      record.clients_completed = sampled.size();
    }
    record.rejected_updates = rejected;
    record.sim_tracked = simulator != nullptr;
    record.churn_tracked = membership_tracked;
    record.staleness_tracked = stale_buffer != nullptr;
    record.clients_joined = joined;
    record.clients_left = left;
    record.stale_applied = stale_buffer ? algorithm.last_stale_applied() : 0;
    result.total_joined += record.clients_joined;
    result.total_left += record.clients_left;
    result.total_stale_applied += record.stale_applied;
    record.resources_tracked = options.resources.has_value();
    record.fusion_degraded = algorithm.last_fusion_degraded();
    record.budget_used_bytes = memory_budget ? memory_budget->used_bytes() : 0;
    record.peak_rss_bytes = obs::process_peak_rss_bytes();
    if (record.fusion_degraded) ++result.total_degraded_rounds;
    result.peak_rss_bytes = std::max(result.peak_rss_bytes, record.peak_rss_bytes);

    const bool last_round = round + 1 == options.rounds;
    const std::size_t every = std::max<std::size_t>(1, options.eval_every);
    // A rollback always produces a history record, even off-cadence.
    const bool eval_now = last_round || ((round + 1) % every == 0) || rolled_back;
    bool stop_now = false;
    if (eval_now) {
      {
        obs::ScopedPhaseTimer eval_timer(algorithm.phase_accumulator(), obs::Phase::kEval);
        obs::TraceSpan eval_span("fl.eval");
        utils::Stopwatch eval_clock;
        metrics.evals.add(1);
        const EvalResult eval = evaluate(algorithm.global_model(), federation.test_set());
        record.accuracy = eval.accuracy;
        if (options.watchdog && !rolled_back && std::isfinite(last_good_accuracy) &&
            eval.accuracy <
                last_good_accuracy - options.watchdog->accuracy_drop_threshold) {
          // Accuracy collapse: restore the snapshot; the recorded accuracy is
          // the restored model's (= the last accepted evaluation).
          nn::restore_state(algorithm.global_model(), last_good);
          rolled_back = true;
          record.accuracy = last_good_accuracy;
        }
        record.rolled_back = rolled_back;
        if (rolled_back) {
          ++result.total_rolled_back;
          metrics.rollbacks.add(1);
        } else if (options.watchdog) {
          last_good = nn::snapshot_state(algorithm.global_model());
          last_good_accuracy = record.accuracy;
        }

        if (options.evaluate_client_models) {
          double acc_total = 0.0;
          for (std::size_t id = 0; id < federation.num_clients(); ++id) {
            nn::Module* model = algorithm.client_model(id);
            const EvalResult local = evaluate_subset(*model, federation.test_set(),
                                                     federation.client_test_indices(id));
            acc_total += local.accuracy;
          }
          record.client_accuracy =
              acc_total / static_cast<double>(federation.num_clients());
        } else {
          record.client_accuracy = std::nan("");
        }
        record.eval_seconds = eval_clock.seconds();
      }
      record.phases = algorithm.phase_accumulator().snapshot();

      result.best_accuracy = std::max(result.best_accuracy, record.accuracy);
      result.final_accuracy = record.accuracy;
      result.history.push_back(record);
      if (telemetry) {
        telemetry->record_round(
            to_telemetry(record, /*evaluated=*/true, algorithm.last_server_loss()));
      }

      if (options.verbose) {
        auto line = utils::log_info("runner");
        line << algorithm.name() << " round " << round + 1 << "/" << options.rounds
             << " acc=" << record.accuracy << " loss=" << train_loss
             << " bytes=" << record.cumulative_bytes;
        if (simulator) {
          line << " completed=" << sim_report.completed << "/" << sim_report.sampled
               << " dropped=" << sim_report.dropped()
               << " stragglers=" << sim_report.stragglers
               << " sim_s=" << sim_report.simulated_seconds;
        }
        if (record.rejected_updates > 0) line << " rejected=" << record.rejected_updates;
        if (record.rolled_back) line << " rolled_back";
        if (membership_tracked) {
          line << " joined=" << record.clients_joined << " left=" << record.clients_left;
        }
        if (stale_buffer) line << " stale_applied=" << record.stale_applied;
      }
      stop_now = options.stop_at_accuracy && record.accuracy >= *options.stop_at_accuracy;
    } else {
      if (options.watchdog) last_good = nn::snapshot_state(algorithm.global_model());
      // Off-cadence rounds still stream telemetry (evaluated=false).
      record.phases = algorithm.phase_accumulator().snapshot();
      if (telemetry) {
        telemetry->record_round(
            to_telemetry(record, /*evaluated=*/false, algorithm.last_server_loss()));
      }
    }

    // End-of-round durability: on cadence, at both exits, and on a shutdown
    // request — the current round always finishes before the process leaves.
    const bool shutdown = shutdown_requested();
    if (checkpoints &&
        (shutdown || last_round || stop_now || ((round + 1) % checkpoint_every == 0))) {
      write_checkpoint(round + 1);
    }
    if (shutdown) {
      result.interrupted = true;
      utils::log_info("runner") << algorithm.name() << " shutdown requested; stopped after round "
                                << round + 1 << (checkpoints ? " (checkpoint written)" : "");
      break;
    }
    if (stop_now) break;
  }

  result.total_bytes = cumulative_bytes();
  result.wall_seconds = state.wall_seconds_before + run_clock.seconds();
  if (telemetry) {
    telemetry->record_run(result.algorithm, result.rounds_completed, result.wall_seconds,
                          result.final_accuracy, result.total_bytes);
  }
  return result;
}

}  // namespace

void install_shutdown_handler() {
  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_shutdown_signal);
}

bool shutdown_requested() { return g_shutdown_flag != 0; }

void request_shutdown() { g_shutdown_flag = 1; }

void clear_shutdown_request() { g_shutdown_flag = 0; }

std::size_t sampled_client_count(std::size_t population, double ratio) {
  if (population == 0) {
    throw std::invalid_argument("sampled_client_count: empty population");
  }
  if (ratio <= 0.0 || ratio > 1.0) {
    throw std::invalid_argument("sampled_client_count: ratio must be in (0, 1]");
  }
  const std::size_t count = static_cast<std::size_t>(
      std::lround(ratio * static_cast<double>(population)));
  return std::clamp<std::size_t>(count, 1, population);
}

std::vector<std::size_t> sample_clients(const Federation& federation, std::size_t round_index,
                                        double ratio) {
  const std::size_t population = federation.num_clients();
  const std::size_t count = sampled_client_count(population, ratio);
  core::Rng rng = federation.root_rng().fork(0x5A3B7E00ULL + round_index);
  return rng.sample_without_replacement(population, count);
}

RunResult run_federated(Federation& federation, Algorithm& algorithm, const RunOptions& options,
                        MembershipSource* membership) {
  return run_loop(federation, algorithm, options, membership);
}

bool can_resume(const RunOptions& options) {
  if (options.checkpoint_dir.empty()) return false;
  return ckpt::CheckpointManager(options.checkpoint_dir,
                                 std::max<std::size_t>(1, options.checkpoint_retain))
      .has_checkpoint();
}

std::optional<ckpt::Checkpoint> latest_checkpoint(const RunOptions& options) {
  if (options.checkpoint_dir.empty()) return std::nullopt;
  return ckpt::CheckpointManager(options.checkpoint_dir,
                                 std::max<std::size_t>(1, options.checkpoint_retain))
      .load_latest_valid();
}

RunResult resume_from(Federation& federation, Algorithm& algorithm, const RunOptions& options,
                      const ckpt::Checkpoint& checkpoint, MembershipSource* membership) {
  if (checkpoint.algorithm != algorithm.name()) {
    throw std::runtime_error("resume: checkpoint was written by '" + checkpoint.algorithm +
                             "', not '" + algorithm.name() + "'");
  }
  const ckpt::Section* runner_section = checkpoint.find("runner");
  const ckpt::Section* algorithm_section = checkpoint.find("algorithm");
  if (runner_section == nullptr || algorithm_section == nullptr) {
    throw std::runtime_error("resume: checkpoint is missing a required section");
  }
  core::ByteReader reader(runner_section->bytes);
  RunnerState state = decode_run_state(reader);
  RunnerMetrics::get().restores.add(1);
  utils::log_info("runner") << algorithm.name() << " resuming from round "
                            << state.next_round << " (checkpoint dir "
                            << options.checkpoint_dir << ")";
  return run_loop(federation, algorithm, options, membership, std::move(state),
                  algorithm_section);
}

RunResult resume_run(Federation& federation, Algorithm& algorithm,
                     const RunOptions& options) {
  if (options.checkpoint_dir.empty()) {
    throw std::invalid_argument("resume_run: options.checkpoint_dir is empty");
  }
  const std::optional<ckpt::Checkpoint> checkpoint = latest_checkpoint(options);
  if (!checkpoint) {
    throw std::runtime_error("resume_run: no valid checkpoint in '" +
                             options.checkpoint_dir + "'");
  }
  return resume_from(federation, algorithm, options, *checkpoint);
}

}  // namespace fedkemf::fl
