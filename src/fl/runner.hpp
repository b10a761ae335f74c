#pragma once

// The round loop: client sampling, algorithm dispatch, evaluation, traffic
// bookkeeping, early stopping, checkpoint/restore, and graceful shutdown.

#include <functional>
#include <optional>

#include "fl/algorithm.hpp"
#include "fl/checkpoint/format.hpp"
#include "fl/metrics.hpp"

namespace fedkemf::fl {

/// Where each round's eligible cohort and its joins and leaves come from when
/// the clients are remote processes (the elastic server's connections)
/// rather than the simulator's churn.  The runner applies every change at
/// once, in arrival order: a leave evicts the client's state (no departed
/// FIFO), a join calls on_client_joined.  Only begin_round is required.
struct MembershipSource {
  struct Change {
    std::size_t client_id = 0;
    bool joined = false;  ///< false: the client left
  };
  struct Round {
    std::vector<std::size_t> eligible;  ///< who this round may sample
    std::vector<Change> changes;        ///< since the last round, in arrival order
    std::vector<StaleUpdate> late;      ///< late uploads due now (needs options.staleness)
  };

  /// Once the run's state is built (and restored, on resume), before the
  /// first round, with the run's memory budget (or nullptr).
  std::function<void(core::MemoryBudget* budget)> start;
  /// Before each round, outside its round_seconds; may block.
  std::function<Round(std::size_t round)> begin_round;
  /// After the checkpoint that resumes at `next_round` is written.
  std::function<void(std::size_t next_round)> on_checkpoint;
  /// Once when the run ends, by return or throw, while the budget still lives.
  std::function<void()> stop;
};

/// Runs `algorithm` against `federation` for options.rounds communication
/// rounds (or until options.stop_at_accuracy is reached at an evaluation
/// point).  The federation's traffic meter is reset at the start so results
/// from consecutive runs don't mix.  With options.checkpoint_dir set, the
/// full run state is checkpointed every options.checkpoint_every rounds.
/// With `membership`, the cohort comes from it instead of the population or
/// the simulated churn.
RunResult run_federated(Federation& federation, Algorithm& algorithm, const RunOptions& options,
                        MembershipSource* membership = nullptr);

/// True when options.checkpoint_dir holds at least one checkpoint file to
/// resume from (existence probe only — validation happens in resume_run).
bool can_resume(const RunOptions& options);

/// The newest valid checkpoint in options.checkpoint_dir; nullopt when the
/// directory is unset or holds none.
std::optional<ckpt::Checkpoint> latest_checkpoint(const RunOptions& options);

/// Restores `checkpoint` into `algorithm` (after calling setup()) and
/// continues the run from the first unfinished round.  The resumed
/// trajectory is bitwise-identical to the uninterrupted run: every persistent
/// state object and Rng stream position is part of the checkpoint, and
/// everything per-round is a pure function of (seed, round).  Throws
/// std::runtime_error when the checkpoint was written by a different
/// algorithm/configuration.
RunResult resume_from(Federation& federation, Algorithm& algorithm, const RunOptions& options,
                      const ckpt::Checkpoint& checkpoint,
                      MembershipSource* membership = nullptr);

/// resume_from the newest valid checkpoint in options.checkpoint_dir.
/// Throws std::runtime_error when there is none.
RunResult resume_run(Federation& federation, Algorithm& algorithm,
                     const RunOptions& options);

// ---- Graceful shutdown ----
//
// install_shutdown_handler() routes SIGINT/SIGTERM to an async-signal-safe
// flag; the runner checks it at the end of every round, writes a final
// checkpoint (when configured), flushes telemetry, and returns with
// RunResult::interrupted set — so Ctrl-C on a long run loses nothing.

/// Installs the SIGINT/SIGTERM flag handler (idempotent).
void install_shutdown_handler();

/// True once a shutdown signal arrived (or request_shutdown() was called).
bool shutdown_requested();

/// Programmatic equivalent of the signal, for tests.
void request_shutdown();

/// Clears the flag (start of a fresh run / between tests).
void clear_shutdown_request();

/// Uniform client sampling (the paper's protocol): `ratio` of the population
/// (at least one client), drawn without replacement from the run's
/// (seed, round) stream.  run_federated uses the equivalent UniformSelector
/// by default; see fl/selection.hpp for the alternative strategies.
std::vector<std::size_t> sample_clients(const Federation& federation, std::size_t round_index,
                                        double ratio);

/// Cohort size a `ratio` sample draws from `population`: round(ratio * N)
/// clamped to [1, N].  Throws unless ratio is in (0, 1] and population > 0.
std::size_t sampled_client_count(std::size_t population, double ratio);

}  // namespace fedkemf::fl
