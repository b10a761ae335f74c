#pragma once

// Federation service layer: everything fed_server / fed_client share above
// the frame protocol.
//
// Two distributed modes (DESIGN.md "deployment"):
//
//   mirror   lockstep replication.  Server and every client process run the
//            stock run_federated() on identically-seeded state, so both
//            sides produce bit-identical payload bytes; the transports move
//            those bytes for real and substitute received wire bytes on the
//            consuming side.  Works with all seven algorithms, and a
//            fault-free distributed run reports final accuracy and per-round
//            metered bytes identical to the in-process simulator by
//            construction.  Peer loss is fatal (a desynced replica cannot
//            rejoin the lockstep).
//
//   elastic  server-authoritative.  The cohort is whatever client processes
//            are connected when the round starts; disconnects/reconnects map
//            onto Algorithm::on_client_evicted / on_client_joined, upload
//            deadlines turn stragglers into channel-level drops, and their
//            late UPLOADs are ingested into fl::StaleUpdateBuffer with the
//            FedBuff discount.  Restricted to the weight-space family whose
//            client half is a plain supervised pass (fedavg / fedprox /
//            fednova); kill-and-restart a client mid-run and the run
//            completes through the churn + staleness path.  The server runs
//            the runner's round loop (fl::run_federated / fl::resume_from
//            with a fl::MembershipSource over its connections), so it has the
//            in-process run's fl.round and phase trace spans, fl.* counters
//            and checkpoint writer.
//
// Both sides of a run must agree on the full configuration; HELLO carries an
// FNV-1a digest of the spec and the server rejects a mismatched client at
// registration instead of desyncing mid-round.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fl/algorithm.hpp"
#include "fl/metrics.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace fedkemf::net {

/// Everything server and clients must agree on, CLI-assembled in the tools.
struct FedSpec {
  std::string algorithm = "fedavg";  ///< fedavg | fedprox | fednova | scaffold |
                                     ///< fedkemf | feddf | fedmd
  fl::FederationOptions federation;
  models::ModelSpec client_model;
  models::ModelSpec knowledge_model;  ///< fedkemf's wire network / fedmd's student
  fl::LocalTrainConfig local;
  std::size_t rounds = 5;
  double sample_ratio = 1.0;
  std::string selector = "uniform";
  std::size_t eval_every = 1;
  std::size_t num_threads = 0;
  double fedprox_mu = 0.01;
  fl::StalenessOptions staleness;  ///< elastic mode's stale-upload discounting
};

/// FNV-1a over the serialized spec — HELLO's configuration handshake.
std::uint64_t config_digest(const FedSpec& spec);

/// Builds any of the seven algorithms by spec.algorithm.  Throws
/// std::invalid_argument for unknown names.
std::unique_ptr<fl::Algorithm> make_algorithm(const FedSpec& spec);

/// True when spec.algorithm's client half is a plain supervised pass — the
/// family elastic mode can serve remotely.
bool elastic_capable(const std::string& algorithm);

/// The runner's RunOptions for this spec (shared by every mode so the
/// in-process reference and the distributed run stay comparable).
fl::RunOptions run_options(const FedSpec& spec);

// ---- Run modes ----

/// In-process reference run (no sockets) — the parity baseline.
fl::RunResult run_in_process(const FedSpec& spec);

/// Extra knobs for the in-process overload soak: simulated churn — the
/// departed-client FIFO whose overflow spills FedKEMF/FedMD private models —
/// plus the aggregation resource policy, on top of the reference run.
struct OverloadSimOptions {
  fl::ResourceLimits resources;  ///< budget / spill dir / fusion-member cap
  double leave_prob = 0.0;       ///< per-round departure probability
  double rejoin_prob = 0.0;      ///< per-round re-enrollment probability
  std::size_t departed_state_retention = 4;  ///< FIFO depth before eviction
  std::size_t population_scale = 1;          ///< phantom-registration multiplier
};

/// In-process run under churn and resource limits (any of the seven
/// algorithms) — the leg of `--scenario overload` that proves spill and
/// graceful degradation without sockets.
fl::RunResult run_overload_in_process(const FedSpec& spec, const OverloadSimOptions& extra);

struct MirrorServerOptions {
  Endpoint endpoint;
  std::size_t expect_clients = 0;  ///< remote client ids to wait for before round 0
  double hello_wait_seconds = 60.0;
  double await_timeout_seconds = 600.0;
  std::string auth_key;  ///< non-empty: require SipHash-tagged frames
};

fl::RunResult run_mirror_server(const FedSpec& spec, const MirrorServerOptions& options);

struct MirrorClientOptions {
  Endpoint endpoint;
  std::vector<std::size_t> owned;  ///< client ids this replica plays
  double connect_timeout_seconds = 30.0;
  double await_timeout_seconds = 600.0;
  std::string auth_key;  ///< must match the server's
};

fl::RunResult run_mirror_client(const FedSpec& spec, const MirrorClientOptions& options);

/// Crash-resume policy of the elastic server (DESIGN.md "durable server").
/// With a wal_dir, the server journals every applied upload / membership /
/// stale application to an append-only CRC-framed log (net/wal.hpp), and the
/// runner writes its checkpoint to wal_dir every `checkpoint_every` rounds
/// (the RunOptions checkpoint fields), each followed by a WAL mark.  A restarted
/// server pointed at the same wal_dir loads the newest valid checkpoint,
/// replays the WAL suffix idempotently, re-binds, and resumes the in-flight
/// round as clients reconnect through the rejoin path.
struct DurabilityOptions {
  std::string wal_dir;                 ///< empty = volatile (historical)
  std::size_t checkpoint_every = 1;    ///< rounds per full checkpoint
  std::size_t checkpoint_retain = 3;   ///< newest checkpoints kept on disk
};

struct ElasticServerOptions {
  Endpoint endpoint;
  std::size_t min_clients = 1;        ///< wait for this many before each round
  double join_wait_seconds = 60.0;    ///< give up when nobody shows up for this long
  double upload_timeout_seconds = 30.0;
  /// Heartbeat liveness: PING every interval, evict after the timeout.
  double heartbeat_interval_seconds = 2.0;
  double liveness_timeout_seconds = 20.0;
  /// Per-connection write-queue cap (slow-client eviction); 0 = unbounded.
  std::size_t write_queue_cap_bytes = 256ull << 20;
  std::string auth_key;  ///< non-empty: require SipHash-tagged frames
  /// Deterministic transport-level fault injection (FaultyTransport wrap).
  FaultyTransportOptions fault;
  /// Overload robustness, net layer: admission control (BUSY on over-limit
  /// HELLOs) and parked-upload shedding.  All-zero = unlimited (historical).
  ResourceLimits resources;
  /// Overload robustness, aggregation layer: memory budget, fusion-member
  /// cap, spill directory — the same policy fl::RunOptions::resources carries
  /// in-process.  nullopt = unlimited (historical, bitwise identical).
  std::optional<fl::ResourceLimits> aggregation;
  /// WAL + periodic checkpoints + crash-resume.  Empty wal_dir = disabled.
  DurabilityOptions durability;
};

fl::RunResult run_elastic_server(const FedSpec& spec, const ElasticServerOptions& options);

struct ElasticClientOptions {
  Endpoint endpoint;
  std::size_t client_id = 0;
  bool rejoin = false;                ///< reconnect after a restart
  double connect_timeout_seconds = 30.0;
  /// Artificial per-round training delay — the straggler lever for tests.
  double train_delay_seconds = 0.0;
  /// Auto-reconnect: after a lost connection (anything but an orderly BYE)
  /// the worker retries with decorrelated-jitter backoff and rejoins through
  /// the churn path.  0 disables reconnecting (PR 6 behavior).
  std::size_t max_reconnects = 16;
  double reconnect_backoff_seconds = 0.1;   ///< base of the jittered backoff
  double reconnect_backoff_max_seconds = 2.0;
  /// Treat the server as dead when no frame (heartbeats included) arrives
  /// for this long, and reconnect.
  double server_silence_timeout_seconds = 30.0;
  std::string auth_key;  ///< must match the server's
};

/// What an elastic worker did before exiting.
struct ElasticClientResult {
  std::size_t rounds_served = 0;
  std::size_t reconnects = 0;   ///< successful re-registrations after a loss
  bool interrupted = false;     ///< left on SIGINT/SIGTERM, not on BYE
};

/// Serves TASK->train->UPLOAD until the server says BYE (or SIGTERM via the
/// runner's shutdown flag), transparently reconnecting through the rejoin /
/// churn path when the connection is lost mid-run.
ElasticClientResult run_elastic_client(const FedSpec& spec,
                                       const ElasticClientOptions& options);

/// Writes the run summary (final/best accuracy, per-round metered bytes and
/// accuracy, elastic totals) as JSON — what tools/run_federation.py diffs for
/// the parity check.  Throws std::runtime_error when the file cannot be
/// written.
void write_result_json(const std::string& path, const std::string& mode,
                       const fl::RunResult& result);

/// The elastic worker's summary (rounds served, reconnects, interrupted, and
/// every net.* counter) as JSON — what the soak scripts assert on instead of
/// scraping stdout.  Throws std::runtime_error when the file cannot be
/// written.
void write_client_result_json(const std::string& path, const ElasticClientResult& result);

}  // namespace fedkemf::net
