#include "net/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "comm/channel.hpp"
#include "fl/checkpoint/format.hpp"
#include "fl/feddf.hpp"
#include "fl/fedkemf.hpp"
#include "fl/fedmd.hpp"
#include "fl/fednova.hpp"
#include "fl/fedprox.hpp"
#include "fl/runner.hpp"
#include "fl/scaffold.hpp"
#include "net/session.hpp"
#include "net/transport.hpp"
#include "net/wal.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "utils/logging.hpp"

namespace fedkemf::net {

namespace {

void digest_model_spec(core::ByteWriter& writer, const models::ModelSpec& spec) {
  writer.write_string(spec.arch);
  writer.write_u32(static_cast<std::uint32_t>(spec.num_classes));
  writer.write_u32(static_cast<std::uint32_t>(spec.in_channels));
  writer.write_u32(static_cast<std::uint32_t>(spec.image_size));
  writer.write_f64(spec.width_multiplier);
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

std::uint64_t config_digest(const FedSpec& spec) {
  core::ByteWriter writer;
  writer.write_string(spec.algorithm);
  const fl::FederationOptions& fed = spec.federation;
  writer.write_u32(static_cast<std::uint32_t>(fed.data.num_classes));
  writer.write_u32(static_cast<std::uint32_t>(fed.data.channels));
  writer.write_u32(static_cast<std::uint32_t>(fed.data.image_size));
  writer.write_f64(fed.data.noise_stddev);
  writer.write_f64(fed.data.class_separation);
  writer.write_u32(static_cast<std::uint32_t>(fed.data.jitter));
  writer.write_u32(static_cast<std::uint32_t>(fed.data.num_waves));
  writer.write_u64(fed.data.seed);
  writer.write_u64(fed.train_samples);
  writer.write_u64(fed.test_samples);
  writer.write_u64(fed.server_pool_samples);
  writer.write_u64(fed.local_test_samples);
  writer.write_u64(fed.num_clients);
  writer.write_u8(static_cast<std::uint8_t>(fed.partition));
  writer.write_f64(fed.dirichlet_alpha);
  writer.write_u64(fed.shards_per_client);
  writer.write_u64(fed.seed);
  digest_model_spec(writer, spec.client_model);
  digest_model_spec(writer, spec.knowledge_model);
  writer.write_u64(spec.local.epochs);
  writer.write_u64(spec.local.batch_size);
  writer.write_f64(spec.local.learning_rate);
  writer.write_f64(spec.local.momentum);
  writer.write_f64(spec.local.weight_decay);
  writer.write_f64(spec.local.lr_decay_gamma);
  writer.write_u64(spec.local.lr_decay_every);
  writer.write_u64(spec.rounds);
  writer.write_f64(spec.sample_ratio);
  writer.write_string(spec.selector);
  writer.write_u64(spec.eval_every);
  writer.write_f64(spec.fedprox_mu);
  return fnv1a(writer.buffer());
}

std::unique_ptr<fl::Algorithm> make_algorithm(const FedSpec& spec) {
  const std::string& name = spec.algorithm;
  if (name == "fedavg") return std::make_unique<fl::FedAvg>(spec.client_model, spec.local);
  if (name == "fedprox") {
    return std::make_unique<fl::FedProx>(spec.client_model, spec.local, spec.fedprox_mu);
  }
  if (name == "fednova") return std::make_unique<fl::FedNova>(spec.client_model, spec.local);
  if (name == "scaffold") {
    return std::make_unique<fl::Scaffold>(spec.client_model, spec.local);
  }
  if (name == "feddf") {
    return std::make_unique<fl::FedDf>(spec.client_model, spec.local, fl::FedDfOptions{});
  }
  if (name == "fedmd") {
    fl::FedMdOptions options;
    options.server_student = spec.knowledge_model;
    return std::make_unique<fl::FedMd>(
        std::vector<models::ModelSpec>{spec.client_model}, spec.local, options);
  }
  if (name == "fedkemf") {
    fl::FedKemfOptions options;
    options.knowledge_spec = spec.knowledge_model;
    options.ensemble = fl::EnsembleStrategy::kAvgLogits;
    options.server_momentum = 0.0;
    return std::make_unique<fl::FedKemf>(
        std::vector<models::ModelSpec>{spec.client_model}, spec.local, options);
  }
  throw std::invalid_argument(
      "make_algorithm: unknown algorithm '" + name +
      "' (expected fedavg|fedprox|fednova|scaffold|fedkemf|feddf|fedmd)");
}

bool elastic_capable(const std::string& algorithm) {
  return algorithm == "fedavg" || algorithm == "fedprox" || algorithm == "fednova";
}

fl::RunOptions run_options(const FedSpec& spec) {
  fl::RunOptions options;
  options.rounds = spec.rounds;
  options.sample_ratio = spec.sample_ratio;
  options.selector = spec.selector;
  options.eval_every = spec.eval_every;
  options.num_threads = spec.num_threads;
  return options;
}

fl::RunResult run_in_process(const FedSpec& spec) {
  fl::Federation federation(spec.federation);
  std::unique_ptr<fl::Algorithm> algorithm = make_algorithm(spec);
  return fl::run_federated(federation, *algorithm, run_options(spec));
}

fl::RunResult run_overload_in_process(const FedSpec& spec, const OverloadSimOptions& extra) {
  fl::Federation federation(spec.federation);
  std::unique_ptr<fl::Algorithm> algorithm = make_algorithm(spec);
  fl::RunOptions options = run_options(spec);
  sim::SimOptions sim;
  sim.churn.leave_prob = extra.leave_prob;
  sim.churn.rejoin_prob = extra.rejoin_prob;
  sim.churn.departed_state_retention = extra.departed_state_retention;
  sim.churn.population_scale = extra.population_scale;
  options.sim = sim;
  options.resources = extra.resources;
  return fl::run_federated(federation, *algorithm, options);
}

// ---- Mirror mode ----

namespace {

EpollServer::HelloValidator
make_validator(const FedSpec& spec, std::uint8_t expected_mode) {
  const std::uint64_t digest = config_digest(spec);
  const std::string algorithm = spec.algorithm;
  const std::size_t num_clients = spec.federation.num_clients;
  return [digest, algorithm, num_clients, expected_mode](const HelloRequest& request) {
    HelloReply reply;
    if (request.mode != expected_mode) {
      reply.message = std::string("mode mismatch: this server runs ") +
                      (expected_mode == 0 ? "mirror" : "elastic");
      return reply;
    }
    if (request.algorithm != algorithm) {
      reply.message = "algorithm mismatch: server runs " + algorithm + ", client sent " +
                      request.algorithm;
      return reply;
    }
    if (request.config_digest != digest) {
      reply.message = "configuration digest mismatch (server and client must be "
                      "launched with identical federation flags)";
      return reply;
    }
    if (request.owned_clients.empty()) {
      reply.message = "HELLO owns no client ids";
      return reply;
    }
    for (const std::uint32_t id : request.owned_clients) {
      if (id >= num_clients) {
        reply.message = "client id " + std::to_string(id) + " is out of range (fleet of " +
                        std::to_string(num_clients) + ")";
        return reply;
      }
    }
    reply.accepted = 1;
    return reply;
  };
}

}  // namespace

fl::RunResult run_mirror_server(const FedSpec& spec, const MirrorServerOptions& options) {
  EpollServer server(options.endpoint);
  server.set_hello_validator(make_validator(spec, /*expected_mode=*/0));
  if (!options.auth_key.empty()) server.set_frame_auth(derive_frame_key(options.auth_key));
  server.start();
  if (options.expect_clients > 0 &&
      !server.wait_for_clients(options.expect_clients,
                               Deadline::after(options.hello_wait_seconds))) {
    server.stop();
    throw std::runtime_error(
        "mirror server: only " + std::to_string(server.connected_clients().size()) + " of " +
        std::to_string(options.expect_clients) + " expected clients registered within " +
        std::to_string(options.hello_wait_seconds) + "s");
  }

  // The transport outlives the federation whose channel points at it.
  ServerTransport transport(server, {.strict = true,
                                     .await_timeout_seconds = options.await_timeout_seconds});
  fl::Federation federation(spec.federation);
  federation.channel().set_transport(&transport);
  std::unique_ptr<fl::Algorithm> algorithm = make_algorithm(spec);
  return fl::run_federated(federation, *algorithm, run_options(spec));
}

fl::RunResult run_mirror_client(const FedSpec& spec, const MirrorClientOptions& options) {
  std::optional<FrameKey> key;
  if (!options.auth_key.empty()) key = derive_frame_key(options.auth_key);
  ClientSession session(options.endpoint,
                        Deadline::after(options.connect_timeout_seconds), FrameLimits{},
                        /*collect_acks=*/false, key ? &*key : nullptr);
  HelloRequest request;
  request.mode = 0;
  request.algorithm = spec.algorithm;
  request.config_digest = config_digest(spec);
  for (const std::size_t id : options.owned) {
    request.owned_clients.push_back(static_cast<std::uint32_t>(id));
  }
  const HelloReply reply =
      session.hello(request, Deadline::after(options.connect_timeout_seconds));
  if (!reply.accepted) {
    throw std::runtime_error("mirror client: server rejected HELLO: " + reply.message);
  }

  ClientTransport transport(session, options.owned,
                            {.strict = true,
                             .await_timeout_seconds = options.await_timeout_seconds});
  fl::Federation federation(spec.federation);
  federation.channel().set_transport(&transport);
  std::unique_ptr<fl::Algorithm> algorithm = make_algorithm(spec);
  return fl::run_federated(federation, *algorithm, run_options(spec));
}

// ---- Elastic mode ----

fl::RunResult run_elastic_server(const FedSpec& spec, const ElasticServerOptions& options) {
  if (!elastic_capable(spec.algorithm)) {
    throw std::invalid_argument(
        "elastic mode serves the plain supervised family (fedavg|fedprox|fednova); "
        "run '" + spec.algorithm + "' in mirror mode instead");
  }

  EpollServer server(options.endpoint);
  server.set_hello_validator(make_validator(spec, /*expected_mode=*/1));
  server.set_heartbeat({.enabled = true,
                        .interval_seconds = options.heartbeat_interval_seconds,
                        .timeout_seconds = options.liveness_timeout_seconds});
  if (!options.auth_key.empty()) server.set_frame_auth(derive_frame_key(options.auth_key));
  if (options.write_queue_cap_bytes > 0) {
    server.set_write_queue_cap(options.write_queue_cap_bytes);
  }
  server.set_resource_limits(options.resources);

  // A benign simulator (no faults, no deadline) so comm::TransferFailed from
  // an exhausted upload retry is *recorded* per client instead of aborting
  // the round — the catch path every algorithm already implements.
  fl::RunOptions run = run_options(spec);
  run.sim = sim::SimOptions{};
  run.staleness = spec.staleness;
  run.resources = options.aggregation;
  run.checkpoint_dir = options.durability.wal_dir;
  run.checkpoint_every = options.durability.checkpoint_every;
  run.checkpoint_retain = options.durability.checkpoint_retain;

  // ---- Durability: load the newest valid checkpoint and plan the WAL
  // replay before the loop thread starts — recovered uploads must be parked
  // (and checkpoint-covered keys remembered) before any reconnecting client
  // can redeliver them. ----
  const std::optional<ckpt::Checkpoint> checkpoint = fl::latest_checkpoint(run);
  std::optional<WriteAheadLog> wal;
  std::vector<Frame> recovered;
  if (!run.checkpoint_dir.empty()) {
    const std::string wal_path = (std::filesystem::path(run.checkpoint_dir) / "wal.log").string();
    const WalScan scan = scan_wal(wal_path);
    const std::uint64_t horizon = checkpoint ? checkpoint->next_round : 0;
    WalRecovery plan = plan_wal_recovery(scan.records, horizon);
    for (const std::string& key : plan.applied_keys) server.mark_upload_applied(key);
    recovered = std::move(plan.uploads);
    obs::MetricsRegistry::global().counter("wal.replayed").add(plan.replayed);
    if (checkpoint || !scan.records.empty()) {
      utils::log_info("net") << "durable server: resuming at round " << horizon
                             << ", replayed " << plan.replayed << " WAL record(s), re-parked "
                             << recovered.size() << " upload(s)"
                             << (scan.torn ? " (torn tail truncated)" : "");
    }
    wal.emplace(wal_path);  // truncates the torn tail, then appends
    server.set_wal(&*wal);
  }

  ServerTransport transport(server, {.strict = false,
                                     .await_timeout_seconds = options.upload_timeout_seconds});
  // Optional deterministic fault injection between the channel and the wire —
  // injected drops/corruptions exercise exactly the retry/stale paths a real
  // lossy network would.
  std::optional<FaultyTransport> faulty;
  if (options.fault.enabled()) faulty.emplace(transport, options.fault);
  fl::Federation federation(spec.federation);
  federation.channel().set_transport(faulty ? static_cast<comm::Transport*>(&*faulty)
                                            : &transport);
  std::unique_ptr<fl::Algorithm> algorithm = make_algorithm(spec);

  // The runner's round loop does the rest.  This is its view of the
  // federation: the cohort is whoever is connected when a round starts,
  // connects and disconnects are the joins and leaves, late UPLOADs feed the
  // stale buffer, and the WAL records each round start, membership change
  // and checkpoint horizon.
  // Round starts and checkpoint marks are synced at once; membership records
  // ride along with the next sync.
  const auto journal = [&wal](WalRecordType type, std::size_t round, std::uint32_t client = 0,
                              std::uint8_t flag = 0) {
    if (!wal) return;
    WalRecord record;
    record.type = type;
    record.round = static_cast<std::uint32_t>(round);
    record.client = client;
    record.flag = flag;
    wal->append(record);
    if (type != WalRecordType::kMembership) wal->sync();
  };
  core::Rng scratch_rng(0);
  const std::unique_ptr<nn::Module> scratch = models::build_model(spec.client_model, scratch_rng);
  fl::MembershipSource membership;
  // The loop thread charges parked uploads against the budget, so it is
  // installed, and the WAL's re-parked uploads charged, before start().
  membership.start = [&](core::MemoryBudget* budget) {
    server.set_memory_budget(budget);
    for (Frame& frame : recovered) server.recover_upload(std::move(frame));
    server.start();
  };
  membership.begin_round = [&](std::size_t round) {
    journal(WalRecordType::kRoundStart, round);
    if (!server.wait_for_clients(options.min_clients,
                                 Deadline::after(options.join_wait_seconds))) {
      throw std::runtime_error(
          "elastic server: fewer than " + std::to_string(options.min_clients) +
          " clients connected for " + std::to_string(options.join_wait_seconds) +
          "s before round " + std::to_string(round));
    }

    fl::MembershipSource::Round next;
    for (const MembershipEvent& event : server.take_membership_events()) {
      const bool is_join = event.kind == MembershipEvent::Kind::kJoined;
      next.changes.push_back({.client_id = event.client_id, .joined = is_join});
      journal(WalRecordType::kMembership, round, event.client_id,
              static_cast<std::uint8_t>((is_join ? 1u : 0u) | (event.rejoin ? 2u : 0u)));
    }

    // Late uploads from earlier rounds feed the stale buffer with the
    // scalars fl::FedAvg::fill_stale_extras would have recorded in-process.
    for (Frame& frame : server.take_stale_uploads(static_cast<std::uint32_t>(round))) {
      try {
        screen_wire_body(frame.body);
        comm::deserialize_model(frame.body, *scratch);
      } catch (const std::exception& e) {
        utils::log_warn("net") << "dropping undecodable late upload from client "
                               << frame.client << ": " << e.what();
        continue;
      }
      federation.channel().transfer_raw(frame.body.size(), frame.round, frame.client,
                                        comm::Direction::kUplink, "stale_" + frame.name);
      fl::StaleUpdate update;
      update.client_id = frame.client;
      update.origin_round = frame.round;
      update.due_round = round;
      update.state = nn::snapshot_state(*scratch);
      update.scalars.assign(frame.scalars.begin(),
                            frame.scalars.begin() +
                                static_cast<std::ptrdiff_t>(
                                    std::min<std::size_t>(2, frame.scalars.size())));
      next.late.push_back(std::move(update));
    }

    // Ids beyond the configured fleet were rejected at HELLO.
    next.eligible = server.connected_clients();
    return next;
  };
  // The mark tells WAL replay which consumptions the checkpoint covers.
  membership.on_checkpoint = [&](std::size_t next_round) {
    journal(WalRecordType::kCheckpointMark, next_round);
  };
  // Hands parked-upload charges back while the run's budget still lives.
  membership.stop = [&] { server.stop(); };
  return checkpoint ? fl::resume_from(federation, *algorithm, run, *checkpoint, &membership)
                    : fl::run_federated(federation, *algorithm, run, &membership);
}

namespace {

/// One jittered reconnect wait: retry_backoff_seconds is the cumulative wait
/// across `failures` attempts, so the delta is the failures-th wait — still a
/// pure function of (policy, failures, seed).
double reconnect_wait_seconds(const comm::RetryPolicy& policy, std::size_t failures,
                              std::uint64_t seed) {
  if (failures == 0) return 0.0;
  return comm::retry_backoff_seconds(policy, failures, seed) -
         comm::retry_backoff_seconds(policy, failures - 1, seed);
}

}  // namespace

ElasticClientResult run_elastic_client(const FedSpec& spec,
                                       const ElasticClientOptions& options) {
  if (options.client_id >= spec.federation.num_clients) {
    throw std::invalid_argument("elastic client: id out of range");
  }
  fl::Federation federation(spec.federation);
  core::Rng model_rng = federation.root_rng().fork(0xC11E57ULL + options.client_id);
  const std::unique_ptr<nn::Module> model =
      models::build_model(spec.client_model, model_rng);
  const std::vector<std::size_t>& shard = federation.client_shard(options.client_id);

  std::optional<FrameKey> key;
  if (!options.auth_key.empty()) key = derive_frame_key(options.auth_key);

  comm::RetryPolicy backoff;
  backoff.backoff_seconds = options.reconnect_backoff_seconds;
  backoff.decorrelated_jitter = true;
  backoff.max_backoff_seconds = options.reconnect_backoff_max_seconds;
  const std::uint64_t jitter_seed =
      0xEC0C11E57ULL ^ static_cast<std::uint64_t>(options.client_id);
  static auto& counter_reconnects =
      obs::MetricsRegistry::global().counter("net.client.reconnects");

  ElasticClientResult result;
  bool registered_once = false;       // first registration failures are fatal
  std::size_t reconnect_attempts = 0; // total budget across the whole run
  std::size_t consecutive_failures = 0;  // drives the jittered backoff
  bool bye = false;

  while (!bye && !fl::shutdown_requested()) {
    // ---- (Re)connect and register ----
    std::unique_ptr<ClientSession> session;
    try {
      session = std::make_unique<ClientSession>(
          options.endpoint, Deadline::after(options.connect_timeout_seconds),
          FrameLimits{}, /*collect_acks=*/false, key ? &*key : nullptr);
      HelloRequest request;
      request.mode = 1;
      request.algorithm = spec.algorithm;
      request.config_digest = config_digest(spec);
      request.owned_clients = {static_cast<std::uint32_t>(options.client_id)};
      request.rejoin = (options.rejoin || registered_once) ? 1 : 0;
      const HelloReply reply =
          session->hello(request, Deadline::after(options.connect_timeout_seconds));
      if (!reply.accepted) {
        if (!registered_once) {
          // A rejected first HELLO is a configuration mismatch — retrying
          // cannot fix it.
          throw std::runtime_error("elastic client: server rejected HELLO: " +
                                   reply.message);
        }
        // After a reset the server may still hold our dying connection and
        // reject the id as "already owned" until liveness reaps it; that is
        // transient, so burn a reconnect attempt and retry.
        throw IoError("rejoin rejected: " + reply.message);
      }
    } catch (const ServerBusy& busy) {
      // Admission control said "later": the server is healthy, just over its
      // resource limits.  Transient even before the first registration —
      // unlike a rejected HELLO, nothing about this client is wrong.  Honor
      // the server's retry-after hint, but never back off *less* than the
      // decorrelated-jitter schedule (a thundering herd of refused clients
      // re-knocking in sync would keep the server saturated).
      static auto& counter_busy_backoffs =
          obs::MetricsRegistry::global().counter("net.client.busy_backoffs");
      counter_busy_backoffs.add(1);
      session.reset();
      if (reconnect_attempts >= options.max_reconnects) {
        utils::log_warn("net") << "client " << options.client_id
                               << ": server BUSY and reconnect budget exhausted ("
                               << options.max_reconnects << ")";
        break;
      }
      ++reconnect_attempts;
      ++consecutive_failures;
      const double wait =
          std::max(busy.retry_after_seconds(),
                   reconnect_wait_seconds(backoff, consecutive_failures, jitter_seed));
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      continue;
    } catch (const std::exception& e) {
      // IoError is the socket dying; ProtocolError is a corrupted or forged
      // reply (the connection is equally unusable, e.g. a chaos proxy flipped
      // a byte).  Anything else — config rejection, bad endpoint — is fatal,
      // as is any failure before the first successful registration.
      const bool transient =
          dynamic_cast<const IoError*>(&e) || dynamic_cast<const ProtocolError*>(&e);
      if (!transient || !registered_once) throw;
      session.reset();
      if (reconnect_attempts >= options.max_reconnects) {
        utils::log_warn("net") << "client " << options.client_id
                               << ": reconnect budget exhausted (" << options.max_reconnects
                               << "): " << e.what();
        break;
      }
      ++reconnect_attempts;
      ++consecutive_failures;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          reconnect_wait_seconds(backoff, consecutive_failures, jitter_seed)));
      continue;
    }
    if (registered_once) {
      ++result.reconnects;
      counter_reconnects.add(1);
      utils::log_info("net") << "client " << options.client_id << ": rejoined after "
                             << consecutive_failures + 1 << " attempt(s)";
    }
    registered_once = true;
    consecutive_failures = 0;

    // ---- Serve until BYE, shutdown, or a lost connection ----
    bool lost = false;
    auto last_ping = std::chrono::steady_clock::now();
    while (!lost) {
      if (fl::shutdown_requested()) break;
      // Client-side liveness: a silent server past the timeout is treated as
      // dead (half-open TCP never errors on its own); past a third of it,
      // probe with a PING so the silence check measures round trips, not an
      // idle-but-healthy server.
      const double silence = session->seconds_since_frame();
      if (options.server_silence_timeout_seconds > 0.0) {
        if (silence > options.server_silence_timeout_seconds) {
          utils::log_warn("net") << "client " << options.client_id << ": server silent for "
                                 << silence << "s, reconnecting";
          lost = true;
          break;
        }
        const auto since_ping = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - last_ping).count();
        if (silence > options.server_silence_timeout_seconds / 3.0 &&
            since_ping > options.server_silence_timeout_seconds / 3.0) {
          Frame ping;
          ping.type = FrameType::kPing;
          ping.client = static_cast<std::uint32_t>(options.client_id);
          try {
            session->send(ping, Deadline::after(5.0));
          } catch (const IoError&) {
            lost = true;
            break;
          }
          last_ping = std::chrono::steady_clock::now();
        }
      }

      std::optional<Frame> task;
      try {
        task = session->next_task(static_cast<std::uint32_t>(options.client_id),
                                  Deadline::after(1.0));
      } catch (const IoError&) {
        lost = true;
        break;
      } catch (const ProtocolError&) {
        // A corrupted inbound frame poisons the stream: reconnect rather
        // than guess where the next frame boundary is.
        lost = true;
        break;
      }
      if (!task) continue;

      try {
        comm::deserialize_model(task->body, *model);
      } catch (const std::exception& e) {
        utils::log_warn("net") << "client " << options.client_id
                               << ": undecodable TASK body: " << e.what();
        continue;
      }
      const fl::LocalTrainConfig config = spec.local.at_round(task->round);
      fl::GradHook hook;
      std::vector<core::Tensor> anchor;
      if (spec.algorithm == "fedprox") {
        for (nn::Parameter* p : model->parameters()) anchor.push_back(p->value.clone());
        const float mu = static_cast<float>(spec.fedprox_mu);
        hook = [mu, &anchor](const std::vector<nn::Parameter*>& params) {
          for (std::size_t i = 0; i < params.size(); ++i) {
            float* __restrict g = params[i]->grad.data();
            const float* __restrict w = params[i]->value.data();
            const float* __restrict a = anchor[i].data();
            const std::size_t n = params[i]->grad.numel();
            for (std::size_t j = 0; j < n; ++j) g[j] += mu * (w[j] - a[j]);
          }
        };
      }
      const fl::LocalTrainResult trained = fl::supervised_local_update(
          *model, federation.train_set(), shard, config,
          fl::client_stream(federation, task->round, options.client_id), hook);
      if (options.train_delay_seconds > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options.train_delay_seconds));
      }

      Frame upload;
      upload.type = FrameType::kUpload;
      upload.round = task->round;
      upload.client = static_cast<std::uint32_t>(options.client_id);
      upload.name = task->name;
      upload.scalars = {static_cast<double>(trained.steps), config.learning_rate,
                        trained.mean_loss};
      upload.body = comm::serialize_model(*model);
      try {
        session->send(upload, Deadline::after(30.0));
      } catch (const IoError&) {
        lost = true;
        break;
      }
      ++result.rounds_served;
    }

    if (session->bye_received()) bye = true;
    session->close();
    if (bye || fl::shutdown_requested()) break;
    if (lost) {
      if (reconnect_attempts >= options.max_reconnects) {
        utils::log_warn("net") << "client " << options.client_id
                               << ": connection lost and reconnect budget exhausted";
        break;
      }
      ++reconnect_attempts;
      ++consecutive_failures;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          reconnect_wait_seconds(backoff, consecutive_failures, jitter_seed)));
    }
  }
  result.interrupted = fl::shutdown_requested() && !bye;
  return result;
}

void write_result_json(const std::string& path, const std::string& mode,
                       const fl::RunResult& result) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_result_json: cannot open '" + path + "'");
  char buffer[64];
  const auto num = [&buffer](double v) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    return std::string(buffer);
  };
  out << "{\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"algorithm\": \"" << result.algorithm << "\",\n";
  out << "  \"rounds_completed\": " << result.rounds_completed << ",\n";
  out << "  \"final_accuracy\": " << num(result.final_accuracy) << ",\n";
  out << "  \"best_accuracy\": " << num(result.best_accuracy) << ",\n";
  out << "  \"total_bytes\": " << result.total_bytes << ",\n";
  out << "  \"interrupted\": " << (result.interrupted ? "true" : "false") << ",\n";
  out << "  \"total_joined\": " << result.total_joined << ",\n";
  out << "  \"total_left\": " << result.total_left << ",\n";
  out << "  \"total_stale_applied\": " << result.total_stale_applied << ",\n";
  out << "  \"total_dropped\": " << result.total_dropped << ",\n";
  out << "  \"total_degraded_rounds\": " << result.total_degraded_rounds << ",\n";
  out << "  \"peak_rss_bytes\": " << result.peak_rss_bytes << ",\n";
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const auto counter_value = [&snap](const std::string& name) -> std::uint64_t {
    for (const auto& counter : snap.counters) {
      if (counter.name == name) return counter.value;
    }
    return 0;
  };
  // Durable-server recovery totals, surfaced explicitly (not just inside
  // net_counters) so soak scripts assert on them by key.  Zero for volatile
  // runs.
  out << "  \"wal_replayed\": " << counter_value("wal.replayed") << ",\n";
  out << "  \"recovered_uploads\": " << counter_value("net.server.recovered_uploads")
      << ",\n";
  out << "  \"total_reconnects\": "
      << counter_value("net.client.reconnects") + counter_value("net.server.rejoins")
      << ",\n";
  // Robustness observability: every net.* counter this process recorded, so
  // the chaos harness can assert each injected fault class produced its
  // detection/recovery signal.
  out << "  \"net_counters\": {";
  {
    bool first = true;
    for (const auto& counter : snap.counters) {
      // net.* plus the overload (shed/spill/degraded) and durability (wal.*)
      // families, so the overload and server-crash scenarios can assert their
      // recovery paths actually engaged.
      const bool wanted = counter.name.rfind("net.", 0) == 0 ||
                          counter.name.rfind("fl.spill.", 0) == 0 ||
                          counter.name.rfind("fl.fusion.", 0) == 0 ||
                          counter.name.rfind("wal.", 0) == 0;
      if (!wanted) continue;
      out << (first ? "" : ", ") << "\"" << counter.name << "\": " << counter.value;
      first = false;
    }
  }
  out << "},\n";
  out << "  \"rounds\": [\n";
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    const fl::RoundRecord& record = result.history[i];
    out << "    {\"round\": " << record.round << ", \"accuracy\": " << num(record.accuracy)
        << ", \"round_bytes\": " << record.round_bytes
        << ", \"cumulative_bytes\": " << record.cumulative_bytes
        << ", \"stale_applied\": " << record.stale_applied << "}"
        << (i + 1 < result.history.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  if (!out.good()) throw std::runtime_error("write_result_json: write failed: " + path);
}

void write_client_result_json(const std::string& path, const ElasticClientResult& result) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_client_result_json: cannot open '" + path + "'");
  }
  out << "{\n";
  out << "  \"mode\": \"elastic-client\",\n";
  out << "  \"rounds_served\": " << result.rounds_served << ",\n";
  out << "  \"reconnects\": " << result.reconnects << ",\n";
  out << "  \"interrupted\": " << (result.interrupted ? "true" : "false") << ",\n";
  out << "  \"net_counters\": {";
  {
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    bool first = true;
    for (const auto& counter : snap.counters) {
      if (counter.name.rfind("net.", 0) != 0) continue;
      out << (first ? "" : ", ") << "\"" << counter.name << "\": " << counter.value;
      first = false;
    }
  }
  out << "}\n";
  out << "}\n";
  if (!out.good()) {
    throw std::runtime_error("write_client_result_json: write failed: " + path);
  }
}

}  // namespace fedkemf::net
