// Federation server: the aggregation side of a real multi-process run.
//
//   mirror    lockstep replication of the full run_federated loop; every
//             algorithm works and a fault-free run matches the in-process
//             simulator bit-for-bit (accuracy and per-round metered bytes).
//   elastic   server-authoritative rounds over whatever clients are
//             connected; disconnects map onto churn, late uploads onto the
//             staleness buffer.  fedavg / fedprox / fednova only.  Runs the
//             runner's round loop, so it has the in-process run's fl.round
//             and phase trace spans, fl.* round counters and checkpoint
//             writer (--wal-dir).
//   reference in-process run with no sockets — the parity baseline
//             tools/run_federation.py diffs a distributed run against.
//
//   ./tools/fed_server --mode mirror --endpoint unix:///tmp/fed.sock
//       --expect-clients 2 --clients 8 --rounds 3 --results server.json

#include <cstdio>
#include <exception>
#include <string>

#include "fed_common.hpp"
#include "fl/runner.hpp"
#include "utils/table.hpp"

int main(int argc, char** argv) {
  using namespace fedkemf;

  tools::SpecFlags flags;
  std::string mode = "mirror";
  std::string endpoint = "unix:///tmp/fedkemf.sock";
  std::size_t expect_clients = 0;
  std::size_t min_clients = 1;
  double hello_wait = 60.0;
  double join_wait = 60.0;
  double upload_timeout = 30.0;
  double await_timeout = 600.0;
  double heartbeat_interval = 2.0;
  double liveness_timeout = 20.0;
  std::string auth_key;
  double fault_drop = 0.0;
  double fault_corrupt = 0.0;
  double fault_delay = 0.0;
  double fault_delay_seconds = 0.05;
  std::size_t fault_seed = 0;
  std::size_t max_connections = 0;
  std::size_t max_inflight_uploads = 0;
  std::size_t max_pending_upload_bytes = 0;
  double busy_retry_after = 2.0;
  std::size_t memory_budget_mb = 0;
  std::size_t max_fusion_members = 0;
  std::string spill_dir;
  std::string wal_dir;
  std::size_t checkpoint_every = 1;
  std::size_t checkpoint_retain = 3;
  double churn_leave = 0.0;
  double churn_rejoin = 0.0;
  std::size_t departed_retention = 4;
  std::size_t population_scale = 1;
  std::string results;
  bool quiet = false;

  utils::Cli cli("fed_server", "federation server (mirror | elastic | reference)");
  tools::register_spec_flags(cli, flags);
  cli.flag("mode", &mode,
           "mirror | elastic | reference (in-process baseline) | overload "
           "(in-process churn + resource-limit soak)");
  cli.flag("endpoint", &endpoint, "tcp://host:port or unix:///path");
  cli.flag("expect-clients", &expect_clients,
           "mirror: remote replicas to wait for before round 0");
  cli.flag("min-clients", &min_clients, "elastic: connected clients needed per round");
  cli.flag("hello-wait", &hello_wait, "mirror: seconds to wait for the replicas");
  cli.flag("join-wait", &join_wait, "elastic: seconds to wait for min-clients");
  cli.flag("upload-timeout", &upload_timeout, "elastic: per-upload deadline seconds");
  cli.flag("await-timeout", &await_timeout, "mirror: per-await deadline seconds");
  cli.flag("heartbeat-interval", &heartbeat_interval,
           "elastic: PING registered clients this often (seconds)");
  cli.flag("liveness-timeout", &liveness_timeout,
           "elastic: evict a connection silent for this many seconds");
  cli.flag("auth-key", &auth_key,
           "shared secret for SipHash frame authentication (clients must match)");
  cli.flag("fault-drop", &fault_drop,
           "elastic: deterministic per-attempt transfer drop rate [0,1]");
  cli.flag("fault-corrupt", &fault_corrupt,
           "elastic: deterministic per-attempt payload corruption rate [0,1]");
  cli.flag("fault-delay", &fault_delay,
           "elastic: deterministic per-attempt delay-injection rate [0,1]");
  cli.flag("fault-delay-seconds", &fault_delay_seconds,
           "elastic: seconds each injected delay sleeps");
  cli.flag("fault-seed", &fault_seed, "elastic: fault-injection stream seed");
  cli.flag("max-connections", &max_connections,
           "elastic: BUSY new HELLOs past this many sockets (0 = unlimited)");
  cli.flag("max-inflight-uploads", &max_inflight_uploads,
           "elastic: shed oldest parked uploads past this count (0 = unlimited)");
  cli.flag("max-pending-upload-bytes", &max_pending_upload_bytes,
           "elastic: shed oldest parked uploads past this many bytes (0 = unlimited)");
  cli.flag("busy-retry-after", &busy_retry_after,
           "elastic: retry-after hint (seconds) carried by BUSY frames");
  cli.flag("memory-budget-mb", &memory_budget_mb,
           "elastic: aggregation memory budget in MiB (0 = unlimited)");
  cli.flag("max-fusion-members", &max_fusion_members,
           "elastic: cap fusion cohort, shed stale members first (0 = unlimited)");
  cli.flag("spill-dir", &spill_dir,
           "elastic/overload: spill departed-client state to this directory");
  cli.flag("wal-dir", &wal_dir,
           "elastic: write-ahead log + checkpoints here; restart with the same "
           "directory to crash-resume the run (empty = volatile)");
  cli.flag("checkpoint-every", &checkpoint_every,
           "elastic: rounds between full server checkpoints (needs --wal-dir)");
  cli.flag("checkpoint-retain", &checkpoint_retain,
           "elastic: newest checkpoints kept on disk");
  cli.flag("churn-leave", &churn_leave, "overload: per-round departure probability");
  cli.flag("churn-rejoin", &churn_rejoin, "overload: per-round re-enrollment probability");
  cli.flag("departed-retention", &departed_retention,
           "overload: departed clients whose state is retained before eviction");
  cli.flag("population-scale", &population_scale,
           "overload: registered-population multiplier (phantom clients)");
  cli.flag("results", &results, "write the run summary JSON here");
  cli.flag("quiet", &quiet, "suppress the history table");
  cli.parse(argc, argv);

  fl::install_shutdown_handler();
  const net::FedSpec spec = tools::to_spec(flags);

  fl::RunResult result;
  try {
    if (mode == "reference") {
      result = net::run_in_process(spec);
    } else if (mode == "overload") {
      net::OverloadSimOptions extra;
      extra.resources.memory_budget_bytes = memory_budget_mb << 20;
      extra.resources.max_fusion_members = max_fusion_members;
      extra.resources.spill_dir = spill_dir;
      extra.leave_prob = churn_leave;
      extra.rejoin_prob = churn_rejoin;
      extra.departed_state_retention = departed_retention;
      extra.population_scale = population_scale;
      result = net::run_overload_in_process(spec, extra);
    } else if (mode == "mirror") {
      net::MirrorServerOptions options;
      options.endpoint = net::Endpoint::parse(endpoint);
      options.expect_clients = expect_clients;
      options.hello_wait_seconds = hello_wait;
      options.await_timeout_seconds = await_timeout;
      options.auth_key = auth_key;
      result = net::run_mirror_server(spec, options);
    } else if (mode == "elastic") {
      net::ElasticServerOptions options;
      options.endpoint = net::Endpoint::parse(endpoint);
      options.min_clients = min_clients;
      options.join_wait_seconds = join_wait;
      options.upload_timeout_seconds = upload_timeout;
      options.heartbeat_interval_seconds = heartbeat_interval;
      options.liveness_timeout_seconds = liveness_timeout;
      options.auth_key = auth_key;
      options.fault.drop_rate = fault_drop;
      options.fault.corrupt_rate = fault_corrupt;
      options.fault.delay_rate = fault_delay;
      options.fault.delay_seconds = fault_delay_seconds;
      options.fault.seed = fault_seed;
      options.resources.max_connections = max_connections;
      options.resources.max_inflight_uploads = max_inflight_uploads;
      options.resources.max_pending_upload_bytes = max_pending_upload_bytes;
      options.resources.busy_retry_after_seconds = busy_retry_after;
      if (memory_budget_mb > 0 || max_fusion_members > 0 || !spill_dir.empty()) {
        fl::ResourceLimits aggregation;
        aggregation.memory_budget_bytes = memory_budget_mb << 20;
        aggregation.max_fusion_members = max_fusion_members;
        aggregation.spill_dir = spill_dir;
        options.aggregation = aggregation;
      }
      options.durability.wal_dir = wal_dir;
      options.durability.checkpoint_every = checkpoint_every;
      options.durability.checkpoint_retain = checkpoint_retain;
      result = net::run_elastic_server(spec, options);
    } else {
      std::fprintf(stderr, "fed_server: unknown --mode '%s'\n", mode.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fed_server: %s\n", e.what());
    return 1;
  }

  if (!quiet) {
    std::printf("%s\n", fl::history_table(result).to_markdown().c_str());
  }
  std::printf("mode=%s algorithm=%s rounds=%zu final_accuracy=%.17g total_bytes=%zu%s\n",
              mode.c_str(), result.algorithm.c_str(), result.rounds_completed,
              result.final_accuracy, result.total_bytes,
              result.interrupted ? " (interrupted)" : "");
  if (!results.empty()) {
    try {
      net::write_result_json(results, mode, result);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fed_server: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
