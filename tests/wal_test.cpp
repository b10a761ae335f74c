// Durable-server tests: WAL codec round-trips, torn-write recovery (truncate
// and bit-flip at every byte — replay must stop at the last valid record,
// never crash or silently deserialize garbage), the recovery planner's
// checkpoint-horizon classification, and an elastic crash-resume e2e (a
// second server pointed at the same wal_dir continues the run).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "fl/metrics.hpp"
#include "fl/runner.hpp"
#include "net/server.hpp"
#include "net/service.hpp"
#include "net/wal.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace fedkemf;
using namespace fedkemf::net;

namespace fs = std::filesystem;

std::string unique_dir(const std::string& tag) {
  const std::string dir =
      "/tmp/fedkemf_wal_test_" + tag + "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string unique_socket_path(const std::string& tag) {
  return "/tmp/fedkemf_wal_test_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

/// A payload-carrying consumption record (claim or stale drain).
WalRecord consumed_record(WalRecordType type, std::uint32_t round, std::uint32_t client,
                          const std::string& name, std::size_t body_bytes,
                          std::uint32_t aux = 0) {
  WalRecord record;
  record.type = type;
  record.round = round;
  record.client = client;
  record.aux = aux;
  record.name = name;
  record.scalars = {4.0, 0.05, 1.25};
  record.body.resize(body_bytes);
  for (std::size_t i = 0; i < body_bytes; ++i) {
    record.body[i] = static_cast<std::uint8_t>((round * 31 + client * 7 + i) & 0xFF);
  }
  return record;
}

/// A representative little log: round starts, claimed and stale-drained
/// uploads, a membership event, and a checkpoint mark.
std::vector<WalRecord> sample_records() {
  std::vector<WalRecord> records;
  WalRecord start;
  start.type = WalRecordType::kRoundStart;
  start.round = 0;
  records.push_back(start);
  records.push_back(consumed_record(WalRecordType::kUploadClaimed, 0, 0, "model", 48));
  records.push_back(consumed_record(WalRecordType::kUploadClaimed, 0, 1, "model", 32));
  WalRecord member;
  member.type = WalRecordType::kMembership;
  member.round = 1;
  member.client = 1;
  member.flag = 3;  // joined + rejoin
  records.push_back(member);
  records.push_back(
      consumed_record(WalRecordType::kStaleApplied, 0, 2, "model", 40, /*aux=*/1));
  WalRecord mark;
  mark.type = WalRecordType::kCheckpointMark;
  mark.round = 2;
  records.push_back(mark);
  return records;
}

void expect_equal(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.aux, b.aux);
  EXPECT_EQ(a.flag, b.flag);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.scalars, b.scalars);
  EXPECT_EQ(a.body, b.body);
}

std::vector<std::uint8_t> encode_all(const std::vector<WalRecord>& records,
                                     std::vector<std::size_t>* boundaries = nullptr) {
  std::vector<std::uint8_t> bytes;
  if (boundaries != nullptr) boundaries->push_back(0);
  for (const WalRecord& record : records) {
    const std::vector<std::uint8_t> one = encode_wal_record(record);
    bytes.insert(bytes.end(), one.begin(), one.end());
    if (boundaries != nullptr) boundaries->push_back(bytes.size());
  }
  return bytes;
}

void write_raw(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// ---- Codec ----

TEST(WalCodec, AppendScanRoundTripsEveryRecordType) {
  const std::string dir = unique_dir("roundtrip");
  const std::string path = dir + "/wal.log";
  const std::vector<WalRecord> records = sample_records();
  {
    WriteAheadLog wal(path);
    for (const WalRecord& record : records) wal.append(record);
    wal.sync();
    EXPECT_EQ(wal.records_appended(), records.size());
    EXPECT_GT(wal.bytes_appended(), 0u);
  }
  const WalScan scan = scan_wal(path);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    expect_equal(records[i], scan.records[i]);
  }
  fs::remove_all(dir);
}

TEST(WalCodec, MissingFileScansEmpty) {
  const WalScan scan = scan_wal("/tmp/fedkemf_wal_test_does_not_exist.log");
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_FALSE(scan.torn);
}

// ---- Torn writes ----

TEST(WalTornWrites, TruncationAtEveryByteStopsAtLastValidRecord) {
  const std::string dir = unique_dir("truncate");
  const std::string path = dir + "/wal.log";
  const std::vector<WalRecord> records = sample_records();
  std::vector<std::size_t> boundaries;
  const std::vector<std::uint8_t> bytes = encode_all(records, &boundaries);

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    write_raw(path, std::vector<std::uint8_t>(bytes.begin(),
                                              bytes.begin() +
                                                  static_cast<std::ptrdiff_t>(cut)));
    const WalScan scan = scan_wal(path);
    // The valid prefix is the number of whole records below the cut.
    std::size_t expect_count = 0;
    while (expect_count + 1 < boundaries.size() && boundaries[expect_count + 1] <= cut) {
      ++expect_count;
    }
    ASSERT_EQ(scan.records.size(), expect_count) << "cut at byte " << cut;
    ASSERT_EQ(scan.valid_bytes, boundaries[expect_count]) << "cut at byte " << cut;
    EXPECT_EQ(scan.torn, cut != boundaries[expect_count]) << "cut at byte " << cut;
    for (std::size_t i = 0; i < expect_count; ++i) expect_equal(records[i], scan.records[i]);
  }
  fs::remove_all(dir);
}

TEST(WalTornWrites, BitFlipAtEveryByteNeverYieldsACorruptRecord) {
  const std::string dir = unique_dir("bitflip");
  const std::string path = dir + "/wal.log";
  const std::vector<WalRecord> records = sample_records();
  std::vector<std::size_t> boundaries;
  const std::vector<std::uint8_t> bytes = encode_all(records, &boundaries);

  for (std::size_t flip = 0; flip < bytes.size(); ++flip) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[flip] ^= 0x40;
    write_raw(path, corrupt);
    WalScan scan;
    ASSERT_NO_THROW(scan = scan_wal(path)) << "flip at byte " << flip;
    // The record containing the flipped byte (and everything after it) must
    // be dropped; everything before it must come back intact.  A flip can
    // never *extend* the valid prefix.
    std::size_t flipped_record = 0;
    while (boundaries[flipped_record + 1] <= flip) ++flipped_record;
    ASSERT_LE(scan.records.size(), flipped_record) << "flip at byte " << flip;
    EXPECT_TRUE(scan.torn) << "flip at byte " << flip;
    for (std::size_t i = 0; i < scan.records.size(); ++i) {
      expect_equal(records[i], scan.records[i]);
    }
  }
  fs::remove_all(dir);
}

TEST(WalTornWrites, ReopenTruncatesTornTailAndAppendsCleanly) {
  const std::string dir = unique_dir("reopen");
  const std::string path = dir + "/wal.log";
  const std::vector<WalRecord> records = sample_records();
  {
    WriteAheadLog wal(path);
    for (const WalRecord& record : records) wal.append(record);
  }
  // Simulate a crash mid-append: half a record's bytes at the tail.
  const std::vector<std::uint8_t> partial =
      encode_wal_record(consumed_record(WalRecordType::kUploadClaimed, 3, 0, "m", 64));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(partial.data()),
              static_cast<std::streamsize>(partial.size() / 2));
  }
  EXPECT_TRUE(scan_wal(path).torn);

  // Reopening truncates the torn tail; new appends parse cleanly after it.
  WalRecord fresh;
  fresh.type = WalRecordType::kRoundStart;
  fresh.round = 9;
  {
    WriteAheadLog wal(path);
    wal.append(fresh);
  }
  const WalScan scan = scan_wal(path);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), records.size() + 1);
  expect_equal(fresh, scan.records.back());
  fs::remove_all(dir);
}

// ---- Recovery planning ----

TEST(WalRecoveryPlan, ClassifiesUploadsAgainstTheCheckpointHorizon) {
  std::vector<WalRecord> records;
  // A: claimed during round 0 — durable once a checkpoint with
  // next_round > 0 exists.
  records.push_back(consumed_record(WalRecordType::kUploadClaimed, 0, 0, "model", 16));
  // B: claimed during round 1 — that fusion is lost under a horizon of 1,
  // so B must be re-parked.
  records.push_back(consumed_record(WalRecordType::kUploadClaimed, 1, 1, "model", 16));
  // C: origin round 0, stale-applied at consuming round 2 — durable only
  // once a checkpoint with next_round > 2 exists.
  records.push_back(
      consumed_record(WalRecordType::kStaleApplied, 0, 2, "model", 16, /*aux=*/2));
  WalRecord start;
  start.type = WalRecordType::kRoundStart;
  start.round = 1;
  records.push_back(start);

  {
    const WalRecovery plan = plan_wal_recovery(records, /*checkpoint_next_round=*/1);
    ASSERT_EQ(plan.applied_keys.size(), 1u);  // only A is covered
    EXPECT_EQ(plan.applied_keys[0], EpollServer::upload_key(0, 0, "model"));
    ASSERT_EQ(plan.uploads.size(), 2u);  // B and C come back
    EXPECT_EQ(plan.last_round_started, 1u);
    // Replayed: 2 re-parked uploads + the round-1 start.
    EXPECT_EQ(plan.replayed, 3u);
  }
  {
    // Horizon 3: every consumption is covered; nothing re-parks.
    const WalRecovery plan = plan_wal_recovery(records, /*checkpoint_next_round=*/3);
    EXPECT_EQ(plan.applied_keys.size(), 3u);
    EXPECT_TRUE(plan.uploads.empty());
  }
  {
    // No checkpoint at all (horizon 0): nothing is durable, everything
    // re-parks.
    const WalRecovery plan = plan_wal_recovery(records, /*checkpoint_next_round=*/0);
    EXPECT_TRUE(plan.applied_keys.empty());
    EXPECT_EQ(plan.uploads.size(), 3u);
  }
}

TEST(WalRecoveryPlan, LatestConsumptionPerKeyDecides) {
  // The same origin upload claimed at round 1, then (after a crash cycle
  // re-parked it) stale-applied at consuming round 3: the newest record is
  // the one whose durability matters.
  std::vector<WalRecord> records;
  records.push_back(consumed_record(WalRecordType::kUploadClaimed, 1, 0, "model", 16));
  records.push_back(
      consumed_record(WalRecordType::kStaleApplied, 1, 0, "model", 16, /*aux=*/3));
  {
    const WalRecovery plan = plan_wal_recovery(records, /*checkpoint_next_round=*/2);
    // The stale application at round 3 is past the horizon: re-park.
    EXPECT_TRUE(plan.applied_keys.empty());
    ASSERT_EQ(plan.uploads.size(), 1u);
  }
  {
    const WalRecovery plan = plan_wal_recovery(records, /*checkpoint_next_round=*/4);
    ASSERT_EQ(plan.applied_keys.size(), 1u);
    EXPECT_TRUE(plan.uploads.empty());
  }
}

TEST(WalRecoveryPlan, ReparkedUploadCarriesTheFullFrame) {
  std::vector<WalRecord> records;
  records.push_back(consumed_record(WalRecordType::kUploadClaimed, 2, 5, "model", 40));
  const WalRecovery plan = plan_wal_recovery(records, 2);
  ASSERT_EQ(plan.uploads.size(), 1u);
  const Frame& frame = plan.uploads[0];
  EXPECT_EQ(frame.type, FrameType::kUpload);
  EXPECT_EQ(frame.round, 2u);
  EXPECT_EQ(frame.client, 5u);
  EXPECT_EQ(frame.name, "model");
  EXPECT_EQ(frame.scalars, records[0].scalars);
  EXPECT_EQ(frame.body, records[0].body);
}

// ---- Crash-resume e2e (in-process: a second server continues the run) ----

FedSpec wal_spec() {
  FedSpec spec;
  spec.algorithm = "fedavg";
  spec.federation.data = data::SyntheticSpec::cifar_like();
  spec.federation.data.image_size = 8;
  spec.federation.train_samples = 96;
  spec.federation.test_samples = 48;
  spec.federation.num_clients = 2;
  spec.federation.seed = 7;
  spec.client_model = {.arch = "cnn2",
                       .num_classes = spec.federation.data.num_classes,
                       .in_channels = spec.federation.data.channels,
                       .image_size = 8,
                       .width_multiplier = 0.25};
  spec.knowledge_model = spec.client_model;
  spec.local.epochs = 1;
  spec.local.batch_size = 16;
  spec.rounds = 2;
  return spec;
}

fl::RunResult run_leg(const FedSpec& spec, const std::string& socket,
                      const std::string& wal_dir) {
  ::unlink(socket.c_str());
  ElasticServerOptions server_options;
  server_options.endpoint = Endpoint::parse("unix://" + socket);
  server_options.min_clients = 2;
  server_options.join_wait_seconds = 30.0;
  server_options.upload_timeout_seconds = 30.0;
  server_options.durability.wal_dir = wal_dir;

  fl::RunResult result;
  std::thread server([&] { result = run_elastic_server(spec, server_options); });
  std::vector<std::thread> workers;
  for (std::size_t id = 0; id < 2; ++id) {
    workers.emplace_back([&, id] {
      ElasticClientOptions options;
      options.endpoint = Endpoint::parse("unix://" + socket);
      options.client_id = id;
      run_elastic_client(spec, options);
    });
  }
  server.join();
  for (auto& w : workers) w.join();
  ::unlink(socket.c_str());
  return result;
}

TEST(ElasticCrashResume, SecondServerContinuesFromTheCheckpoint) {
  const std::string dir = unique_dir("resume");
  const std::string socket = unique_socket_path("resume");

  FedSpec spec = wal_spec();
  spec.rounds = 2;
  const fl::RunResult first = run_leg(spec, socket, dir);
  EXPECT_EQ(first.rounds_completed, 2u);
  EXPECT_TRUE(fs::exists(dir + "/ckpt_00000002.bin"));
  EXPECT_TRUE(fs::exists(dir + "/wal.log"));
  EXPECT_GT(scan_wal(dir + "/wal.log").records.size(), 0u);

  // Same wal_dir, more rounds: the second server must load the checkpoint
  // and run only rounds 2..3, carrying history and traffic totals forward.
  // (Changing --rounds changes the config digest, so the workers get the
  // grown spec too.)
  spec.rounds = 4;
  const fl::RunResult second = run_leg(spec, socket, dir);
  EXPECT_EQ(second.rounds_completed, 4u);
  EXPECT_EQ(second.history.size(), 4u);
  EXPECT_GT(second.total_bytes, first.total_bytes);  // cumulative across legs
  EXPECT_GE(second.final_accuracy, 0.0);
  EXPECT_TRUE(fs::exists(dir + "/ckpt_00000004.bin"));
  fs::remove_all(dir);
}

// A shutdown request during round 1 (at its evaluation, through the phase
// hook the runner's loop fires) stops the durable elastic server at that
// round's end with a checkpoint; a second server on the same wal_dir then
// finishes the run.
std::atomic<int> g_evals_seen{0};

void shutdown_at_second_eval(obs::Phase phase) {
  if (phase == obs::Phase::kEval && ++g_evals_seen == 2) fl::request_shutdown();
}

TEST(ElasticGracefulShutdown, StopsWithACheckpointAndASecondServerFinishes) {
  const std::string dir = unique_dir("shutdown");
  const std::string socket = unique_socket_path("shutdown");
  FedSpec spec = wal_spec();
  spec.rounds = 4;

  fl::clear_shutdown_request();
  g_evals_seen = 0;
  obs::set_phase_completion_hook(&shutdown_at_second_eval);
  const fl::RunResult first = run_leg(spec, socket, dir);
  obs::set_phase_completion_hook(nullptr);
  fl::clear_shutdown_request();

  EXPECT_TRUE(first.interrupted);
  EXPECT_EQ(first.rounds_completed, 2u);
  fl::RunOptions options;
  options.checkpoint_dir = dir;
  const std::optional<ckpt::Checkpoint> checkpoint = fl::latest_checkpoint(options);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->next_round, 2u);

  const fl::RunResult second = run_leg(spec, socket, dir);
  EXPECT_FALSE(second.interrupted);
  EXPECT_EQ(second.rounds_completed, 4u);
  ASSERT_EQ(second.history.size(), 4u);
  ASSERT_EQ(first.history.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(second.history[i].accuracy, first.history[i].accuracy) << "round " << i;
    EXPECT_EQ(second.history[i].cumulative_bytes, first.history[i].cumulative_bytes)
        << "round " << i;
  }
  EXPECT_GT(second.total_bytes, first.total_bytes);  // cumulative across servers
  EXPECT_GT(second.history[2].cumulative_bytes, first.total_bytes);
  EXPECT_TRUE(fs::exists(dir + "/ckpt_00000004.bin"));
  fs::remove_all(dir);
}

}  // namespace
