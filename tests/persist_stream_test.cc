// Replication-stream differential tests: a standby Persistence fed the
// primary's journal tap must mirror the primary bit-for-bit — same
// decision fingerprints, byte-identical journal files — through torn
// batch boundaries, compactions, and full-resync handshakes; stale
// generations are refused and ack watermarks never regress. A live
// StandbyReplicator against a test-driven primary socket must never ack
// past its journal, and must have applied everything it acked once it
// stops; a record it acked but cannot apply wedges it against promotion.
#include "persist/persistence.h"

#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/controller.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/tcp.h"
#include "persist/journal.h"
#include "replica/source.h"
#include "replica/standby.h"
#include "rsl/value.h"
#include "test_scenarios.h"

namespace harmony::persist {
namespace {

using harmony::testing::bag_bundle;
using harmony::testing::db_client_bundle;
using harmony::testing::fingerprint;
using harmony::testing::simple_bundle;
using harmony::testing::sp2_cluster_script;

constexpr int kLastStep = 13;

// The scripted history of persist_recovery_test: every journal-able
// event kind at least once.
void apply_step(core::Controller& c, int s) {
  switch (s) {
    case 1:
      ASSERT_TRUE(c.add_nodes_script(sp2_cluster_script(6)).ok());
      ASSERT_TRUE(c.finalize_cluster().ok());
      break;
    case 2: ASSERT_TRUE(c.register_script(bag_bundle("1 2 3 4", 0)).ok()); break;
    case 3: ASSERT_TRUE(c.register_script(db_client_bundle("sp2-00", 1)).ok()); break;
    case 4: ASSERT_TRUE(c.report_external_load("sp2-01", 3).ok()); break;
    case 5: ASSERT_TRUE(c.register_script(db_client_bundle("sp2-01", 2)).ok()); break;
    case 6: ASSERT_TRUE(c.set_node_online("sp2-02", false).ok()); break;
    case 7: ASSERT_TRUE(c.reevaluate().ok()); break;
    case 8: ASSERT_TRUE(c.register_script(db_client_bundle("sp2-03", 3)).ok()); break;
    case 9: ASSERT_TRUE(c.unregister(2).ok()); break;
    case 10: ASSERT_TRUE(c.set_node_online("sp2-02", true).ok()); break;
    case 11: ASSERT_TRUE(c.report_external_load("sp2-01", 0).ok()); break;
    case 12: ASSERT_TRUE(c.register_script(simple_bundle(2)).ok()); break;
    case 13: ASSERT_TRUE(c.reevaluate().ok()); break;
  }
}

// Tap that applies the stream to a standby persistence immediately —
// the in-process equivalent of a zero-latency replication link.
class MirrorTap : public ReplicationTap {
 public:
  explicit MirrorTap(Persistence* standby) : standby_(standby) {}
  void on_journal_commit(uint64_t, uint64_t, std::string_view bytes) override {
    uint64_t applied = 0;
    Status status = standby_->apply_replicated(bytes, &applied);
    if (!status.ok() && last_error_.ok()) last_error_ = status;
    records_ += applied;
  }
  void on_compaction(uint64_t new_generation) override {
    Status status = standby_->apply_compaction(new_generation);
    if (!status.ok() && last_error_.ok()) last_error_ = status;
  }
  const Status& last_error() const { return last_error_; }
  uint64_t records() const { return records_; }

 private:
  Persistence* standby_;
  Status last_error_;
  uint64_t records_ = 0;
};

// Tap that records the stream for later (re-chunked) application.
class CaptureTap : public ReplicationTap {
 public:
  struct Item {
    bool compact = false;
    uint64_t generation = 0;
    std::string bytes;
  };
  void on_journal_commit(uint64_t generation, uint64_t,
                         std::string_view bytes) override {
    items_.push_back({false, generation, std::string(bytes)});
  }
  void on_compaction(uint64_t new_generation) override {
    items_.push_back({true, new_generation, {}});
  }
  std::vector<Item> items_;
};

bool parse_u64(const std::string& text, uint64_t* out) {
  long long value = 0;
  if (!parse_int64(text, &value) || value < 0) return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "stream_" + std::to_string(::getpid()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    primary_dir_ = base_ + "_p";
    standby_dir_ = base_ + "_s";
    clean(primary_dir_);
    clean(standby_dir_);
  }
  void TearDown() override {
    clean(primary_dir_);
    clean(standby_dir_);
  }

  static void clean(const std::string& dir) {
    std::remove((dir + "/journal.wal").c_str());
    std::remove((dir + "/snapshot.hsn").c_str());
    std::remove((dir + "/snapshot.tmp").c_str());
    ::rmdir(dir.c_str());
  }

  void install_clock(core::Controller& controller) {
    controller.set_time_source([this] { return clock_; });
  }

  void drive(std::initializer_list<core::Controller*> controllers, int from,
             int to) {
    for (int s = from; s <= to; ++s) {
      clock_ += 5.0;
      for (core::Controller* c : controllers) apply_step(*c, s);
    }
  }

  // The real protocol bootstraps a fresh mirror through the handshake's
  // full resync (snapshot transfer + the journal from byte zero, see
  // ReplicationSource::handshake); the zero-latency tap tests below do
  // the same by hand before going live on the stream. Cluster setup
  // does not pass through journal epochs — it reaches standbys only in
  // the snapshot — so skipping this step would replay registrations
  // into a node-less controller.
  void bootstrap_mirror(Persistence& primary, Persistence& standby) {
    ASSERT_TRUE(primary.flush().ok());
    ASSERT_TRUE(standby
                    .install_snapshot(read_file(primary.snapshot_path()),
                                      primary.generation())
                    .ok());
    const ReplicationPosition pos = primary.replication_position();
    const std::string journal = read_file(primary.journal_path());
    ASSERT_LE(pos.offset, journal.size());
    uint64_t applied = 0;
    ASSERT_TRUE(standby
                    .apply_replicated(
                        std::string_view(journal).substr(0, pos.offset),
                        &applied)
                    .ok());
  }

  PersistConfig config(const std::string& dir, uint64_t snapshot_every = 0) {
    PersistConfig config;
    config.dir = dir;
    config.snapshot_every_epochs = snapshot_every;
    config.snapshot_min_journal_bytes = 0;
    config.fsync_every_epochs = 4;
    return config;
  }

  std::string base_, primary_dir_, standby_dir_;
  double clock_ = 0.0;
};

TEST_F(StreamTest, MirroredStandbyMatchesPrimaryBitForBit) {
  core::Controller reference;
  install_clock(reference);

  core::Controller standby_controller;
  auto standby =
      Persistence::open_standby(config(standby_dir_), standby_controller);
  ASSERT_TRUE(standby.ok()) << standby.error().to_string();
  MirrorTap tap(standby->get());

  core::Controller primary;
  install_clock(primary);
  auto persistence = Persistence::open(config(primary_dir_), primary);
  ASSERT_TRUE(persistence.ok()) << persistence.error().to_string();

  drive({&primary, &reference}, 1, 1);
  bootstrap_mirror(**persistence, **standby);
  (*persistence)->set_replication_tap(&tap);

  drive({&primary, &reference}, 2, kLastStep);
  ASSERT_TRUE((*persistence)->flush().ok());
  ASSERT_TRUE(tap.last_error().ok()) << tap.last_error().to_string();
  EXPECT_GT(tap.records(), 0u);

  EXPECT_EQ(fingerprint(standby_controller), fingerprint(reference));
  EXPECT_EQ(fingerprint(standby_controller), fingerprint(primary));
  EXPECT_EQ((*standby)->generation(), (*persistence)->generation());
  // The mirrored journal is the primary's journal, byte for byte.
  ASSERT_TRUE((*standby)->sync_replica().ok());
  EXPECT_EQ(read_file((*standby)->journal_path()),
            read_file((*persistence)->journal_path()));
}

TEST_F(StreamTest, CompactionsStreamAndTheMirrorStaysRecoverable) {
  core::Controller reference;
  install_clock(reference);

  core::Controller standby_controller;
  auto standby =
      Persistence::open_standby(config(standby_dir_), standby_controller);
  ASSERT_TRUE(standby.ok()) << standby.error().to_string();
  MirrorTap tap(standby->get());

  core::Controller primary;
  install_clock(primary);
  // Compact every 3 epochs: several mid-run generations stream COMPACT
  // markers through the tap.
  auto persistence =
      Persistence::open(config(primary_dir_, /*snapshot_every=*/3), primary);
  ASSERT_TRUE(persistence.ok()) << persistence.error().to_string();

  drive({&primary, &reference}, 1, 1);
  bootstrap_mirror(**persistence, **standby);
  (*persistence)->set_replication_tap(&tap);

  drive({&primary, &reference}, 2, kLastStep);
  ASSERT_TRUE((*persistence)->flush().ok());
  ASSERT_TRUE(tap.last_error().ok()) << tap.last_error().to_string();
  EXPECT_GT((*persistence)->generation(), 1u);
  EXPECT_EQ((*standby)->generation(), (*persistence)->generation());
  EXPECT_EQ(fingerprint(standby_controller), fingerprint(reference));

  // The standby's on-disk mirror must be a valid recovery image: a
  // fresh controller recovered from it fingerprints identically.
  standby->reset();  // closes journal fd, keeps the files
  core::Controller recovered;
  auto reopened = Persistence::open(config(standby_dir_), recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
  EXPECT_TRUE((*reopened)->recovery().recovered);
  EXPECT_EQ(fingerprint(recovered), fingerprint(reference));
}

TEST_F(StreamTest, TornBatchesAcrossArbitraryBoundaries) {
  core::Controller reference;
  install_clock(reference);

  core::Controller standby_controller;
  auto standby =
      Persistence::open_standby(config(standby_dir_), standby_controller);
  ASSERT_TRUE(standby.ok()) << standby.error().to_string();

  CaptureTap capture;
  core::Controller primary;
  install_clock(primary);
  auto persistence =
      Persistence::open(config(primary_dir_, /*snapshot_every=*/4), primary);
  ASSERT_TRUE(persistence.ok()) << persistence.error().to_string();

  drive({&primary, &reference}, 1, 1);
  bootstrap_mirror(**persistence, **standby);
  (*persistence)->set_replication_tap(&capture);
  drive({&primary, &reference}, 2, kLastStep);
  ASSERT_TRUE((*persistence)->flush().ok());

  // Re-deliver the captured stream in 7-byte slivers: every record is
  // torn across calls, including mid-length-prefix and mid-CRC.
  uint64_t total_records = 0;
  for (const CaptureTap::Item& item : capture.items_) {
    if (item.compact) {
      ASSERT_TRUE((*standby)->apply_compaction(item.generation).ok());
      continue;
    }
    for (size_t at = 0; at < item.bytes.size(); at += 7) {
      uint64_t applied = 0;
      const std::string_view piece =
          std::string_view(item.bytes).substr(at, 7);
      ASSERT_TRUE((*standby)->apply_replicated(piece, &applied).ok());
      total_records += applied;
    }
  }
  EXPECT_GT(total_records, 0u);
  EXPECT_EQ(fingerprint(standby_controller), fingerprint(reference));
  EXPECT_EQ((*standby)->generation(), (*persistence)->generation());
}

TEST_F(StreamTest, StaleGenerationTailIsRefused) {
  core::Controller standby_controller;
  auto standby =
      Persistence::open_standby(config(standby_dir_), standby_controller);
  ASSERT_TRUE(standby.ok()) << standby.error().to_string();

  // A journal stream from generation 3 against a generation-0 mirror is
  // a divergent history — exactly the stale pre-compaction tail case —
  // and must be refused, not applied.
  const std::string stale = encode_record("GEN 3");
  uint64_t applied = 7;
  Status status = (*standby)->apply_replicated(stale, &applied);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kCorruption);
  EXPECT_EQ(applied, 0u);
  // Refused before it was journaled: the journal, and so the position
  // the standby would ack, is untouched.
  EXPECT_EQ((*standby)->replication_position().offset, 0u);
  EXPECT_EQ(read_file((*standby)->journal_path()), "");

  // The matching generation is accepted.
  core::Controller standby2_controller;
  clean(standby_dir_);
  auto standby2 =
      Persistence::open_standby(config(standby_dir_), standby2_controller);
  ASSERT_TRUE(standby2.ok()) << standby2.error().to_string();
  applied = 0;
  EXPECT_TRUE(
      (*standby2)->apply_replicated(encode_record("GEN 0"), &applied).ok());
  EXPECT_EQ(applied, 1u);
}

TEST_F(StreamTest, CompactionWithBufferedTailIsRejected) {
  core::Controller standby_controller;
  auto standby =
      Persistence::open_standby(config(standby_dir_), standby_controller);
  ASSERT_TRUE(standby.ok()) << standby.error().to_string();
  // Half a record in the buffer: a COMPACT marker now would discard it.
  const std::string record = encode_record("GEN 0");
  uint64_t applied = 0;
  ASSERT_TRUE((*standby)
                  ->apply_replicated(
                      std::string_view(record).substr(0, record.size() - 2),
                      &applied)
                  .ok());
  EXPECT_EQ(applied, 0u);
  EXPECT_FALSE((*standby)->apply_compaction(1).ok());
  // Completing the record and compacting in order succeeds.
  ASSERT_TRUE((*standby)
                  ->apply_replicated(
                      std::string_view(record).substr(record.size() - 2),
                      &applied)
                  .ok());
  EXPECT_EQ(applied, 1u);
}

// Applies the REPL frames a ReplicationSource handshake produced to a
// standby persistence — what StandbyReplicator does on the wire.
void apply_frames(Persistence& standby,
                  const std::vector<net::Message>& frames) {
  std::string snapshot_accum;
  uint64_t resync_generation = 0;
  for (const net::Message& frame : frames) {
    ASSERT_EQ(frame.verb, "REPL");
    ASSERT_FALSE(frame.args.empty());
    const std::string& op = frame.args[0];
    if (op == "SNAP") {
      snapshot_accum.clear();
      ASSERT_TRUE(parse_u64(frame.args[1], &resync_generation));
    } else if (op == "SNAPC") {
      std::string chunk;
      ASSERT_TRUE(from_hex(frame.args[1], &chunk));
      snapshot_accum += chunk;
    } else if (op == "SNAPE") {
      ASSERT_TRUE(
          standby.install_snapshot(snapshot_accum, resync_generation).ok());
    } else if (op == "BATCH") {
      std::string bytes;
      ASSERT_TRUE(from_hex(frame.args[3], &bytes));
      uint64_t applied = 0;
      ASSERT_TRUE(standby.apply_replicated(bytes, &applied).ok());
    } else if (op == "COMPACT") {
      uint64_t generation = 0;
      ASSERT_TRUE(parse_u64(frame.args[1], &generation));
      ASSERT_TRUE(standby.apply_compaction(generation).ok());
    } else {
      FAIL() << "unexpected frame op " << op;
    }
  }
}

TEST_F(StreamTest, LateJoinerFullResyncsThroughHandshake) {
  core::Controller primary;
  install_clock(primary);
  auto persistence =
      Persistence::open(config(primary_dir_, /*snapshot_every=*/3), primary);
  ASSERT_TRUE(persistence.ok()) << persistence.error().to_string();
  replica::ReplicationSource source(persistence->get());
  (*persistence)->set_replication_tap(&source);

  // History runs (and compacts, repeatedly) before the standby exists.
  drive({&primary}, 1, kLastStep);
  ASSERT_TRUE((*persistence)->flush().ok());
  ASSERT_GT((*persistence)->generation(), 1u);

  // A fresh standby at (gen 0, offset 0) joins: its generation is stale
  // relative to every compaction that already ran, so the handshake
  // must discard that position and ship a full snapshot resync.
  core::Controller standby_controller;
  auto standby =
      Persistence::open_standby(config(standby_dir_), standby_controller);
  ASSERT_TRUE(standby.ok()) << standby.error().to_string();
  std::vector<net::Message> frames = source.handshake(1, "joiner", 0, 0);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.front().args[0], "SNAP");
  apply_frames(**standby, frames);

  EXPECT_EQ((*standby)->generation(), (*persistence)->generation());
  EXPECT_EQ(fingerprint(standby_controller), fingerprint(primary));

  // The attached standby now rides the live stream: more (re-appliable)
  // history flows through take_pending and keeps the mirror identical.
  clock_ += 5.0;
  apply_step(primary, 4);
  clock_ += 5.0;
  apply_step(primary, 7);
  clock_ += 5.0;
  apply_step(primary, 11);
  ASSERT_TRUE((*persistence)->flush().ok());
  apply_frames(**standby, source.take_pending(1));
  EXPECT_EQ(fingerprint(standby_controller), fingerprint(primary));
}

TEST_F(StreamTest, AckWatermarksNeverRegress) {
  core::Controller primary;
  install_clock(primary);
  auto persistence = Persistence::open(config(primary_dir_), primary);
  ASSERT_TRUE(persistence.ok()) << persistence.error().to_string();
  replica::ReplicationSource source(persistence->get());
  (*persistence)->set_replication_tap(&source);

  drive({&primary}, 1, 2);
  ASSERT_TRUE((*persistence)->flush().ok());
  const ReplicationPosition joined = (*persistence)->replication_position();
  (void)source.handshake(1, "s1", joined.generation, joined.offset);
  drive({&primary}, 3, 5);
  ASSERT_TRUE((*persistence)->flush().ok());

  const ReplicationPosition pos = (*persistence)->replication_position();
  ASSERT_GT(pos.offset, 16u);
  EXPECT_FALSE(source.acked_through(pos.generation, pos.offset));
  source.note_ack(1, pos.generation, pos.offset, 5);
  EXPECT_TRUE(source.acked_through(pos.generation, pos.offset));

  // A regressed ack (confused standby, replayed frame) is ignored: the
  // released watermark stands.
  source.note_ack(1, pos.generation, pos.offset - 16, 1);
  EXPECT_TRUE(source.acked_through(pos.generation, pos.offset));
  // Beyond the acked point is still unacked.
  EXPECT_FALSE(source.acked_through(pos.generation, pos.offset + 1));
  // With no subscribers the quorum is vacuously empty, never satisfied
  // by a stale watermark.
  source.detach(1);
  EXPECT_FALSE(source.acked_through(pos.generation, pos.offset));
  EXPECT_FALSE(source.has_subscribers());
}

// A standby has no clients, so nothing it replays may queue variable
// updates: the queue would only grow (steer's SETs are exactly this
// stream, thousands of epochs long).
TEST_F(StreamTest, StandbyQueuesNoUpdatesAcrossManySetEpochs) {
  core::Controller standby_controller;
  auto standby =
      Persistence::open_standby(config(standby_dir_), standby_controller);
  ASSERT_TRUE(standby.ok()) << standby.error().to_string();
  MirrorTap tap(standby->get());

  core::Controller primary;
  install_clock(primary);
  auto persistence = Persistence::open(config(primary_dir_), primary);
  ASSERT_TRUE(persistence.ok()) << persistence.error().to_string();
  drive({&primary}, 1, 1);
  bootstrap_mirror(**persistence, **standby);
  (*persistence)->set_replication_tap(&tap);

  std::vector<core::InstanceId> clients;
  for (int i = 0; i < 3; ++i) {
    auto id = primary.register_script(
        db_client_bundle(str_format("sp2-%02d", i), i + 1));
    ASSERT_TRUE(id.ok()) << id.error().to_string();
    clients.push_back(id.value());
  }
  for (int epoch = 0; epoch < 200; ++epoch) {
    clock_ += 1.0;
    core::OptionChoice choice;
    choice.option = epoch % 2 == 0 ? "QS" : "DS";
    ASSERT_TRUE(primary.set_option(clients[epoch % 3], "where", choice).ok());
    ASSERT_EQ(standby_controller.queued_update_count(), 0u) << epoch;
  }
  ASSERT_TRUE(tap.last_error().ok()) << tap.last_error().to_string();
  EXPECT_GE(tap.records(), 200u);
  EXPECT_GE(standby_controller.reconfigurations(), 200u);
  EXPECT_EQ(fingerprint(standby_controller), fingerprint(primary));
}

// The primary end of one replication connection, played by the test
// thread: it accepts the standby's dial, answers its HELLO through a
// real ReplicationSource handshake, ships REPL frames — BATCH frames
// re-cut into `chunk`-byte pieces when chunk > 0, so records tear
// across frames — and reads the standby's ACKs.
class PrimaryEnd {
 public:
  struct Ack {
    uint64_t generation = 0;
    uint64_t offset = 0;
    uint64_t records = 0;
  };

  PrimaryEnd(replica::ReplicationSource* source, size_t chunk)
      : source_(source), chunk_(chunk) {
    auto listener = net::listen_on(0);
    EXPECT_TRUE(listener.ok());
    if (listener.ok()) listener_ = std::move(listener.value());
  }

  uint16_t port() const {
    auto port = net::local_port(listener_);
    return port.ok() ? port.value() : 0;
  }

  // Accepts the standby, reads its HELLO and ships the handshake.
  void attach() {
    struct pollfd pfd = {listener_.get(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 10000), 1) << "standby never dialed";
    auto conn = net::accept_connection(listener_);
    ASSERT_TRUE(conn.ok()) << conn.error().to_string();
    conn_ = std::move(conn.value());
    net::Message hello;
    ASSERT_TRUE(read_message(&hello, std::chrono::seconds(10)));
    ASSERT_EQ(hello.verb, "REPL");
    ASSERT_EQ(hello.args.size(), 4u);
    ASSERT_EQ(hello.args[0], "HELLO");
    uint64_t generation = 0, offset = 0;
    ASSERT_TRUE(parse_u64(hello.args[1], &generation));
    ASSERT_TRUE(parse_u64(hello.args[2], &offset));
    ASSERT_NO_FATAL_FAILURE(
        send(source_->handshake(1, hello.args[3], generation, offset)));
  }

  // Ships everything the source queued since the last call.
  void ship() { ASSERT_NO_FATAL_FAILURE(send(source_->take_pending(1))); }

  // Ships frames as given (a hand-built BATCH, say). In chunked mode the
  // last piece (and anything after it) is held back for a few of the
  // standby's ack intervals, so its ACKs are checked while a record is
  // torn.
  void send(const std::vector<net::Message>& frames) {
    std::string wire;
    size_t held_from = 0;  // start of the last BATCH piece in `wire`
    for (const net::Message& frame : frames) {
      ASSERT_EQ(frame.verb, "REPL");
      const std::string& op = frame.args.at(0);
      if (op == "SNAP" || op == "COMPACT") {
        ASSERT_TRUE(parse_u64(frame.args.at(1), &sent_generation_));
      }
      if (op != "BATCH" || chunk_ == 0) {
        wire += net::encode_frame(frame.encode());
        continue;
      }
      uint64_t offset = 0;
      std::string bytes;
      ASSERT_TRUE(parse_u64(frame.args.at(1), &sent_generation_));
      ASSERT_TRUE(parse_u64(frame.args.at(2), &offset));
      ASSERT_TRUE(from_hex(frame.args.at(3), &bytes));
      for (size_t at = 0; at < bytes.size(); at += chunk_) {
        const std::string_view piece =
            std::string_view(bytes).substr(at, chunk_);
        net::Message cut{"REPL",
                         {"BATCH", frame.args[1], std::to_string(offset + at),
                          to_hex(piece)}};
        held_from = wire.size();
        wire += net::encode_frame(cut.encode());
      }
    }
    if (held_from > 0) {
      ASSERT_TRUE(net::write_all(conn_, wire.substr(0, held_from)).ok());
      ASSERT_NO_FATAL_FAILURE(drain_acks());
      wire.erase(0, held_from);
    }
    if (!wire.empty()) {
      ASSERT_TRUE(net::write_all(conn_, wire).ok());
    }
  }

  // Standby journal whose size bounds every ACK (see check_ack).
  void watch_journal(const std::string& path) { standby_journal_ = path; }

  // Reads ACKs until one covers (generation, offset).
  Ack wait_ack(uint64_t generation, uint64_t offset) {
    for (;;) {
      Ack ack;
      read_ack(&ack, std::chrono::seconds(10));
      if (::testing::Test::HasFailure()) return {};
      if (ack.generation > generation ||
          (ack.generation == generation && ack.offset >= offset)) {
        return ack;
      }
    }
  }

  int checked_acks() const { return checked_acks_; }

 private:
  // Reads (and checks) the ACKs that arrive within a few of the
  // standby's idle ack intervals.
  void drain_acks() {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(25);
    while (std::chrono::steady_clock::now() < until) {
      Ack ack;
      if (!read_ack(&ack, until - std::chrono::steady_clock::now())) return;
    }
  }

  // Reads one ACK, or returns false when `wait` passes without a frame.
  // While no later generation has been shipped, the standby's journal
  // file must hold every byte an ACK claims: it journals, then acks.
  bool read_ack(Ack* ack, std::chrono::steady_clock::duration wait) {
    net::Message message;
    if (!read_message(&message, wait)) return false;
    if (message.verb != "REPL" || message.args.size() != 4 ||
        message.args[0] != "ACK") {
      ADD_FAILURE() << "unexpected frame " << message.encode();
      return false;
    }
    EXPECT_TRUE(parse_u64(message.args[1], &ack->generation));
    EXPECT_TRUE(parse_u64(message.args[2], &ack->offset));
    EXPECT_TRUE(parse_u64(message.args[3], &ack->records));
    if (!standby_journal_.empty() && ack->generation == sent_generation_) {
      std::error_code ec;
      const uint64_t journaled =
          std::filesystem::file_size(standby_journal_, ec);
      EXPECT_FALSE(ec) << ec.message();
      EXPECT_LE(ack->offset, journaled)
          << "acked past the standby's journal at gen " << ack->generation;
      ++checked_acks_;
    }
    return true;
  }

  // Reads one frame; false (and a test failure unless `wait` is short of
  // the 10 s bound) when none arrives in time.
  bool read_message(net::Message* out,
                    std::chrono::steady_clock::duration wait) {
    const auto deadline = std::chrono::steady_clock::now() + wait;
    for (;;) {
      auto frame = inbound_.next_frame();
      if (!frame.ok()) {
        ADD_FAILURE() << frame.error().to_string();
        return false;
      }
      if (frame.value().has_value()) {
        auto decoded = net::Message::decode(**frame);
        if (!decoded.ok()) {
          ADD_FAILURE() << decoded.error().to_string();
          return false;
        }
        *out = std::move(decoded.value());
        return true;
      }
      const auto left = deadline - std::chrono::steady_clock::now();
      if (left <= std::chrono::steady_clock::duration::zero()) {
        EXPECT_LT(wait, std::chrono::seconds(10))
            << "no frame from the standby";
        return false;
      }
      const int left_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(left).count());
      struct pollfd pfd = {conn_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, std::max(1, left_ms)) != 1) continue;
      char buffer[4096];
      const ssize_t got = ::read(conn_.get(), buffer, sizeof(buffer));
      if (got <= 0) {
        ADD_FAILURE() << "standby closed the replication connection";
        return false;
      }
      inbound_.feed(std::string_view(buffer, static_cast<size_t>(got)));
    }
  }

  replica::ReplicationSource* source_;
  size_t chunk_;
  net::Fd listener_;
  net::Fd conn_;
  net::FrameBuffer inbound_;
  std::string standby_journal_;
  uint64_t sent_generation_ = 0;
  int checked_acks_ = 0;
};

replica::StandbyConfig replicator_config(uint16_t port) {
  replica::StandbyConfig config;
  config.peers = {{"127.0.0.1", port}};
  config.node_id = "mirror";
  config.ack_interval_ms = 5;
  config.poll_interval_ms = 5;
  return config;
}

// Streams the scripted history to a live StandbyReplicator one step at a
// time, waits for the ACK that covers each step, and stops the
// replicator the moment the ACK for `stop_after` arrives: the standby
// acks before it applies, so only the stop's ordering guarantees the
// acked records are in its controller.
void stream_and_stop(const PersistConfig& primary_config,
                     const PersistConfig& standby_config, size_t chunk,
                     int stop_after, double* clock) {
  core::Controller primary;
  primary.set_time_source([clock] { return *clock; });
  auto persistence = Persistence::open(primary_config, primary);
  ASSERT_TRUE(persistence.ok()) << persistence.error().to_string();
  replica::ReplicationSource source(persistence->get());
  (*persistence)->set_replication_tap(&source);
  *clock += 5.0;
  apply_step(primary, 1);
  ASSERT_TRUE((*persistence)->flush().ok());

  core::Controller standby_controller;
  auto standby = Persistence::open_standby(standby_config, standby_controller);
  ASSERT_TRUE(standby.ok()) << standby.error().to_string();

  PrimaryEnd link(&source, chunk);
  link.watch_journal((*standby)->journal_path());
  replica::StandbyReplicator replicator(replicator_config(link.port()),
                                        standby->get());
  replicator.start();
  ASSERT_NO_FATAL_FAILURE(link.attach());

  std::string expected;
  uint64_t last_records = 0;
  for (int s = 2; s <= stop_after; ++s) {
    *clock += 5.0;
    apply_step(primary, s);
    ASSERT_NO_FATAL_FAILURE(link.ship());
    const ReplicationPosition pos = (*persistence)->replication_position();
    const PrimaryEnd::Ack ack = link.wait_ack(pos.generation, pos.offset);
    ASSERT_FALSE(::testing::Test::HasFailure());
    // The ACK's third field counts journaled records and never falls.
    EXPECT_GE(ack.records, last_records);
    last_records = ack.records;
    expected = fingerprint(primary);
  }
  replicator.stop();
  EXPECT_GT(link.checked_acks(), 0);
  EXPECT_EQ(fingerprint(standby_controller), expected);
  EXPECT_EQ((*standby)->generation(), (*persistence)->generation());
  EXPECT_TRUE((*standby)->io_status().ok());
}

TEST_F(StreamTest, ReplicatorAcksJournaledBytesAndStopsApplied) {
  ASSERT_NO_FATAL_FAILURE(stream_and_stop(config(primary_dir_),
                                          config(standby_dir_), 0, kLastStep,
                                          &clock_));
}

TEST_F(StreamTest, ReplicatorStopsAppliedMidStreamWithTornChunks) {
  ASSERT_NO_FATAL_FAILURE(stream_and_stop(config(primary_dir_),
                                          config(standby_dir_), 7, 8,
                                          &clock_));
}

TEST_F(StreamTest, ReplicatorStopsAppliedAcrossCompactions) {
  ASSERT_NO_FATAL_FAILURE(stream_and_stop(
      config(primary_dir_, /*snapshot_every=*/3), config(standby_dir_),
      0, kLastStep, &clock_));
}

TEST_F(StreamTest, ReplicatorStopsAppliedAcrossCompactionsWithTornChunks) {
  ASSERT_NO_FATAL_FAILURE(stream_and_stop(
      config(primary_dir_, /*snapshot_every=*/3), config(standby_dir_),
      13, 11, &clock_));
}

// A record that verifies (CRC, generation) is journaled and acked before
// it is applied. If it then fails to apply — here a steering record for
// an instance that never existed — the mirror lacks history its ACK
// promised: it must wedge, and promotion must refuse with that error.
TEST_F(StreamTest, AckedRecordThatFailsToApplyWedgesPromotion) {
  core::Controller primary;
  install_clock(primary);
  auto persistence = Persistence::open(config(primary_dir_), primary);
  ASSERT_TRUE(persistence.ok()) << persistence.error().to_string();
  replica::ReplicationSource source(persistence->get());
  (*persistence)->set_replication_tap(&source);
  drive({&primary}, 1, 3);
  ASSERT_TRUE((*persistence)->flush().ok());

  core::Controller standby_controller;
  auto standby =
      Persistence::open_standby(config(standby_dir_), standby_controller);
  ASSERT_TRUE(standby.ok()) << standby.error().to_string();

  PrimaryEnd link(&source, 0);
  link.watch_journal((*standby)->journal_path());
  replica::StandbyReplicator replicator(replicator_config(link.port()),
                                        standby->get());
  replicator.start();
  ASSERT_NO_FATAL_FAILURE(link.attach());
  const ReplicationPosition pos = (*persistence)->replication_position();
  ASSERT_NO_FATAL_FAILURE(link.wait_ack(pos.generation, pos.offset));

  const std::string bad =
      encode_record(rsl::list_build({"EV", "OPT", "20", "999", "where",
                                     rsl::list_build({"QS", "1", ""})}));
  ASSERT_NO_FATAL_FAILURE(link.send(
      {net::Message{"REPL",
                    {"BATCH", std::to_string(pos.generation),
                     std::to_string(pos.offset), to_hex(bad)}}}));
  const PrimaryEnd::Ack ack =
      link.wait_ack(pos.generation, pos.offset + bad.size());
  EXPECT_EQ(ack.offset, pos.offset + bad.size()) << "the record was acked";

  // The apply step follows the ACK; wait for it to wedge the mirror.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((*standby)->io_status().ok() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  replicator.stop();
  const Status wedged = (*standby)->io_status();
  ASSERT_FALSE(wedged.ok());
  EXPECT_EQ(wedged.error().code, ErrorCode::kNotFound);
  // Everything before the bad record was applied; the record itself
  // changed nothing.
  EXPECT_EQ(fingerprint(standby_controller), fingerprint(primary));

  // Nothing more is journaled, and promotion refuses with the same error.
  uint64_t journaled = 7;
  EXPECT_FALSE((*standby)->journal_replicated(bad, &journaled).ok());
  EXPECT_EQ(journaled, 0u);
  const Status promoted = (*standby)->promote();
  ASSERT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.error().code, wedged.error().code);
  EXPECT_EQ(promoted.error().message, wedged.error().message);
  EXPECT_TRUE((*standby)->standby()) << "a refused promotion changes nothing";
}

}  // namespace
}  // namespace harmony::persist
