#include "persist/persistence.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/assert.h"
#include "common/strings.h"
#include "persist/crc32c.h"
#include "rsl/value.h"

namespace harmony::persist {

namespace {

constexpr char kJournalFile[] = "journal.wal";
constexpr char kSnapshotFile[] = "snapshot.hsn";
constexpr char kSnapshotTmpFile[] = "snapshot.tmp";
constexpr int kSnapshotVersion = 1;
// Record framing header: [u32 length][u32 crc32c], matching journal.cc.
constexpr size_t kRecordHeaderBytes = 8;
// Minimum wall-clock spacing between group-commit fsyncs.
constexpr std::chrono::milliseconds kFsyncMinInterval{20};

uint32_t read_u32(const char* data) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  return (static_cast<uint32_t>(bytes[0]) << 24) |
         (static_cast<uint32_t>(bytes[1]) << 16) |
         (static_cast<uint32_t>(bytes[2]) << 8) | static_cast<uint32_t>(bytes[3]);
}

using rsl::list_build;
using rsl::list_parse;

Error errno_error(const char* what, const std::string& path) {
  return Error{ErrorCode::kIo, str_format("%s %s: %s", what, path.c_str(),
                                          std::strerror(errno))};
}

Error corrupt(const std::string& detail) {
  return Error{ErrorCode::kCorruption, detail};
}

std::string format_u64(uint64_t value) {
  return str_format("%llu", static_cast<unsigned long long>(value));
}

bool parse_u64(const std::string& text, uint64_t* out) {
  long long value = 0;
  if (!parse_int64(text, &value) || value < 0) return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

// OptionChoice <-> {option grant {{name value} ...}}
std::string encode_choice(const core::OptionChoice& choice) {
  std::vector<std::string> vars;
  for (const auto& [name, value] : choice.variables) {
    vars.push_back(list_build({name, format_number(value)}));
  }
  return list_build(
      {choice.option, format_number(choice.memory_grant), list_build(vars)});
}

Result<core::OptionChoice> decode_choice(const std::string& text) {
  auto fields = list_parse(text);
  if (!fields.ok() || fields->size() != 3) {
    return Err<core::OptionChoice>(ErrorCode::kCorruption,
                                   "bad choice record: " + text);
  }
  core::OptionChoice choice;
  choice.option = (*fields)[0];
  if (!parse_double((*fields)[1], &choice.memory_grant)) {
    return Err<core::OptionChoice>(ErrorCode::kCorruption,
                                   "bad memory grant: " + (*fields)[1]);
  }
  auto vars = list_parse((*fields)[2]);
  if (!vars.ok()) {
    return Err<core::OptionChoice>(ErrorCode::kCorruption,
                                   "bad choice variables: " + (*fields)[2]);
  }
  for (const auto& entry : *vars) {
    auto pair = list_parse(entry);
    double value = 0;
    if (!pair.ok() || pair->size() != 2 || !parse_double((*pair)[1], &value)) {
      return Err<core::OptionChoice>(ErrorCode::kCorruption,
                                     "bad choice variable: " + entry);
    }
    choice.variables[(*pair)[0]] = value;
  }
  return choice;
}

Status mkdir_if_missing(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::Ok();
  return errno_error("mkdir", dir);
}

Status fsync_path(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno_error("open", path);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return errno_error("fsync", path);
  return Status::Ok();
}

}  // namespace

Persistence::Persistence(PersistConfig config, core::Controller& controller)
    : config_(std::move(config)), controller_(&controller) {}

Persistence::~Persistence() {
  if (sync_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(sync_mutex_);
      sync_stop_ = true;
    }
    sync_cv_.notify_one();
    sync_thread_.join();
  }
  if (controller_ != nullptr) {
    controller_->set_event_sink(nullptr);
    if (standby_) {
      // open_standby installed a time source that reads replay_time_
      // through `this`; leave a by-value pin behind instead.
      const double last_time = replay_time_;
      controller_->set_time_source([last_time] { return last_time; });
    }
  }
  // Best effort: push any buffered records out before closing.
  (void)journal_.commit(/*sync=*/false);
}

void Persistence::sync_loop() {
  std::unique_lock<std::mutex> lock(sync_mutex_);
  for (;;) {
    sync_cv_.wait(lock, [this] { return sync_requested_ || sync_stop_; });
    if (sync_stop_) return;
    sync_requested_ = false;
    // fsync outside the lock: a slow disk must not block the epoch
    // commits that merely set the request flag.
    lock.unlock();
    Status status;
    {
      metric::ScopedSpan span("journal.fsync");
      const uint64_t start_us = metric::telemetry_now_us();
      status = journal_.sync();
      fsync_us_->record(metric::telemetry_now_us() - start_us);
    }
    lock.lock();
    if (!status.ok() && sync_error_.ok()) sync_error_ = status;
  }
}

std::string Persistence::journal_path() const {
  return config_.dir + "/" + kJournalFile;
}

std::string Persistence::snapshot_path() const {
  return config_.dir + "/" + kSnapshotFile;
}

Result<std::unique_ptr<Persistence>> Persistence::open(
    PersistConfig config, core::Controller& controller) {
  Status dir_status = mkdir_if_missing(config.dir);
  if (!dir_status.ok()) return dir_status.error();

  std::unique_ptr<Persistence> persistence(
      new Persistence(std::move(config), controller));
  Status recovered = persistence->recover();
  if (!recovered.ok()) return recovered.error();

  auto journal = Journal::open(persistence->journal_path());
  if (!journal.ok()) return journal.error();
  persistence->journal_ = std::move(journal).value();

  controller.set_event_sink(persistence.get());
  if (persistence->recovery_.recovered) {
    // Verification pass (journaled like any other event): with every
    // restored bundle marked never-evaluated this is a full optimizer
    // sweep, and on intact state it must be decision-free — the
    // recovered configuration is already the optimum the pre-crash
    // controller committed.
    Status verify = controller.reevaluate();
    if (!verify.ok()) return verify.error();
  }
  if (persistence->config_.fsync_every_epochs > 0) {
    persistence->sync_thread_ =
        std::thread(&Persistence::sync_loop, persistence.get());
  }
  return persistence;
}

Result<std::unique_ptr<Persistence>> Persistence::open_standby(
    PersistConfig config, core::Controller& controller) {
  Status dir_status = mkdir_if_missing(config.dir);
  if (!dir_status.ok()) return dir_status.error();

  std::unique_ptr<Persistence> persistence(
      new Persistence(std::move(config), controller));
  persistence->standby_ = true;
  Status recovered = persistence->recover();
  if (!recovered.ok()) return recovered.error();

  auto journal = Journal::open(persistence->journal_path());
  if (!journal.ok()) return journal.error();
  persistence->journal_ = std::move(journal).value();

  // No event sink, no verification pass, no sync thread: the replicated
  // stream is the only writer until promote(). Track the replayed event
  // times live (recover() left a by-value pin) so the mirrored decisions
  // see the same clock the primary's did.
  controller.set_time_source(
      [p = persistence.get()] { return p->replay_time_; });
  return persistence;
}

// --- event capture ----------------------------------------------------------

std::string Persistence::encode_event(const core::ControllerEvent& event) const {
  using Kind = core::ControllerEvent::Kind;
  const std::string time = format_number(event.time);
  switch (event.kind) {
    case Kind::kRegister:
      return list_build({"EV", "REG", time, format_u64(event.instance),
                         event.text});
    case Kind::kDepart:
      return list_build({"EV", "DEP", time, format_u64(event.instance)});
    case Kind::kExternalLoad:
      return list_build({"EV", "LOAD", time, event.text,
                         format_number(event.value)});
    case Kind::kNodeOnline:
      return list_build({"EV", "NODE", time, event.text,
                         event.value != 0 ? "1" : "0"});
    case Kind::kSetOption:
      return list_build({"EV", "OPT", time, format_u64(event.instance),
                         event.text, encode_choice(event.choice)});
    case Kind::kResize:
      return list_build({"EV", "RSZ", time, format_u64(event.instance),
                         event.text, format_number(event.value)});
    case Kind::kReevaluate:
      return list_build({"EV", "REEVAL", time});
  }
  HARMONY_ASSERT_MSG(false, "unhandled event kind");
  return {};
}

void Persistence::append_journal(const std::string& payload) {
  // Journal appends are only ordered because the controller thread is
  // the only appender: with the sharded network front end, decoded
  // messages cross the mailbox first, so journaling order equals the
  // mailbox drain order. Enforce that here — an append from an I/O
  // shard (or any other thread) would silently interleave records.
  HARMONY_ASSERT_MSG(controller_->on_owner_thread(),
                     "journal append off the controller thread");
  // Wedged: nothing buffered from here on could ever be committed.
  if (!last_error_.ok()) return;
  // Every journal opens with the generation of the snapshot it extends;
  // recovery uses it to discard a journal that predates the snapshot on
  // disk (a crash inside snapshot_now() between the rename and the
  // truncation leaves exactly that pair behind).
  if (!gen_stamped_) {
    journal_.append(list_build({"GEN", format_u64(generation_)}));
    gen_stamped_ = true;
  }
  journal_.append(payload);
}

void Persistence::on_controller_event(const core::ControllerEvent& event) {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  append_journal(encode_event(event));
}

void Persistence::on_epoch_commit() {
  HARMONY_ASSERT_MSG(controller_->on_owner_thread(),
                     "epoch commit off the controller thread");
  std::lock_guard<std::mutex> lock(journal_mutex_);
  commit_epoch_locked();
}

void Persistence::on_domain_event(uint32_t domain, uint64_t dseq,
                                  const core::ControllerEvent& event) {
  // Mid-run compaction would snapshot the scratch controller, which
  // never hosts the instances the domains decided about.
  HARMONY_ASSERT_MSG(config_.snapshot_every_epochs == 0,
                     "partitioned journaling requires baseline-only "
                     "snapshots (snapshot_every_epochs = 0)");
  std::lock_guard<std::mutex> lock(journal_mutex_);
  if (!have_snapshot_) {
    // The baseline must land before the first domain record: the
    // single-controller path can let the first epoch commit snapshot
    // instead of keeping the journal (the snapshot contains that
    // epoch's effect), but the scratch controller never sees the
    // instances, so truncating here would lose the record for good.
    last_error_ = snapshot_now();
    if (!last_error_.ok()) return;
  }
  append_journal(list_build({"EVD", format_u64(domain), format_u64(dseq),
                             encode_event(event)}));
}

void Persistence::on_domain_epoch_commit(uint32_t /*domain*/) {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  commit_epoch_locked();
}

void Persistence::commit_epoch_locked() {
  if (!last_error_.ok()) return;  // wedged: stop touching the disk
  ++epochs_since_snapshot_;
  const bool compact =
      !have_snapshot_ ||
      (config_.snapshot_every_epochs > 0 &&
       epochs_since_snapshot_ >= config_.snapshot_every_epochs &&
       journal_live_bytes_ + journal_.pending_bytes() >=
           config_.snapshot_min_journal_bytes);
  if (compact) {
    last_error_ = snapshot_now();
    return;
  }
  ++epochs_since_sync_;
  if (config_.fsync_every_epochs == 0) {
    metric::ScopedSpan span("journal.append");
    last_error_ = commit_pending_locked(/*sync=*/true);
    epochs_since_sync_ = 0;
    return;
  }
  bool sync = epochs_since_sync_ >= config_.fsync_every_epochs;
  if (sync) {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_sync_time_ < kFsyncMinInterval) {
      sync = false;  // inside the rate-limit window; retry next epoch
    } else {
      last_sync_time_ = now;
    }
  }
  {
    metric::ScopedSpan span("journal.append");
    last_error_ = commit_pending_locked(/*sync=*/false);
  }
  if (sync) epochs_since_sync_ = 0;
  // Hand the due fsync to the sync thread and surface any error it hit
  // on an earlier one; the write above is the only disk wait this path
  // ever takes.
  {
    std::lock_guard<std::mutex> lock(sync_mutex_);
    if (!sync_error_.ok() && last_error_.ok()) last_error_ = sync_error_;
    if (sync) sync_requested_ = true;
  }
  if (sync) sync_cv_.notify_one();
}

Status Persistence::commit_pending_locked(bool sync) {
  const uint64_t pending_bytes = journal_.pending_bytes();
  const uint64_t start_offset = journal_live_bytes_;
  // Capture the framed bytes before commit() clears them; the streamed
  // bytes must equal the file bytes exactly so a standby's journal is a
  // byte-for-byte mirror.
  std::string streamed;
  if (tap_ != nullptr && pending_bytes > 0) streamed = journal_.pending();
  Status status = journal_.commit(sync);
  if (!status.ok()) return status;
  if (pending_bytes > 0) {
    journal_live_bytes_ += pending_bytes;
    journal_bytes_total_->add(pending_bytes);
    if (tap_ != nullptr) {
      tap_->on_journal_commit(generation_, start_offset, streamed);
    }
  }
  return status;
}

void Persistence::record_session(const std::string& token,
                                 std::vector<core::InstanceId> instances) {
  std::vector<std::string> ids;
  for (core::InstanceId id : instances) ids.push_back(format_u64(id));
  {
    std::lock_guard<std::mutex> lock(journal_mutex_);
    append_journal(list_build({"SESSION", token, list_build(ids)}));
  }
  if (instances.empty()) {
    sessions_.erase(token);
  } else {
    sessions_[token] = std::move(instances);
  }
}

void Persistence::drop_session(const std::string& token) {
  record_session(token, {});
}

Status Persistence::flush() {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  // Cluster setup does not pass through epochs, so a controller that
  // has only been configured (nodes added, nothing registered) has no
  // baseline snapshot yet; "make everything durable" includes it.
  if (!have_snapshot_) {
    Status status = snapshot_now();
    if (!status.ok() && last_error_.ok()) last_error_ = status;
    return status;
  }
  Status status = commit_pending_locked(/*sync=*/true);
  if (!status.ok() && last_error_.ok()) last_error_ = status;
  epochs_since_sync_ = 0;
  return status;
}

// --- snapshot ----------------------------------------------------------------

Status Persistence::write_snapshot_file(const std::string& data) {
  const std::string tmp = config_.dir + "/" + kSnapshotTmpFile;
  int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return errno_error("open snapshot", tmp);
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      Error error = errno_error("write snapshot", tmp);
      ::close(fd);
      return error;
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Error error = errno_error("fsync snapshot", tmp);
    ::close(fd);
    return error;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), snapshot_path().c_str()) != 0) {
    return errno_error("rename snapshot", tmp);
  }
  return fsync_path(config_.dir);
}

Status Persistence::snapshot_now() {
  // A streaming standby must receive every record that precedes the
  // compaction marker: the journal reset below drops buffered records,
  // so push them down the stream (and into the file) first.
  if (tap_ != nullptr && journal_.pending_bytes() > 0) {
    Status committed = commit_pending_locked(/*sync=*/false);
    if (!committed.ok()) return committed;
  }
  metric::ScopedSpan span("snapshot.write");
  const uint64_t start_us = metric::telemetry_now_us();
  const core::SystemState& state = controller_->state();
  std::string data;
  uint64_t count = 0;
  auto emit = [&](const std::string& payload) {
    data.append(encode_record(payload));
    ++count;
  };

  const uint64_t next_generation = generation_ + 1;
  emit(list_build({"SNAP", str_format("%d", kSnapshotVersion),
                   format_u64(next_generation),
                   format_u64(controller_->next_instance_id()),
                   format_u64(controller_->reconfigurations()),
                   format_number(controller_->now())}));

  for (const auto& node : state.topology().nodes()) {
    emit(list_build({"NODE", node.hostname, format_number(node.speed),
                     format_number(node.memory_mb), node.os}));
  }
  for (const auto& link : state.topology().links()) {
    emit(list_build({"LINK", state.topology().node(link.a).hostname,
                     state.topology().node(link.b).hostname,
                     format_number(link.bandwidth_mbps),
                     format_number(link.latency_ms)}));
  }
  if (state.pool != nullptr) {
    for (const auto& node : state.topology().nodes()) {
      if (!state.pool->is_online(node.id)) {
        emit(list_build({"OFFLINE", node.hostname}));
      }
      if (int load = state.pool->external_load(node.id); load != 0) {
        emit(list_build({"XLOAD", node.hostname, str_format("%d", load)}));
      }
    }
  }

  for (const auto& instance : state.instances) {
    emit(list_build({"INST", format_u64(instance.id),
                     format_number(instance.arrival_time), instance.script}));
    for (const auto& bundle : instance.bundles) {
      std::vector<std::string> entries;
      for (const auto& entry : bundle.allocation.entries) {
        entries.push_back(list_build(
            {entry.requirement.role, str_format("%d", entry.requirement.index),
             entry.requirement.hostname_glob, entry.requirement.os,
             format_number(entry.requirement.memory_mb),
             state.topology().node(entry.node).hostname}));
      }
      emit(list_build({"BST", format_u64(instance.id), bundle.spec.bundle,
                       bundle.configured ? "1" : "0",
                       format_number(bundle.last_switch_time),
                       encode_choice(bundle.choice), list_build(entries)}));
    }
  }

  for (const auto& [token, ids] : sessions_) {
    std::vector<std::string> id_strings;
    for (core::InstanceId id : ids) id_strings.push_back(format_u64(id));
    emit(list_build({"SESS", token, list_build(id_strings)}));
  }

  // Completeness marker: a snapshot that does not end with a matching
  // END record is rejected at load time.
  data.append(encode_record(list_build({"END", format_u64(count)})));

  Status written = write_snapshot_file(data);
  if (!written.ok()) return written;

  // The journal's content is now redundant. If the process dies before
  // the truncation lands, the next recovery sees the old GEN record and
  // discards the journal as stale rather than replaying it.
  if (journal_.is_open()) {
    Status reset = journal_.reset();
    if (!reset.ok()) return reset;
  }
  generation_ = next_generation;
  gen_stamped_ = false;
  have_snapshot_ = true;
  epochs_since_snapshot_ = 0;
  epochs_since_sync_ = 0;
  journal_live_bytes_ = 0;
  last_sync_time_ = std::chrono::steady_clock::now();
  snapshots_total_->increment();
  snapshot_us_->record(metric::telemetry_now_us() - start_us);
  // Standbys that are caught up mirror the compaction locally (their
  // replayed state is equivalent by determinism); ones that are behind
  // fall back to a full resync when their generation no longer matches.
  if (tap_ != nullptr) tap_->on_compaction(generation_);
  return Status::Ok();
}

// --- recovery ----------------------------------------------------------------

Status Persistence::recover() {
  struct ::stat snapshot_stat {};
  const bool have_snapshot_file =
      ::stat(snapshot_path().c_str(), &snapshot_stat) == 0;
  struct ::stat journal_stat {};
  const bool have_journal_file =
      ::stat(journal_path().c_str(), &journal_stat) == 0 &&
      journal_stat.st_size > 0;
  have_snapshot_ = have_snapshot_file;
  if (!have_snapshot_file && !have_journal_file) return Status::Ok();

  HARMONY_ASSERT_MSG(
      controller_->live_instances() == 0 && !controller_->cluster_finalized(),
      "recovery requires a fresh controller");
  // The journal cannot exist without the snapshot that preceded it (the
  // baseline snapshot is written at the first epoch commit, before the
  // journal ever keeps records across a restart). A journal with no
  // snapshot means the snapshot was deleted externally.
  if (!have_snapshot_file) {
    return corrupt("journal present but snapshot missing: " + snapshot_path());
  }

  // Pin controller time to the recorded timeline. Left installed after
  // recovery (holding the last recorded time) so granularity gating
  // keeps working; callers may reinstall a forward-running source.
  controller_->set_time_source([this] { return replay_time_; });

  Status loaded = load_snapshot();
  if (!loaded.ok()) return loaded;

  bool gen_checked = false;
  bool journal_stale = false;
  auto replayed = Journal::replay(
      journal_path(),
      [this, &gen_checked, &journal_stale](const std::string& payload) {
        auto fields = list_parse(payload);
        if (!fields.ok() || fields->empty()) {
          return Status(corrupt("unparseable journal record: " + payload));
        }
        if (!gen_checked) {
          // The first record of every journal names the snapshot
          // generation it extends.
          if ((*fields)[0] != "GEN" || fields->size() != 2) {
            return Status(
                corrupt("journal missing its GEN header: " + payload));
          }
          uint64_t generation = 0;
          if (!parse_u64((*fields)[1], &generation) ||
              generation > generation_) {
            return Status(corrupt(str_format(
                "journal generation %s does not match snapshot generation "
                "%llu",
                (*fields)[1].c_str(),
                static_cast<unsigned long long>(generation_))));
          }
          gen_checked = true;
          if (generation < generation_) {
            // Compaction crashed between the snapshot rename and the
            // journal truncation: this journal predates the snapshot and
            // its content is already part of it. Stop replaying; the
            // caller discards the file. The error code is a sentinel —
            // it never escapes recover().
            journal_stale = true;
            return Status(
                Error{ErrorCode::kCorruption, "stale pre-snapshot journal"});
          }
          return Status::Ok();
        }
        if ((*fields)[0] == "SESSION") return apply_session_record(*fields);
        if ((*fields)[0] == "EV") return replay_event(*fields);
        if ((*fields)[0] == "EVD") return apply_evd_record(payload, *fields);
        return Status(corrupt("unknown journal record: " + payload));
      },
      /*repair=*/true);
  if (!replayed.ok()) {
    if (!journal_stale) {
      return Status(replayed.error().code, replayed.error().message);
    }
    // No event of the stale journal was applied: the GEN check fires on
    // its first record. Empty the file so appends restart cleanly.
    if (::truncate(journal_path().c_str(), 0) != 0) {
      return errno_error("truncate", journal_path());
    }
    recovery_.journal_discarded_stale = true;
    recovery_.recovered = true;
    journal_live_bytes_ = 0;
    gen_stamped_ = false;
  } else {
    recovery_.recovered = true;
    recovery_.journal_records = replayed->records;
    recovery_.journal_truncated = replayed->truncated;
    journal_live_bytes_ = replayed->valid_bytes;
    // A non-empty journal already carries its GEN header.
    gen_stamped_ = replayed->records > 0;
  }
  // Swap the replay-scratch time source for one that holds the final
  // recorded time by value, so it stays valid if this object dies
  // before the controller.
  const double recovered_time = replay_time_;
  controller_->set_time_source([recovered_time] { return recovered_time; });
  return Status::Ok();
}

Status Persistence::replay_event(const std::vector<std::string>& fields) {
  if (fields.size() < 3) return corrupt("short event record");
  const std::string& verb = fields[1];
  double time = 0;
  if (!parse_double(fields[2], &time)) {
    return corrupt("bad event time: " + fields[2]);
  }
  replay_time_ = time;

  if (verb == "REG") {
    if (fields.size() != 5) return corrupt("bad REG record");
    uint64_t expected_id = 0;
    if (!parse_u64(fields[3], &expected_id)) {
      return corrupt("bad REG instance id: " + fields[3]);
    }
    auto id = controller_->register_script(fields[4]);
    if (!id.ok()) {
      return Status(id.error().code,
                    "replaying registration: " + id.error().message);
    }
    if (id.value() != expected_id) {
      // Determinism is the whole contract; a diverging id means the
      // snapshot and journal disagree about history.
      return corrupt(str_format("replayed registration got id %llu, journal "
                                "recorded %llu",
                                static_cast<unsigned long long>(id.value()),
                                static_cast<unsigned long long>(expected_id)));
    }
    return Status::Ok();
  }
  if (verb == "DEP") {
    if (fields.size() != 4) return corrupt("bad DEP record");
    uint64_t id = 0;
    if (!parse_u64(fields[3], &id)) {
      return corrupt("bad DEP instance id: " + fields[3]);
    }
    return controller_->unregister(id);
  }
  if (verb == "LOAD") {
    if (fields.size() != 5) return corrupt("bad LOAD record");
    double tasks = 0;
    if (!parse_double(fields[4], &tasks)) {
      return corrupt("bad LOAD value: " + fields[4]);
    }
    return controller_->report_external_load(fields[3],
                                             static_cast<int>(tasks));
  }
  if (verb == "NODE") {
    if (fields.size() != 5) return corrupt("bad NODE record");
    return controller_->set_node_online(fields[3], fields[4] == "1");
  }
  if (verb == "OPT") {
    if (fields.size() != 6) return corrupt("bad OPT record");
    uint64_t id = 0;
    if (!parse_u64(fields[3], &id)) {
      return corrupt("bad OPT instance id: " + fields[3]);
    }
    auto choice = decode_choice(fields[5]);
    if (!choice.ok()) return Status(choice.error().code, choice.error().message);
    return controller_->set_option(id, fields[4], choice.value());
  }
  if (verb == "RSZ") {
    if (fields.size() != 6) return corrupt("bad RSZ record");
    uint64_t id = 0;
    if (!parse_u64(fields[3], &id)) {
      return corrupt("bad RSZ instance id: " + fields[3]);
    }
    double workers = 0;
    if (!parse_double(fields[5], &workers)) {
      return corrupt("bad RSZ degree: " + fields[5]);
    }
    return controller_->resize(id, fields[4], workers);
  }
  if (verb == "REEVAL") {
    return controller_->reevaluate();
  }
  return corrupt("unknown event verb: " + verb);
}

Status Persistence::apply_session_record(const std::vector<std::string>& fields) {
  if (fields.size() != 3) {
    return corrupt("bad session record: " + list_build(fields));
  }
  auto ids = list_parse(fields[2]);
  if (!ids.ok()) return corrupt("bad session ids: " + fields[2]);
  std::vector<core::InstanceId> instances;
  for (const auto& id_text : *ids) {
    uint64_t id = 0;
    if (!parse_u64(id_text, &id)) {
      return corrupt("bad session instance id: " + id_text);
    }
    instances.push_back(id);
  }
  if (instances.empty()) {
    sessions_.erase(fields[1]);
  } else {
    sessions_[fields[1]] = std::move(instances);
  }
  return Status::Ok();
}

Status Persistence::apply_evd_record(const std::string& payload,
                                     const std::vector<std::string>& fields) {
  // Domain-tagged event: (domain, dseq, nested EV record). The merged
  // commit order in the file is a valid replay order for a single
  // controller — domains are disjoint — but each domain's own stream
  // must be gap-free: a missing dseq means a worker's events were lost
  // or reordered, and the replayed decisions could silently diverge.
  if (fields.size() != 4) return corrupt("bad EVD record: " + payload);
  uint64_t domain = 0, dseq = 0;
  if (!parse_u64(fields[1], &domain) || !parse_u64(fields[2], &dseq)) {
    return corrupt("bad EVD tag: " + payload);
  }
  const uint64_t expected = ++replay_dseq_[static_cast<uint32_t>(domain)];
  if (dseq != expected) {
    return corrupt(str_format(
        "domain %llu journal gap: expected seq %llu, found %llu",
        static_cast<unsigned long long>(domain),
        static_cast<unsigned long long>(expected),
        static_cast<unsigned long long>(dseq)));
  }
  auto inner = list_parse(fields[3]);
  if (!inner.ok() || inner->empty() || (*inner)[0] != "EV") {
    return corrupt("bad EVD payload: " + fields[3]);
  }
  return replay_event(*inner);
}

Status Persistence::flush_pending_instance() {
  if (!pending_instance_.active) return Status::Ok();
  Status status = controller_->restore_instance(
      pending_instance_.script, pending_instance_.id,
      pending_instance_.arrival_time, pending_instance_.bundles);
  pending_instance_ = {};
  return status;
}

Status Persistence::load_snapshot() {
  snapshot_cluster_done_ = false;
  snapshot_end_seen_ = false;
  auto replayed = Journal::replay(
      snapshot_path(),
      [this](const std::string& payload) {
        return apply_snapshot_record(payload);
      },
      /*repair=*/false);
  if (!replayed.ok()) {
    return Status(replayed.error().code, replayed.error().message);
  }
  if (!snapshot_end_seen_ ||
      replayed->records != snapshot_expected_records_ + 1 ||
      replayed->truncated) {
    return corrupt(str_format(
        "snapshot %s is incomplete (%llu records, END %s)",
        snapshot_path().c_str(),
        static_cast<unsigned long long>(replayed->records),
        snapshot_end_seen_ ? "present" : "missing"));
  }
  recovery_.snapshot_records = replayed->records;
  controller_->restore_counters(snapshot_next_id_, snapshot_reconfigs_);
  return Status::Ok();
}

Status Persistence::apply_snapshot_record(const std::string& payload) {
  auto fields_or = list_parse(payload);
  if (!fields_or.ok() || fields_or->empty()) {
    return corrupt("unparseable snapshot record: " + payload);
  }
  const std::vector<std::string>& fields = *fields_or;
  const std::string& tag = fields[0];

  // Instance bodies (BST) must directly follow their INST record; any
  // other tag closes the open instance.
  if (tag != "BST" && tag != "INST") {
    Status flushed = flush_pending_instance();
    if (!flushed.ok()) return flushed;
  }

  if (tag == "SNAP") {
    if (fields.size() != 6) return corrupt("bad SNAP header");
    long long version = 0;
    if (!parse_int64(fields[1], &version) || version != kSnapshotVersion) {
      return corrupt("unsupported snapshot version: " + fields[1]);
    }
    if (!parse_u64(fields[2], &generation_) ||
        !parse_u64(fields[3], &snapshot_next_id_) ||
        !parse_u64(fields[4], &snapshot_reconfigs_) ||
        !parse_double(fields[5], &replay_time_)) {
      return corrupt("bad SNAP header: " + payload);
    }
    return Status::Ok();
  }
  if (tag == "NODE") {
    if (fields.size() != 5) return corrupt("bad NODE record");
    rsl::NodeAd ad;
    ad.name = fields[1];
    ad.os = fields[4];
    if (!parse_double(fields[2], &ad.speed) ||
        !parse_double(fields[3], &ad.memory_mb)) {
      return corrupt("bad NODE numbers: " + payload);
    }
    return controller_->add_node(ad);
  }
  if (tag == "LINK") {
    if (fields.size() != 5) return corrupt("bad LINK record");
    double bandwidth = 0, latency = 0;
    if (!parse_double(fields[3], &bandwidth) ||
        !parse_double(fields[4], &latency)) {
      return corrupt("bad LINK numbers: " + payload);
    }
    return controller_->link_hosts(fields[1], fields[2], bandwidth, latency);
  }

  // Every record type below needs the resource pool.
  if (!snapshot_cluster_done_) {
    Status finalized = controller_->finalize_cluster();
    if (!finalized.ok()) return finalized;
    snapshot_cluster_done_ = true;
  }

  if (tag == "OFFLINE") {
    if (fields.size() != 2) return corrupt("bad OFFLINE record");
    return controller_->restore_node_online(fields[1], false);
  }
  if (tag == "XLOAD") {
    if (fields.size() != 3) return corrupt("bad XLOAD record");
    long long tasks = 0;
    if (!parse_int64(fields[2], &tasks)) {
      return corrupt("bad XLOAD count: " + fields[2]);
    }
    return controller_->restore_external_load(fields[1],
                                              static_cast<int>(tasks));
  }
  if (tag == "INST") {
    if (fields.size() != 4) return corrupt("bad INST record");
    Status flushed = flush_pending_instance();
    if (!flushed.ok()) return flushed;
    pending_instance_.active = true;
    if (!parse_u64(fields[1], &pending_instance_.id) ||
        !parse_double(fields[2], &pending_instance_.arrival_time)) {
      return corrupt("bad INST header: " + payload);
    }
    pending_instance_.script = fields[3];
    return Status::Ok();
  }
  if (tag == "BST") {
    if (fields.size() != 7) return corrupt("bad BST record");
    uint64_t id = 0;
    if (!parse_u64(fields[1], &id) || !pending_instance_.active ||
        id != pending_instance_.id) {
      return corrupt("BST record outside its instance: " + payload);
    }
    core::Controller::RestoredBundle bundle;
    bundle.bundle = fields[2];
    bundle.configured = fields[3] == "1";
    if (!parse_double(fields[4], &bundle.last_switch_time)) {
      return corrupt("bad BST switch time: " + fields[4]);
    }
    auto choice = decode_choice(fields[5]);
    if (!choice.ok()) return Status(choice.error().code, choice.error().message);
    bundle.choice = choice.value();
    auto entries = list_parse(fields[6]);
    if (!entries.ok()) return corrupt("bad BST entries: " + fields[6]);
    for (const auto& entry_text : *entries) {
      auto parts = list_parse(entry_text);
      if (!parts.ok() || parts->size() != 6) {
        return corrupt("bad BST entry: " + entry_text);
      }
      core::Controller::RestoredAllocationEntry entry;
      entry.role = (*parts)[0];
      long long index = 0;
      if (!parse_int64((*parts)[1], &index) ||
          !parse_double((*parts)[4], &entry.memory_mb)) {
        return corrupt("bad BST entry numbers: " + entry_text);
      }
      entry.index = static_cast<int>(index);
      entry.hostname_glob = (*parts)[2];
      entry.os = (*parts)[3];
      entry.hostname = (*parts)[5];
      bundle.entries.push_back(std::move(entry));
    }
    pending_instance_.bundles.push_back(std::move(bundle));
    return Status::Ok();
  }
  if (tag == "SESS") {
    if (fields.size() != 3) return corrupt("bad SESS record");
    auto ids = list_parse(fields[2]);
    if (!ids.ok()) return corrupt("bad SESS ids: " + fields[2]);
    std::vector<core::InstanceId> instances;
    for (const auto& id_text : *ids) {
      uint64_t id = 0;
      if (!parse_u64(id_text, &id)) {
        return corrupt("bad SESS instance id: " + id_text);
      }
      instances.push_back(id);
    }
    sessions_[fields[1]] = std::move(instances);
    return Status::Ok();
  }
  if (tag == "END") {
    if (fields.size() != 2 || !parse_u64(fields[1], &snapshot_expected_records_)) {
      return corrupt("bad END record: " + payload);
    }
    snapshot_end_seen_ = true;
    return Status::Ok();
  }
  return corrupt("unknown snapshot record: " + payload);
}

// --- replication -------------------------------------------------------------

void Persistence::set_replication_tap(ReplicationTap* tap) {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  tap_ = tap;
}

Status Persistence::io_status() {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  return last_error_;
}

uint64_t Persistence::generation() {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  return generation_;
}

ReplicationPosition Persistence::replication_position() {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  return ReplicationPosition{generation_, journal_live_bytes_};
}

Status Persistence::check_stream_generation(const std::string& payload) const {
  if (payload.compare(0, 3, "GEN") != 0) return Status::Ok();
  auto fields = list_parse(payload);
  if (!fields.ok() || fields->empty() || (*fields)[0] != "GEN") {
    return Status::Ok();  // not a GEN record; applying it will judge it
  }
  // The primary's journal opens with the generation it extends; a
  // mismatch means this standby's snapshot diverged from the stream
  // (it needs a full resync, which the replicator drives). Checked
  // before the record is journaled: a stale tail must never land.
  uint64_t generation = 0;
  if (fields->size() != 2 || !parse_u64((*fields)[1], &generation)) {
    return corrupt("bad replicated GEN record: " + payload);
  }
  if (generation != generation_) {
    return corrupt(str_format(
        "replicated journal opens generation %llu but standby is at %llu",
        static_cast<unsigned long long>(generation),
        static_cast<unsigned long long>(generation_)));
  }
  return Status::Ok();
}

Status Persistence::apply_stream_record(const std::string& payload) {
  auto fields_or = list_parse(payload);
  if (!fields_or.ok() || fields_or->empty()) {
    return corrupt("unparseable replicated record: " + payload);
  }
  const std::vector<std::string>& fields = *fields_or;
  const std::string& tag = fields[0];
  if (tag == "GEN") return Status::Ok();  // checked when it was journaled
  if (tag == "SESSION") return apply_session_record(fields);
  if (tag == "EV") return replay_event(fields);
  if (tag == "EVD") return apply_evd_record(payload, fields);
  return corrupt("unknown replicated record: " + payload);
}

Status Persistence::apply_replicated(std::string_view bytes,
                                     uint64_t* applied_records) {
  if (applied_records != nullptr) *applied_records = 0;
  Status journaled = journal_replicated(bytes, nullptr);
  if (!journaled.ok()) return journaled;
  return apply_journaled(applied_records);
}

Status Persistence::journal_replicated(std::string_view bytes,
                                       uint64_t* journaled_records) {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  HARMONY_ASSERT_MSG(standby_, "journal_replicated on a primary");
  if (journaled_records != nullptr) *journaled_records = 0;
  if (!last_error_.ok()) return last_error_;
  stream_buffer_.append(bytes);

  uint64_t journaled = 0;
  size_t offset = 0;
  Status status = Status::Ok();
  while (stream_buffer_.size() - offset >= kRecordHeaderBytes) {
    const uint32_t length = read_u32(stream_buffer_.data() + offset);
    const uint32_t expected_crc = read_u32(stream_buffer_.data() + offset + 4);
    if (length > kMaxRecordBytes) {
      status = corrupt(
          str_format("replicated record length %u exceeds the record bound",
                     static_cast<unsigned>(length)));
      break;
    }
    if (stream_buffer_.size() - offset - kRecordHeaderBytes < length) {
      break;  // torn tail: the rest arrives with the next batch
    }
    std::string payload =
        stream_buffer_.substr(offset + kRecordHeaderBytes, length);
    if (crc32c(payload) != expected_crc) {
      status = corrupt("replicated record failed its checksum");
      break;
    }
    status = check_stream_generation(payload);
    if (!status.ok()) break;
    // Mirror the framed bytes verbatim: the standby's journal file is
    // byte-identical to the primary's at every journaled offset, so its
    // own recovery and its stream position need no translation.
    journal_.append_raw(std::string_view(stream_buffer_)
                            .substr(offset, kRecordHeaderBytes + length));
    staged_records_.push_back(std::move(payload));
    offset += kRecordHeaderBytes + length;
    ++journaled;
    // The GEN header lands through append_raw, so the stamp that
    // append_journal would have written is already present.
    gen_stamped_ = true;
  }
  stream_buffer_.erase(0, offset);
  if (status.ok() && journaled > 0) {
    status = commit_pending_locked(/*sync=*/false);
  }
  if (!status.ok()) {
    if (last_error_.ok()) last_error_ = status;
    return status;
  }
  if (journaled_records != nullptr) *journaled_records = journaled;
  return status;
}

Status Persistence::apply_journaled(uint64_t* applied_records) {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  return apply_journaled_locked(applied_records);
}

Status Persistence::apply_journaled_locked(uint64_t* applied_records) {
  if (applied_records != nullptr) *applied_records = 0;
  if (!last_error_.ok()) return last_error_;
  uint64_t applied = 0;
  Status status = Status::Ok();
  for (const std::string& payload : staged_records_) {
    status = apply_stream_record(payload);
    if (!status.ok()) break;
    ++applied;
  }
  staged_records_.clear();
  if (applied_records != nullptr) *applied_records = applied;
  // The record is journaled (and may be acked) but this mirror cannot
  // hold it: wedge, so the gap can never be served or promoted.
  if (!status.ok()) last_error_ = status;
  return status;
}

Status Persistence::install_snapshot(const std::string& snapshot_bytes,
                                     uint64_t expected_generation) {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  HARMONY_ASSERT_MSG(standby_, "install_snapshot on a primary");
  if (controller_->live_instances() != 0 || controller_->cluster_finalized()) {
    // There is no way to unwind applied controller state; the node
    // manager rebuilds the standby (fresh controller, wiped directory)
    // when it sees this.
    return Status(Error{ErrorCode::kInvalidArgument,
                        "full resync requires a fresh controller; tear down "
                        "and rebuild the standby"});
  }
  // The snapshot replaces all prior history, including any records
  // journaled but not yet applied.
  stream_buffer_.clear();
  staged_records_.clear();
  sessions_.clear();
  replay_dseq_.clear();
  Status written = write_snapshot_file(snapshot_bytes);
  if (!written.ok()) return written;
  have_snapshot_ = true;
  Status loaded = load_snapshot();
  if (!loaded.ok()) return loaded;
  if (generation_ != expected_generation) {
    return corrupt(str_format(
        "installed snapshot carries generation %llu, primary announced %llu",
        static_cast<unsigned long long>(generation_),
        static_cast<unsigned long long>(expected_generation)));
  }
  if (journal_.is_open()) {
    Status reset = journal_.reset();
    if (!reset.ok()) return reset;
  }
  journal_live_bytes_ = 0;
  gen_stamped_ = false;
  recovery_.recovered = true;
  recovery_.snapshot_records = 0;  // resync, not a local recovery
  return Status::Ok();
}

Status Persistence::apply_compaction(uint64_t new_generation) {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  HARMONY_ASSERT_MSG(standby_, "apply_compaction on a primary");
  // The snapshot below serializes the controller, which must hold every
  // journaled record of the old generation.
  Status caught_up = apply_journaled_locked(nullptr);
  if (!caught_up.ok()) return caught_up;
  if (!stream_buffer_.empty()) {
    // The marker is sent in commit order, after every record of the old
    // generation; a buffered partial record means the stream skipped.
    return corrupt("compaction marker arrived over an incomplete record");
  }
  if (new_generation != generation_ + 1) {
    return corrupt(str_format(
        "compaction to generation %llu but standby is at %llu",
        static_cast<unsigned long long>(new_generation),
        static_cast<unsigned long long>(generation_)));
  }
  // Write our own snapshot of the mirrored state: deterministic replay
  // makes it equivalent to the primary's, and producing it locally
  // spares the stream the full state transfer.
  Status status = snapshot_now();
  if (!status.ok() && last_error_.ok()) last_error_ = status;
  return status;
}

void Persistence::reset_stream_tail() {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  stream_buffer_.clear();
}

Status Persistence::sync_replica() {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  Status status = commit_pending_locked(/*sync=*/true);
  if (!status.ok() && last_error_.ok()) last_error_ = status;
  return status;
}

Status Persistence::promote() {
  {
    std::lock_guard<std::mutex> lock(journal_mutex_);
    HARMONY_ASSERT_MSG(standby_, "promote on a node that is already primary");
    // Every journaled record may have been acked, so every one must be
    // in the controller before it serves. A wedged mirror (a record it
    // journaled but could not apply, or an I/O error) is missing history
    // the old primary's clients saw acknowledged: refuse.
    Status caught_up = apply_journaled_locked(nullptr);
    if (!caught_up.ok()) return caught_up;
    // A torn buffered tail never finished committing on the dead
    // primary — no client was acked past it — so the new history
    // legitimately ends at the last complete record.
    stream_buffer_.clear();
    standby_ = false;
    // Swap the live replay clock for a by-value pin at the last
    // replicated time; the server installs its own source afterwards.
    const double last_time = replay_time_;
    controller_->set_time_source([last_time] { return last_time; });
  }
  // Outside the journal mutex: the verification pass journals its own
  // events through the sink callbacks, which re-enter the commit path.
  controller_->set_event_sink(this);
  if (have_snapshot_) {
    Status verify = controller_->reevaluate();
    if (!verify.ok()) return verify;
  }
  if (config_.fsync_every_epochs > 0 && !sync_thread_.joinable()) {
    sync_thread_ = std::thread(&Persistence::sync_loop, this);
  }
  return flush();
}

}  // namespace harmony::persist
