// Durability for the adaptation controller: an event-sourced journal of
// controller inputs plus periodic snapshots of the full system state.
//
// Model. Every input that can change a decision (registration text,
// departures, external-load reports, node online flips, steering,
// periodic re-evaluations) flows through core::EventSink and is appended
// to a write-ahead journal, one write(2) per controller epoch. Because
// the optimizer is deterministic and the only hidden input — time — is
// recorded per event, replaying the journal into a controller restored
// from the last snapshot reproduces the pre-crash decision sequence
// bit-for-bit (persist_recovery_test asserts this with the differential
// fingerprint harness).
//
// Compaction. Every `snapshot_every_epochs` commits the full state
// (topology, pool occupancy, instances with their choices and
// placements, client sessions) is serialized to a fresh snapshot file —
// written to a temp path, fsynced, renamed — and the journal is
// truncated. Snapshots carry a generation counter in their SNAP header
// and every journal opens with a GEN record naming the generation it
// extends, so a crash between the rename and the truncation (new
// snapshot, stale journal) is recognized at recovery and the stale
// journal is discarded instead of replayed. The first commit after a
// cold start writes the baseline snapshot, which is what captures the
// cluster definition.
//
// Durability window. Journal bytes are written every epoch (they survive
// a crash of the server process immediately) and fsynced by a background
// group-commit thread every `fsync_every_epochs` epochs — the decision
// path pays one buffered write(2) and never waits on disk latency, the
// classic WAL-writer arrangement. Only an OS or power failure can lose
// the unsynced tail, and recovery handles a torn tail by truncating at
// the last valid record — never by refusing to start.
#pragma once

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/controller.h"
#include "core/domain.h"
#include "metric/telemetry.h"
#include "persist/journal.h"

namespace harmony::persist {

struct PersistConfig {
  // Directory for journal + snapshot; created if missing.
  std::string dir;
  // Epochs between snapshot compactions; 0 = baseline snapshot only.
  uint64_t snapshot_every_epochs = 64;
  // A due compaction is deferred while the journal holds fewer bytes
  // than this: the snapshot write plus its two fsyncs dwarf the replay
  // cost of a small journal. 0 compacts on the epoch count alone.
  uint64_t snapshot_min_journal_bytes = 64 * 1024;
  // Epochs between group-commit fsyncs, handed to the background sync
  // thread so the decision path never blocks on them, and spaced at
  // least 20 ms apart to bound the disk traffic of epoch bursts (a due
  // sync inside that window is retried on the next commit); 0 =
  // synchronous fsync on every epoch commit (maximum durability, pays
  // disk latency per decision, no background thread, no spacing).
  uint64_t fsync_every_epochs = 32;
};

struct RecoveryReport {
  bool recovered = false;        // prior snapshot and/or journal existed
  uint64_t snapshot_records = 0;
  uint64_t journal_records = 0;
  bool journal_truncated = false;  // a torn/corrupt tail was cut off
  // The journal predated the snapshot (crash during compaction between
  // the snapshot rename and the journal truncation) and was discarded:
  // everything in it is contained in the snapshot that replaced it.
  bool journal_discarded_stale = false;
};

// A resumable client session: the instances a connection registered,
// keyed by the server-issued token. Journaled and snapshotted alongside
// controller state so clients can RESUME across a server restart.
using SessionMap = std::map<std::string, std::vector<core::InstanceId>>;

// Observer of the durable journal byte stream, the feed a replication
// source forwards to warm standbys. on_journal_commit fires under the
// journal mutex immediately after a successful commit with exactly the
// bytes that landed in the file (framed records, so a standby can
// append them to its own journal verbatim); on_compaction fires after a
// snapshot truncated the journal and bumped the generation. Callers are
// the thread that commits — in a server, the one driving the decision
// core (controller or router). Implementations must never call back
// into Persistence.
class ReplicationTap {
 public:
  virtual ~ReplicationTap() = default;
  virtual void on_journal_commit(uint64_t generation, uint64_t start_offset,
                                 std::string_view bytes) = 0;
  virtual void on_compaction(uint64_t new_generation) = 0;
};

// A point in the replicated journal stream: byte offset within the
// journal file of `generation`. Offsets restart at 0 each compaction.
struct ReplicationPosition {
  uint64_t generation = 0;
  uint64_t offset = 0;
};

// Partitioned (DomainRouter) operation: the router's scratch controller
// never hosts instances — it carries the cluster definition for the
// baseline snapshot — and events arrive domain-tagged on the router's
// thread through the core::DomainJournal interface. Per-domain sequence
// numbers are validated gap-free at recovery; the file itself keeps the
// merged commit order, which is a valid replay order for the single
// recovery controller because domains are disjoint and the objective
// separable (core_domain_test holds the proof obligation). Partitioned
// journaling requires snapshot_every_epochs == 0: mid-run compaction
// would serialize the scratch controller, which never sees the
// instances.
class Persistence final : public core::EventSink, public core::DomainJournal {
 public:
  // Opens the persistence directory. When prior state exists the
  // controller — which must be fresh: no cluster, no instances — is
  // rebuilt from the snapshot plus the journal tail, the journal tail
  // is repaired (torn records truncated), one verification
  // re-evaluation pass runs, and the controller's time source is left
  // pinned at the last recorded event time (install a live source
  // afterwards if desired; it must not run backwards). Attaches as the
  // controller's event sink either way.
  static Result<std::unique_ptr<Persistence>> open(PersistConfig config,
                                                   core::Controller& controller);
  // Standby (replica) mode: recovers local state exactly like open(),
  // but attaches no event sink, runs no verification pass, and starts
  // no sync thread — the controller is advanced only by the replicated
  // stream (journal_replicated + apply_journaled, install_snapshot,
  // apply_compaction) until promote() turns this node into a primary.
  static Result<std::unique_ptr<Persistence>> open_standby(
      PersistConfig config, core::Controller& controller);
  ~Persistence() override;

  Persistence(const Persistence&) = delete;
  Persistence& operator=(const Persistence&) = delete;

  const RecoveryReport& recovery() const { return recovery_; }

  // --- core::EventSink ----------------------------------------------------
  void on_controller_event(const core::ControllerEvent& event) override;
  void on_epoch_commit() override;

  // --- core::DomainJournal (router thread) ---------------------------------
  void on_domain_event(uint32_t domain, uint64_t dseq,
                       const core::ControllerEvent& event) override;
  void on_domain_epoch_commit(uint32_t domain) override;

  // --- sessions -----------------------------------------------------------
  // Registers/replaces a session's instance list; an empty list drops
  // the session. Journaled with the enclosing epoch.
  void record_session(const std::string& token,
                      std::vector<core::InstanceId> instances);
  void drop_session(const std::string& token);
  const SessionMap& sessions() const { return sessions_; }

  // --- maintenance --------------------------------------------------------
  // Serializes current state to the snapshot file (atomic rename) and
  // truncates the journal.
  Status snapshot_now();
  // Commits and fsyncs any buffered journal records immediately.
  Status flush();
  // First I/O error encountered on the commit path, sticky: after it
  // nothing more is appended or written. The sink callbacks cannot
  // report errors, so the server polls this. Thread-safe.
  Status io_status();

  const Journal& journal() const { return journal_; }
  std::string journal_path() const;
  std::string snapshot_path() const;

  // --- replication (primary side) -----------------------------------------
  // Attaches the journal-stream observer. Set before traffic flows (it
  // is read under the journal mutex but installation itself is not
  // synchronized against in-flight commits).
  void set_replication_tap(ReplicationTap* tap);
  // Current durable stream position: (generation, committed bytes of
  // that generation's journal). Thread-safe.
  ReplicationPosition replication_position();
  // Thread-safe: a standby's replicator thread installs snapshots while
  // its node publishes status.
  uint64_t generation();

  // --- replication (standby side) -----------------------------------------
  bool standby() const { return standby_; }
  // Streamed journal bytes reach the mirror in two steps, so a standby
  // can ack once the bytes are on its disk and apply them afterwards:
  //
  // journal_replicated verifies every complete framed record (length
  // bound, CRC, and a GEN record's generation against this mirror's),
  // appends it verbatim to the local journal, commits (write(2), no
  // fsync) and stages it for apply_journaled; a torn tail stays
  // buffered until a later call completes it. `journaled_records` (may
  // be null) returns the records journaled by this call. A record that
  // fails verification is not journaled and wedges the mirror.
  Status journal_replicated(std::string_view bytes,
                            uint64_t* journaled_records);
  // apply_journaled applies the staged records to the controller through
  // the recovery path, in stream order. A record that fails to apply was
  // already journaled, and perhaps acked: the failure is sticky
  // (io_status), nothing more is journaled, and promote() refuses.
  // `applied_records` (may be null) returns the records applied.
  Status apply_journaled(uint64_t* applied_records);
  // Both steps: journal_replicated, then apply_journaled.
  Status apply_replicated(std::string_view bytes, uint64_t* applied_records);
  // apply_compaction and promote first apply any records still staged,
  // so they never act on a controller that lags its own journal;
  // install_snapshot drops them with the history it replaces.
  //
  // Full resync: installs the primary's snapshot file bytes (atomic
  // tmp/fsync/rename) and loads them into the controller, which must
  // still be fresh — a standby with diverged local state must be torn
  // down and rebuilt instead.
  Status install_snapshot(const std::string& snapshot_bytes,
                          uint64_t expected_generation);
  // The primary compacted: write our own snapshot of the mirrored state
  // (deterministic replay makes it equivalent), truncate the journal,
  // and advance to `new_generation`. The stream must be exactly caught
  // up (no buffered tail) — the marker arrives in commit order.
  Status apply_compaction(uint64_t new_generation);
  // Drops any buffered torn stream tail. A reconnecting standby
  // re-requests the stream from its committed offset, so the bytes of a
  // partial record buffered from the dead connection will arrive again
  // — keeping them would corrupt reassembly.
  void reset_stream_tail();
  // Durability point for the standby's mirror (commit + fsync).
  Status sync_replica();
  // Turns the standby into a primary: attaches as the controller's
  // event sink, runs the journaled verification pass, starts the group
  // commit thread, and flushes. Any torn stream tail is discarded — the
  // dead primary never durably shipped that record. Refuses with the
  // sticky error, changing nothing, when the mirror is wedged.
  Status promote();

 private:
  Persistence(PersistConfig config, core::Controller& controller);

  Status recover();
  Status load_snapshot();
  Status apply_snapshot_record(const std::string& payload);
  Status replay_event(const std::vector<std::string>& fields);
  // Shared journal-record appliers, used by recovery replay and by the
  // standby stream path (which sees the same record grammar).
  Status apply_session_record(const std::vector<std::string>& fields);
  Status apply_evd_record(const std::string& payload,
                          const std::vector<std::string>& fields);
  Status apply_stream_record(const std::string& payload);
  // The GEN check of journal_replicated; other records pass.
  Status check_stream_generation(const std::string& payload) const;
  // Body of apply_journaled; callers hold journal_mutex_.
  Status apply_journaled_locked(uint64_t* applied_records);
  std::string encode_event(const core::ControllerEvent& event) const;
  // Appends to the journal, stamping the GEN header record first when
  // the journal is (logically) empty.
  void append_journal(const std::string& payload);
  // Body of on_epoch_commit; callers hold journal_mutex_.
  void commit_epoch_locked();
  // Commits buffered records, advances the live-byte watermark, and
  // feeds the replication tap the committed bytes. Callers hold
  // journal_mutex_.
  Status commit_pending_locked(bool sync);
  // Atomic snapshot-file write: tmp + fsync + rename + directory fsync.
  Status write_snapshot_file(const std::string& data);

  PersistConfig config_;
  core::Controller* controller_;
  // Serializes every append/commit entry point and the readers of the
  // journal state (generation, replication_position, io_status), which
  // other threads call — a standby's replicator thread applies streamed
  // bytes while the node's own thread reads them.
  std::mutex journal_mutex_;
  Journal journal_;
  SessionMap sessions_;
  RecoveryReport recovery_;
  Status last_error_;
  bool have_snapshot_ = false;
  // Generation of the snapshot on disk (0 = none yet). Each snapshot
  // carries its generation in the SNAP header, and each journal opens
  // with a GEN record naming the generation it extends, so recovery can
  // tell a live journal tail from a stale pre-compaction leftover.
  uint64_t generation_ = 0;
  // Whether the current journal already carries its GEN header record.
  bool gen_stamped_ = false;
  uint64_t epochs_since_snapshot_ = 0;
  uint64_t epochs_since_sync_ = 0;
  // Bytes committed to the journal since the last compaction (the live
  // portion a recovery would replay).
  uint64_t journal_live_bytes_ = 0;
  std::chrono::steady_clock::time_point last_sync_time_{};
  // Standby mode: no event sink, no sync thread; the controller is
  // driven by the replicated stream until promote().
  bool standby_ = false;
  // Streamed bytes not yet forming a complete framed record (a batch
  // may end mid-record; the remainder arrives with the next batch).
  std::string stream_buffer_;
  // Payloads journal_replicated wrote but apply_journaled has not yet
  // applied, in stream order.
  std::vector<std::string> staged_records_;
  // Primary-side journal-stream observer; read under journal_mutex_.
  ReplicationTap* tap_ = nullptr;

  // Thread-safe instruments (process-global, resolved once): journal
  // volume on the commit path, fsync latency on the sync thread,
  // snapshot cost on the compaction path.
  metric::Counter* journal_bytes_total_ =
      &metric::telemetry_counter("persist.journal_bytes_total");
  metric::Counter* snapshots_total_ =
      &metric::telemetry_counter("persist.snapshots_total");
  metric::Histogram* fsync_us_ =
      &metric::telemetry_histogram("persist.fsync_us");
  metric::Histogram* snapshot_us_ =
      &metric::telemetry_histogram("persist.snapshot_us");

  // --- background group commit --------------------------------------------
  // Runs the due fsyncs so the epoch-commit (decision) path only ever
  // pays the buffered write(2). Not started when fsync_every_epochs is
  // 0 (synchronous syncs). The thread touches nothing but
  // Journal::sync() — which is safe against the appender — and the
  // three fields guarded by sync_mutex_.
  void sync_loop();
  std::thread sync_thread_;
  std::mutex sync_mutex_;
  std::condition_variable sync_cv_;
  bool sync_requested_ = false;   // guarded by sync_mutex_
  bool sync_stop_ = false;        // guarded by sync_mutex_
  Status sync_error_;             // guarded by sync_mutex_

  // --- recovery scratch ---------------------------------------------------
  double replay_time_ = 0;  // pinned controller now() during replay
  // Snapshot records arrive flat; instance restores are buffered until
  // all BST records of the instance have been seen.
  struct PendingInstance {
    bool active = false;
    core::InstanceId id = 0;
    double arrival_time = 0;
    std::string script;
    std::vector<core::Controller::RestoredBundle> bundles;
  };
  PendingInstance pending_instance_;
  Status flush_pending_instance();
  // Last replayed sequence number per domain stream; every EVD record
  // must extend its stream by exactly one.
  std::map<uint32_t, uint64_t> replay_dseq_;
  bool snapshot_cluster_done_ = false;  // finalize barrier during load
  uint64_t snapshot_expected_records_ = 0;
  bool snapshot_end_seen_ = false;
  core::InstanceId snapshot_next_id_ = 1;
  uint64_t snapshot_reconfigs_ = 0;
};

}  // namespace harmony::persist
