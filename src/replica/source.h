// Primary-side replication source: the bridge between the persistence
// layer's journal tap and the wire. It watches every committed journal
// byte (persist::ReplicationTap) and queues it, per subscribed standby,
// as {REPL BATCH} frames the server ships on its next drain cycle
// (net::ReplicationFeed); compactions become {REPL COMPACT} markers.
//
// A standby attaches with {REPL HELLO <gen> <offset> <id>}. When its
// position extends the current generation's journal, the backlog
// between its offset and the primary's committed offset is read straight
// from the journal file and streamed; anything else (stale generation,
// offset past ours — a divergent or future history) gets a full resync:
// the snapshot file as {REPL SNAP}/{REPL SNAPC}/{REPL SNAPE}, then the
// journal from byte zero.
//
// Threading: in the HA arrangement every entry point runs on the
// controller thread — the tap fires under the journal mutex from epoch
// commits this thread executes, and the feed methods are called from
// the server's dispatch loop. The internal mutex still guards all state
// so the invariants hold if a future embedding calls from elsewhere.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "metric/telemetry.h"
#include "net/server.h"
#include "persist/persistence.h"

namespace harmony::replica {

class ReplicationSource final : public persist::ReplicationTap,
                                public net::ReplicationFeed {
 public:
  explicit ReplicationSource(persist::Persistence* persistence);

  // --- persist::ReplicationTap (fires under the journal mutex) ------------
  void on_journal_commit(uint64_t generation, uint64_t start_offset,
                         std::string_view bytes) override;
  void on_compaction(uint64_t new_generation) override;

  // --- net::ReplicationFeed (controller thread) ---------------------------
  std::vector<net::Message> handshake(uint64_t conn,
                                      const std::string& standby_id,
                                      uint64_t generation,
                                      uint64_t offset) override;
  void note_ack(uint64_t conn, uint64_t generation, uint64_t offset,
                uint64_t records) override;
  void detach(uint64_t conn) override;
  std::vector<net::Message> take_pending(uint64_t conn) override;
  bool acked_through(uint64_t generation, uint64_t offset) override;
  bool has_subscribers() override;

  size_t subscriber_count();

 private:
  struct Event {
    enum class Kind { kBatch, kCompact };
    Kind kind = Kind::kBatch;
    uint64_t generation = 0;
    uint64_t offset = 0;   // kBatch
    std::string bytes;     // kBatch: framed journal records
  };
  struct Subscriber {
    std::string standby_id;
    std::deque<Event> queue;
    size_t queued_bytes = 0;
    // Records shipped to this standby since its HELLO (batch frames
    // only — the snapshot of a full resync doesn't count). The standby
    // acks the records it journaled, so the difference is its lag in
    // records.
    uint64_t streamed_records = 0;
    // Last position the standby acked as written to its own journal (it
    // journals, acks, then applies; its promotion applies any remainder).
    uint64_t acked_generation = 0;
    uint64_t acked_offset = 0;
    uint64_t acked_records = 0;
    // Mid-handshake: the backlog is being read from the files while tap
    // events queue; excluded from semi-sync quorum until complete.
    bool syncing = false;
    // Dropped for overflowing the queue; ignored until it re-HELLOs.
    bool overflowed = false;
  };

  void refresh_lag_locked();

  persist::Persistence* persistence_;
  std::mutex mutex_;
  std::map<uint64_t, Subscriber> subscribers_;
  // Stream position of the newest committed byte, mirrored from the tap
  // so lag math never re-locks the persistence layer.
  uint64_t head_generation_ = 0;
  uint64_t head_offset_ = 0;

  metric::Gauge* lag_records_ = &metric::telemetry_gauge("replica.lag_records");
  metric::Gauge* lag_bytes_ = &metric::telemetry_gauge("replica.lag_bytes");
  metric::Gauge* subscribers_gauge_ =
      &metric::telemetry_gauge("replica.subscribers");
  metric::Counter* batches_total_ =
      &metric::telemetry_counter("replica.batches_streamed_total");
  metric::Counter* resyncs_total_ =
      &metric::telemetry_counter("replica.full_resyncs_total");
};

}  // namespace harmony::replica
