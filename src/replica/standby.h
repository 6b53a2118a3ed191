// Standby-side replication client: a background thread that dials the
// primary, attaches to its journal stream with {REPL HELLO}, and feeds
// every received frame into the local Persistence mirror —
// journal_replicated for BATCH frames, install_snapshot for the
// SNAP/SNAPC/SNAPE full-resync sequence, apply_compaction for COMPACT
// markers — acking its journaled watermark back so the primary's
// semi-sync replies can release. Each read of the socket is handled as
// verify, journal, ACK, then apply (apply_journaled): the primary waits
// for the journal write, never for the standby's decision replay.
//
// The thread owns the connection and is the only writer to the
// controller while the node is a standby (the standby's own server
// never touches it). Promotion stops this thread first, then calls
// Persistence::promote().
//
// A connection loss reconnects with bounded backoff, rotating through
// the configured peers and re-HELLOing from the committed position
// (any torn stream tail is dropped; those bytes are re-sent). A
// divergence the mirror cannot absorb in place — install_snapshot
// against a non-fresh controller — raises needs_reset(): the HA node
// must tear this standby down and rebuild it from scratch.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "metric/telemetry.h"
#include "net/tcp_transport.h"
#include "persist/persistence.h"

namespace harmony::replica {

struct StandbyConfig {
  // Client-port endpoints of the peers that may be primary; tried in
  // order, rotating on failure.
  std::vector<net::Endpoint> peers;
  // This node's name in HELLO (diagnostics on the primary).
  std::string node_id = "standby";
  // Idle ack cadence; journaled batches are acked immediately regardless.
  int ack_interval_ms = 50;
  // Reconnect backoff: doubles from initial to max per failed attempt.
  int initial_backoff_ms = 50;
  int max_backoff_ms = 1000;
  // Per-poll wait; bounds both frame latency and stop() latency.
  int poll_interval_ms = 50;
};

class StandbyReplicator {
 public:
  StandbyReplicator(StandbyConfig config, persist::Persistence* persistence);
  ~StandbyReplicator();

  StandbyReplicator(const StandbyReplicator&) = delete;
  StandbyReplicator& operator=(const StandbyReplicator&) = delete;

  void start();
  // Signals the thread and joins it. Latency is bounded by
  // poll_interval_ms (or one backoff sleep slice).
  void stop();

  bool running() const { return thread_.joinable(); }
  bool connected() const { return connected_.load(std::memory_order_relaxed); }
  // The mirror diverged beyond in-place repair; rebuild the standby.
  bool needs_reset() const {
    return needs_reset_.load(std::memory_order_relaxed);
  }
  // Records applied to the controller since start(). The ACK's third
  // field counts journaled records instead, which run ahead of these by
  // at most the batch being applied.
  uint64_t records_applied() const {
    return records_applied_.load(std::memory_order_relaxed);
  }
  uint64_t resyncs() const { return resyncs_.load(std::memory_order_relaxed); }

 private:
  void run();
  // One connection lifetime: dial, HELLO, stream until error/stop.
  Status session(const net::Endpoint& peer);
  Status send_ack(const net::Fd& fd);

  StandbyConfig config_;
  persist::Persistence* persistence_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> connected_{false};
  std::atomic<bool> needs_reset_{false};
  std::atomic<uint64_t> records_journaled_{0};
  std::atomic<uint64_t> records_applied_{0};
  std::atomic<uint64_t> resyncs_{0};

  metric::Counter* reconnects_total_ =
      &metric::telemetry_counter("replica.standby_reconnects_total");
  metric::Counter* bytes_applied_total_ =
      &metric::telemetry_counter("replica.standby_bytes_applied_total");
};

}  // namespace harmony::replica
