// The HA node manager: one of these per process wires the whole
// replication stack together and runs the role state machine.
//
//   start ──► lease acquired? ──► PRIMARY: Persistence::open + server
//                 │                 + ReplicationSource (tap + feed)
//                 └─► no ──────► STANDBY: Persistence::open_standby +
//                                   refusing server + StandbyReplicator
//
//   poll (the owner thread's heartbeat):
//     PRIMARY   a dedicated thread renews the lease every
//               lease_renew_ms (heartbeats must not queue behind a
//               long drain batch); when a renewal finds a higher term
//               another node promoted past us — poll notices the flag
//               and stops serving immediately (fencing; stale state
//               must never answer again), then serves one server tick.
//     STANDBY   watch the lease file; once it expires, become a
//               CANDIDATE: bump the term via try_acquire, stop the
//               replicator, Persistence::promote(), re-park the
//               mirrored sessions, attach a fresh ReplicationSource,
//               flip the server to accepting — clients RESUME against
//               us and the deposed primary's standbys re-attach here.
//               A replicator flagging needs_reset() instead tears the
//               mirror down (wipe + rebuild from the stream).
//
// Single-threaded by design: the thread calling poll() is the
// controller thread (it drives server->run_once), so every promotion
// step happens between server ticks with no connection in flight.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/controller.h"
#include "net/server.h"
#include "net/tcp_transport.h"
#include "persist/persistence.h"
#include "replica/lease.h"
#include "replica/source.h"
#include "replica/standby.h"

namespace harmony::replica {

struct HaNodeConfig {
  // Persistence directory for this node's journal + snapshots.
  std::string data_dir;
  // Lease file shared by all candidate processes.
  std::string lease_path;
  // Client-facing listen port (0 = ephemeral; the bound port is kept
  // across standby rebuilds).
  uint16_t port = 0;
  // Client endpoints of the other nodes (where a standby finds the
  // primary, and what a standby names in its not_primary hint).
  std::vector<net::Endpoint> peers;
  std::string node_id = "node";
  // host:port clients should be told to aim at while we are primary;
  // empty = 127.0.0.1:<bound port>.
  std::string advertise;
  int64_t lease_ttl_ms = 1500;
  int64_t lease_renew_ms = 500;
  // Fresh-start hook: defines the cluster on a primary whose directory
  // held no prior state (standbys receive the definition through the
  // snapshot stream instead). Must be deterministic across nodes.
  std::function<Status(core::Controller&)> bootstrap;
  // Optional controller time source, installed while (and only while)
  // this node is primary; standbys follow the replicated event times.
  std::function<double()> time_source;
  net::ServerConfig server;
  persist::PersistConfig persist;  // `dir` is overridden with data_dir
  StandbyConfig standby;           // `peers`/`node_id` overridden
};

class HaNode {
 public:
  enum class Role { kStandby, kCandidate, kPrimary };

  explicit HaNode(HaNodeConfig config);
  ~HaNode();

  HaNode(const HaNode&) = delete;
  HaNode& operator=(const HaNode&) = delete;

  Status start();
  // One supervision step: role upkeep (lease renew / expiry watch /
  // promotion) then one server tick. Returns true on progress.
  bool poll(int timeout_ms);
  // poll() until stop() is called (from any thread).
  void run(int timeout_ms = 50);
  void stop();

  Role role() const { return role_; }
  static const char* role_name(Role role);
  uint64_t term() const { return term_; }
  uint16_t port() const { return port_; }
  bool deposed() const { return deposed_; }
  core::Controller* controller() { return controller_.get(); }
  persist::Persistence* persistence() { return persistence_.get(); }
  net::HarmonyTcpServer* server() { return server_.get(); }
  StandbyReplicator* replicator() { return replicator_.get(); }

 private:
  Status start_primary(uint64_t lease_term);
  Status start_standby();
  Status promote_self(uint64_t lease_term);
  // Lease heartbeats for a primary run on their own thread: renewal
  // latency must never sit behind serving latency, or one long drain
  // batch (a register storm, a heavy reevaluation) blows the TTL and a
  // standby promotes over a live primary. The thread only touches the
  // lease file (flock'd per call) and renew_deposed_; the fencing
  // reaction stays on the poll thread.
  void start_renewal();
  void stop_renewal();
  // needs_reset(): drop every layer and re-mirror from an empty dir.
  Status rebuild_standby();
  void teardown();
  void publish_status();
  std::string advertise_address() const;
  std::string standby_hint() const;

  HaNodeConfig config_;
  LeaseFile lease_;
  Role role_ = Role::kStandby;
  uint64_t term_ = 0;
  uint16_t port_ = 0;
  bool deposed_ = false;
  int64_t last_lease_check_ms_ = 0;
  std::atomic<bool> stopping_{false};

  std::thread renew_thread_;
  std::mutex renew_mutex_;
  std::condition_variable renew_cv_;
  bool renew_stop_ = false;  // guarded by renew_mutex_
  std::atomic<bool> renew_deposed_{false};

  // Declaration order is teardown order in reverse: the replicator dies
  // first (it writes through persistence), then the server (it reads
  // controller + persistence), then the source, then persistence, then
  // the controller.
  std::unique_ptr<core::Controller> controller_;
  std::unique_ptr<persist::Persistence> persistence_;
  std::unique_ptr<ReplicationSource> source_;
  std::unique_ptr<net::HarmonyTcpServer> server_;
  std::unique_ptr<StandbyReplicator> replicator_;

  metric::Counter* failovers_total_ =
      &metric::telemetry_counter("replica.failovers_total");
};

}  // namespace harmony::replica
