// The Harmony process of §5: "a server that listens on a well-known
// port and waits for connections from application processes." Every
// connected application gets its variable updates pushed as UPDATE
// frames. A disconnect implies harmony_end for every instance the
// connection registered — unless the client opted into session
// resumption (protocol v2), in which case its instances are parked for
// a grace period and a RESUME with the server-issued token reattaches
// them, surviving both client reconnects and (with persistence
// attached) full server restarts.
//
// I/O runs on a sharded epoll front end (src/net/event_loop.h): N
// threads own the sockets and do framing/parse/partial-write work,
// forwarding decoded messages to the controller thread through one
// bounded mailbox. The controller thread — whoever calls run() /
// run_once() — remains the only writer of core state, so every
// decision-identity, journaling, and resumption invariant of the
// single-threaded design holds: journal order is mailbox drain order.
// Variable updates from either decision core land in one id-keyed
// queue that the controller thread pumps into per-recipient egress;
// the frames one drain cycle produces for a connection are coalesced
// and shipped as a single writev batch.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/domain.h"
#include "metric/telemetry.h"
#include "net/event_loop.h"
#include "net/framing.h"
#include "net/mailbox.h"
#include "net/protocol.h"
#include "net/tcp.h"
#include "persist/persistence.h"

namespace harmony::net {

struct ServerConfig {
  // Number of I/O shard threads; values below 1 pick
  // min(4, hardware_concurrency).
  int io_shards = -1;
  // Slow-consumer cutoff: a connection whose outbound backlog exceeds
  // this many bytes is disconnected instead of buffering unboundedly —
  // v2 sessions park (and can RESUME), v1 registrations depart.
  size_t outbound_high_water = 8u << 20;
  int listen_backlog = 256;
  // SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Tests
  // shrink it so the high-water mark is reachable deterministically.
  int sndbuf_bytes = 0;
};

// Server-side half of the replication wire protocol, implemented by
// replica::ReplicationSource (the net layer cannot depend on replica/).
// All methods are called on the controller thread; implementations are
// internally synchronized against the journal tap, which fires on
// whatever thread commits.
class ReplicationFeed {
 public:
  virtual ~ReplicationFeed() = default;
  // {REPL HELLO <gen> <offset> <id>} arrived on `conn`: register the
  // standby and return the frames that bring it in sync — a snapshot
  // transfer when it is too far behind, else the journal backlog.
  virtual std::vector<Message> handshake(uint64_t conn,
                                         const std::string& standby_id,
                                         uint64_t generation,
                                         uint64_t offset) = 0;
  // {REPL ACK <gen> <offset> <records>} from the standby on `conn`.
  virtual void note_ack(uint64_t conn, uint64_t generation, uint64_t offset,
                        uint64_t records) = 0;
  // The subscriber's connection died.
  virtual void detach(uint64_t conn) = 0;
  // Frames queued for `conn` since the last take (journal batches and
  // compaction markers pushed by the tap).
  virtual std::vector<Message> take_pending(uint64_t conn) = 0;
  // True when every live subscriber has acked through (gen, offset);
  // vacuously true with no subscribers. Gates deferred-reply release.
  virtual bool acked_through(uint64_t generation, uint64_t offset) = 0;
  virtual bool has_subscribers() = 0;
};

class HarmonyTcpServer {
 public:
  // port 0 = pick an ephemeral port (tests).
  HarmonyTcpServer(core::Controller* controller, uint16_t port,
                   ServerConfig config = {});
  // Routed mode: decision operations go to the partitioned decision
  // core instead of a single controller — REGISTER/LOAD/END run against
  // the owning domain's controller, on this server's controller thread.
  // The router is published for the {DOMAINS} wire verb and the
  // harmonyDomains console command for the server's lifetime. Variable
  // updates join the same queue a controller core feeds.
  HarmonyTcpServer(core::DomainRouter* router, uint16_t port,
                   ServerConfig config = {});
  ~HarmonyTcpServer();

  // Attaches the durability layer: client sessions are journaled with
  // controller state, and sessions recovered from disk become parked
  // (resumable) immediately. Call before start(); pass nullptr to run
  // without persistence.
  void set_persistence(persist::Persistence* persistence);
  // How long a resumable session survives its connection (default 30s).
  // Atomic so tests can shorten it while the serve loop runs.
  void set_session_grace_ms(int grace_ms) { session_grace_ms_ = grace_ms; }

  // Attaches the replication source: {REPL ...} messages are accepted,
  // journal batches are pushed to subscribed standbys each drain cycle,
  // and mutating-verb replies turn semi-synchronous: with at least one
  // standby subscribed, the OK is withheld until a standby acks the
  // journal position covering it, or for at most one second (the
  // primary never blocks on a dead standby; durability degrades to
  // local-only, like a lone primary).
  void set_replication_feed(ReplicationFeed* feed) { feed_ = feed; }
  // Standby mode: the serve loop never binds the controller (the
  // replication applier owns it) and decision verbs answer ERR
  // not_primary. Flip to false at promotion, after set_persistence
  // reparked the mirrored sessions.
  void set_standby(bool standby) { standby_ = standby; }
  bool standby() const { return standby_; }

  Result<uint16_t> start();  // bind + listen + spawn I/O shards
  uint16_t port() const { return port_; }

  // Runs one controller iteration: drains the mailbox, dispatches every
  // decoded message and ships the egress. Returns true on progress.
  bool run_once(int timeout_ms);
  // Loops until stop() (from any thread) or `until_idle_ms` of
  // inactivity when positive. The calling thread binds itself as the
  // controller's owner thread around every batch of work it dispatches
  // (and stays unbound while blocked waiting), so callers with their
  // own synchronization can still drive the controller directly
  // between batches.
  void run(int until_idle_ms = -1);
  void stop();

  // Both counts are readable from any thread.
  size_t connection_count() const {
    return shard_connections_.load(std::memory_order_relaxed);
  }
  size_t parked_session_count() const {
    return parked_count_.load(std::memory_order_relaxed);
  }
  int io_shards() const { return io_shard_count_; }

 private:
  // Controller-side view of a shard-owned connection; the socket lives
  // in its shard.
  struct Connection {
    uint64_t id = 0;  // mailbox identity
    int shard = 0;
    std::string staged;  // frames coalesced for the next ship
    std::vector<core::InstanceId> instances;
    // Resume token issued at the first v2 REGISTER (empty for v1
    // clients, whose disconnect is an implicit harmony_end).
    std::string session_token;
    // This connection completed a {REPL HELLO}: it is a standby
    // subscribed to the journal stream, not an application.
    bool is_replica = false;
  };
  // A semi-sync reply withheld until a standby acks the journal
  // position that covers its effect (or the deadline passes).
  struct DeferredReply {
    uint64_t conn = 0;
    Message reply;
    uint64_t generation = 0;
    uint64_t offset = 0;
    std::chrono::steady_clock::time_point deadline;
  };
  struct ParkedSession {
    std::vector<core::InstanceId> instances;
    std::chrono::steady_clock::time_point deadline;
  };
  // A variable update queued for a connection, identified by id (never
  // by pointer: the connection may be gone by the time the controller
  // thread pumps the queue).
  struct PendingUpdate {
    uint64_t conn = 0;
    std::string name;
    std::string value;
  };

  bool process_net_event(NetEvent& event);
  void ship_staged();
  void shutdown_shards();
  void dispatch(Connection& connection, const Message& message);
  Message handle_message(Connection& connection, const Message& message);
  Message handle_resume(Connection& connection, const std::string& token);
  // {REPL ...} subprotocol. Returns an empty-verb message for ACKs,
  // which dispatch() interprets as "no reply".
  Message handle_repl(Connection& connection, const Message& message);
  // Ships queued replication frames to subscribed standbys and releases
  // deferred semi-sync replies whose position was acked (or timed out).
  bool pump_replication();
  // True when this OK reply must wait for a standby ack.
  bool should_defer_reply(const std::string& verb, const Message& reply) const;
  void send(Connection& connection, const Message& message);
  // Parks a resumable connection's session or synthesizes the DEPARTs.
  // The caller provides the epoch scope.
  void park_or_end(Connection& connection);
  void reap_expired_sessions();
  // Publishes parked_.size() to parked_count_; call after every change.
  void note_parked_count();
  // Detaches a connection at server teardown: parks tokened sessions'
  // subscriptions, unregisters the rest.
  void detach_connection(Connection& connection);
  // Pushes the session's current instance list into the journal.
  void persist_session(const std::string& token,
                       const std::vector<core::InstanceId>& instances);
  // Turns the drain batch's enqueue stamps into the mailbox queue-wait
  // histogram and one per-cycle trace span.
  void record_mailbox_waits();
  // Draws a fresh token that collides with no parked or live session;
  // empty when no secure randomness is available (the caller then
  // answers v1-style, non-resumable).
  std::string new_session_token() const;
  Status attach_updates(Connection& connection, core::InstanceId id);

  // Decision-core dispatch: exactly one of controller_ / router_ is
  // set, and both expose the protocol operations under the same names
  // and signatures, so `op` is a generic lambda applied to whichever
  // backs the server.
  template <typename Op>
  auto with_core(Op&& op) {
    return router_ != nullptr ? op(*router_) : op(*controller_);
  }
  // Drains the queued updates into the normal send path on the
  // controller thread. Returns true if anything shipped.
  bool pump_updates();
  Connection* find_connection(uint64_t id);

  HarmonyTcpServer(core::Controller* controller, core::DomainRouter* router,
                   uint16_t port, ServerConfig config);

  core::Controller* controller_;
  core::DomainRouter* router_ = nullptr;
  persist::Persistence* persistence_ = nullptr;
  ReplicationFeed* feed_ = nullptr;
  bool standby_ = false;
  std::deque<DeferredReply> deferred_;  // controller thread only
  ServerConfig config_;
  uint16_t port_;
  int io_shard_count_ = 0;  // resolved at start()
  std::map<std::string, ParkedSession> parked_;  // controller thread only
  // parked_.size(), published after every change for other threads.
  std::atomic<size_t> parked_count_ = 0;
  std::atomic<int> session_grace_ms_ = 30000;

  // --- I/O front end ------------------------------------------------------
  Mailbox mailbox_;
  std::vector<std::unique_ptr<IoShard>> shards_;
  // Controller-side view of shard-owned connections, by mailbox id.
  std::map<uint64_t, std::unique_ptr<Connection>> remotes_;
  // Connections with staged egress this drain cycle.
  std::vector<Connection*> egress_dirty_;
  std::vector<NetEvent> drain_batch_;
  std::vector<char> shard_wake_;  // scratch: which shards need a wake
  std::atomic<uint64_t> next_conn_id_ = 2;  // 0/1 are shard-internal tags
  std::atomic<uint64_t> accept_cursor_ = 0;
  std::atomic<size_t> shard_connections_ = 0;

  // --- telemetry (process-global instruments, resolved once) --------------
  metric::Counter* frames_out_total_;
  metric::Counter* session_parks_total_;
  metric::Counter* backpressure_drops_total_;
  metric::Gauge* connections_gauge_;
  metric::Gauge* parked_gauge_;
  metric::Histogram* mailbox_wait_us_;

  // Update handlers append here when a decision is flushed (on the
  // controller thread, at epoch close or inside a routed op); the
  // controller thread pumps into send(). In the server both ends run on
  // that one thread, so the lock is uncontended; it keeps the queue safe
  // for an embedder that drives the core from a thread of its own.
  std::mutex updates_mutex_;
  std::vector<PendingUpdate> pending_updates_;  // guarded by updates_mutex_
  std::vector<PendingUpdate> update_batch_;  // controller thread only

  // stop() may be called from another thread (tests, signal handlers);
  // everything else on the controller side is single-threaded.
  std::atomic<bool> stopping_ = false;
};

}  // namespace harmony::net
