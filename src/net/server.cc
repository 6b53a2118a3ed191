#include "net/server.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "common/logging.h"
#include "common/strings.h"

namespace harmony::net {

namespace {

// Decoded messages waiting for the controller thread; shards block when
// the mailbox fills, which backpressures their sockets.
constexpr size_t kMailboxCapacity = 4096;
// Longest a semi-sync OK waits for a standby ack (see
// set_replication_feed).
constexpr std::chrono::milliseconds kSyncReplyTimeout{1000};

// The verbs whose effect is journaled: everything whose loss on
// failover a client could observe. GET/METRICS/etc. read freely.
bool is_mutating_verb(const std::string& verb) {
  return verb == "REGISTER" || verb == "END" || verb == "LOAD" ||
         verb == "SET" || verb == "RESIZE" || verb == "REEVALUATE" ||
         verb == "RESUME";
}

// Resume tokens gate session hijacking, so they must be unguessable
// and unique across server restarts (recovered sessions keep their
// tokens). /dev/urandom or nothing: without a secure source the server
// issues no token at all (the registration falls back to v1,
// non-resumable) rather than a predictable one.
std::string make_session_token() {
  unsigned char raw[12];
  int fd = ::open("/dev/urandom", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {};
  const bool filled =
      ::read(fd, raw, sizeof(raw)) == static_cast<ssize_t>(sizeof(raw));
  ::close(fd);
  if (!filled) return {};
  std::string token;
  token.reserve(sizeof(raw) * 2);
  for (unsigned char byte : raw) token += str_format("%02x", byte);
  return token;
}

// Tokens are secrets; logs carry only a recognizable prefix.
std::string token_prefix(const std::string& token) {
  return token.substr(0, 6) + "...";
}

// The serve loop's thread is the controller's owner thread while it
// runs; the binding is released on exit so tests (and embedders) can
// inspect the controller from their own thread afterwards. In routed
// mode there is no single controller to bind (the router binds each
// domain's controller around each op), so a null controller is a no-op.
class OwnerBind {
 public:
  explicit OwnerBind(core::Controller* controller) : controller_(controller) {
    if (controller_ != nullptr) controller_->bind_owner_thread();
  }
  ~OwnerBind() {
    if (controller_ != nullptr) controller_->unbind_owner_thread();
  }
  OwnerBind(const OwnerBind&) = delete;
  OwnerBind& operator=(const OwnerBind&) = delete;

 private:
  core::Controller* controller_;
};

// Epoch batching is a single-controller concept; routed servers let
// each domain op commit its own epoch.
class MaybeEpoch {
 public:
  explicit MaybeEpoch(core::Controller* controller) {
    if (controller != nullptr) scope_.emplace(*controller);
  }

 private:
  std::optional<core::Controller::EpochScope> scope_;
};

}  // namespace

HarmonyTcpServer::HarmonyTcpServer(core::Controller* controller,
                                   uint16_t port, ServerConfig config)
    : HarmonyTcpServer(controller, nullptr, port, config) {}

HarmonyTcpServer::HarmonyTcpServer(core::DomainRouter* router, uint16_t port,
                                   ServerConfig config)
    : HarmonyTcpServer(nullptr, router, port, config) {}

HarmonyTcpServer::HarmonyTcpServer(core::Controller* controller,
                                   core::DomainRouter* router, uint16_t port,
                                   ServerConfig config)
    : controller_(controller),
      router_(router),
      config_(config),
      port_(port),
      mailbox_(kMailboxCapacity),
      frames_out_total_(&metric::telemetry_counter("net.frames_out_total")),
      session_parks_total_(
          &metric::telemetry_counter("net.session_parks_total")),
      backpressure_drops_total_(
          &metric::telemetry_counter("net.backpressure_drops_total")),
      connections_gauge_(&metric::telemetry_gauge("net.connections")),
      parked_gauge_(&metric::telemetry_gauge("net.parked_sessions")),
      mailbox_wait_us_(&metric::telemetry_histogram("net.mailbox_wait_us")) {
  HARMONY_ASSERT((controller != nullptr) != (router != nullptr));
  if (router_ != nullptr) core::publish_domain_router(router_);
}

HarmonyTcpServer::~HarmonyTcpServer() {
  // The shard threads must be gone before controller state is touched:
  // after this, no mailbox event or egress command is in flight.
  shutdown_shards();
  for (auto& [id, connection] : remotes_) detach_connection(*connection);
  if (router_ != nullptr) core::publish_domain_router(nullptr);
}

void HarmonyTcpServer::detach_connection(Connection& connection) {
  if (connection.is_replica) {
    if (feed_ != nullptr) feed_->detach(connection.id);
    return;
  }
  // Deregister non-resumable connections; sessions with a token stay
  // registered so a persistence-backed restart can offer them for
  // RESUME. Their update subscriptions must be parked, though: the
  // handlers capture this server, and a controller that outlives the
  // server would otherwise flush pending variables into freed memory.
  if (!connection.session_token.empty()) {
    for (core::InstanceId id : connection.instances) {
      (void)with_core([id](auto& engine) {
        return engine.subscribe(id, core::Controller::UpdateHandler{});
      });
    }
    return;
  }
  for (core::InstanceId id : connection.instances) {
    (void)with_core([id](auto& engine) { return engine.unregister(id); });
  }
}

void HarmonyTcpServer::set_persistence(persist::Persistence* persistence) {
  persistence_ = persistence;
  if (persistence_ == nullptr) return;
  // Sessions recovered from the journal/snapshot are parked: their
  // instances are already restored in the controller, and the owning
  // clients get one grace window to reconnect and RESUME.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(session_grace_ms_);
  for (const auto& [token, instances] : persistence_->sessions()) {
    parked_[token] = ParkedSession{instances, deadline};
  }
  note_parked_count();
}

void HarmonyTcpServer::note_parked_count() {
  parked_count_.store(parked_.size(), std::memory_order_relaxed);
}

Result<uint16_t> HarmonyTcpServer::start() {
  io_shard_count_ = config_.io_shards;
  if (io_shard_count_ < 1) {
    unsigned hw = std::thread::hardware_concurrency();
    io_shard_count_ = static_cast<int>(std::min(4u, hw == 0 ? 1u : hw));
  }
  auto listener = listen_on(port_, config_.listen_backlog);
  if (!listener.ok()) {
    return Err<uint16_t>(listener.error().code, listener.error().message);
  }
  Fd listen_fd = std::move(listener).value();
  auto status = set_nonblocking(listen_fd, true);
  if (!status.ok()) {
    return Err<uint16_t>(status.error().code, status.error().message);
  }
  auto port = local_port(listen_fd);
  if (!port.ok()) return port;
  port_ = port.value();
  // Shard 0 owns the listener and deals accepted sockets round-robin;
  // the full roster must exist before any shard thread starts.
  for (int i = 0; i < io_shard_count_; ++i) {
    ShardOptions options;
    options.index = i;
    options.high_water_bytes = config_.outbound_high_water;
    options.sndbuf_bytes = config_.sndbuf_bytes;
    options.mailbox = &mailbox_;
    options.connection_count = &shard_connections_;
    options.next_conn_id = &next_conn_id_;
    options.accept_cursor = &accept_cursor_;
    options.peers = &shards_;
    shards_.push_back(std::make_unique<IoShard>(options));
  }
  shard_wake_.assign(shards_.size(), 0);
  for (int i = 0; i < io_shard_count_; ++i) {
    auto started = shards_[i]->start(i == 0 ? std::move(listen_fd) : Fd{});
    if (!started.ok()) {
      shutdown_shards();
      return Err<uint16_t>(started.error().code, started.error().message);
    }
  }
  HLOG_INFO("server") << "harmony listening on 127.0.0.1:" << port_ << " ("
                      << io_shard_count_ << " I/O shard(s))";
  return port_;
}

void HarmonyTcpServer::stop() {
  stopping_ = true;
  // Unblocks the controller thread (mailbox) and every shard loop.
  mailbox_.close();
  for (auto& shard : shards_) {
    shard->request_stop();
    shard->wake();
  }
}

void HarmonyTcpServer::shutdown_shards() {
  if (shards_.empty()) return;
  mailbox_.close();
  for (auto& shard : shards_) {
    shard->request_stop();
    shard->wake();
  }
  for (auto& shard : shards_) shard->join();
  shards_.clear();
}

// --- controller loop --------------------------------------------------------

void HarmonyTcpServer::run(int until_idle_ms) {
  // Idle time is measured on a monotonic clock, not by counting wait
  // timeouts: a wait interrupted by a signal (EINTR) returns
  // immediately, so assuming each no-progress iteration consumed the
  // full timeout would cut the idle window short by however often
  // signals arrive.
  using Clock = std::chrono::steady_clock;
  Clock::time_point last_progress = Clock::now();
  while (!stopping_) {
    bool progress = run_once(50);
    if (progress) {
      last_progress = Clock::now();
    } else if (until_idle_ms > 0) {
      auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::now() - last_progress);
      if (idle.count() >= until_idle_ms) return;
    }
  }
}

bool HarmonyTcpServer::run_once(int timeout_ms) {
  mailbox_.drain(drain_batch_, timeout_ms);
  reap_expired_sessions();
  connections_gauge_->set(static_cast<int64_t>(connection_count()));
  parked_gauge_->set(static_cast<int64_t>(parked_.size()));
  bool progress = !drain_batch_.empty();
  if (progress) {
    record_mailbox_waits();
    // The owner binding covers exactly the window in which this thread
    // mutates core state. While the loop blocks in drain, the controller
    // stays unbound, so externally synchronized callers (tests, tools
    // embedding a server thread) can still drive it directly. A standby
    // never binds: its controller is owned by the replication applier,
    // and nothing this loop dispatches there touches core state.
    OwnerBind bind(standby_ ? nullptr : controller_);
    // Replies ship every stride rather than once per batch: egress
    // still coalesces per recipient within a stride, but a message at
    // the back of a big drain batch no longer waits for the whole batch
    // to finish dispatching before its reply leaves the process.
    constexpr size_t kShipStride = 64;
    size_t since_ship = 0;
    for (auto& event : drain_batch_) {
      process_net_event(event);
      if (++since_ship >= kShipStride) {
        pump_updates();
        ship_staged();
        since_ship = 0;
      }
    }
  }
  // Ships everything staged this cycle — dispatch replies plus any
  // UPDATE fan-out queued since the last tick (expired-session
  // re-evaluations above, departure cascades).
  progress = pump_updates() || progress;
  progress = pump_replication() || progress;
  ship_staged();
  return progress;
}

void HarmonyTcpServer::record_mailbox_waits() {
  if (!metric::telemetry_enabled()) return;
  const uint64_t now_us = metric::telemetry_now_us();
  uint64_t oldest_us = 0;
  for (const auto& event : drain_batch_) {
    // Events stamped while telemetry was disabled carry no timestamp.
    if (event.enqueued_us == 0 || event.enqueued_us > now_us) continue;
    if (oldest_us == 0) oldest_us = event.enqueued_us;
    mailbox_wait_us_->record(now_us - event.enqueued_us);
  }
  // One queue-wait span per drain cycle: the oldest event's wait
  // brackets the whole batch.
  if (oldest_us != 0 && metric::TraceBuffer::instance().enabled()) {
    metric::TraceBuffer::instance().record("mailbox.queue_wait", oldest_us,
                                           now_us - oldest_us);
  }
}

bool HarmonyTcpServer::process_net_event(NetEvent& event) {
  switch (event.kind) {
    case NetEvent::Kind::kAccepted: {
      auto connection = std::make_unique<Connection>();
      connection->id = event.conn;
      connection->shard = event.shard;
      HLOG_DEBUG("server") << "accepted conn " << event.conn << " on shard "
                           << event.shard;
      remotes_.emplace(event.conn, std::move(connection));
      return true;
    }
    case NetEvent::Kind::kMessage: {
      auto it = remotes_.find(event.conn);
      if (it == remotes_.end()) return false;
      dispatch(*it->second, event.message);
      return true;
    }
    case NetEvent::Kind::kClosed: {
      auto it = remotes_.find(event.conn);
      if (it == remotes_.end()) return false;
      if (event.overflow) {
        HLOG_WARN("server") << "conn " << event.conn
                            << " cut at the slow-consumer high-water mark";
        // A v2 session parks (counted in park_or_end); a v1 client
        // loses its registrations outright.
        if (it->second->session_token.empty()) {
          backpressure_drops_total_->increment();
        }
      }
      {
        MaybeEpoch epoch(standby_ ? nullptr : controller_);
        park_or_end(*it->second);
      }
      // Anything still staged for it can never be delivered.
      egress_dirty_.erase(std::remove(egress_dirty_.begin(),
                                      egress_dirty_.end(), it->second.get()),
                          egress_dirty_.end());
      remotes_.erase(it);
      return true;
    }
  }
  return false;
}

void HarmonyTcpServer::ship_staged() {
  if (egress_dirty_.empty()) return;
  metric::ScopedSpan span("update.fanout");
  std::fill(shard_wake_.begin(), shard_wake_.end(), 0);
  for (Connection* connection : egress_dirty_) {
    if (connection->staged.empty()) continue;
    shards_[connection->shard]->post_send(connection->id,
                                          std::move(connection->staged));
    connection->staged.clear();
    shard_wake_[connection->shard] = 1;
  }
  egress_dirty_.clear();
  // One wake per shard per drain cycle, not per connection.
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shard_wake_[i]) shards_[i]->wake();
  }
}

void HarmonyTcpServer::dispatch(Connection& connection,
                                const Message& message) {
  // Persistence stops writing at its first I/O error, so once the
  // journal has failed a mutating verb can no longer be made durable:
  // refuse it outright, and turn the OK of the verb whose own epoch hit
  // the failure into the error.
  const bool journaled = persistence_ != nullptr && !standby_ &&
                         is_mutating_verb(message.verb);
  Status journal = journaled ? persistence_->io_status() : Status::Ok();
  Message reply;
  if (journal.ok()) {
    // One message = one optimization epoch: a REGISTER that also
    // subscribes (or an END that cascades re-evaluations) produces a
    // single coherent flush of variable updates and one set of
    // decision-path metrics. A standby opens no epoch — its controller
    // belongs to the replication applier, and the verbs that reach
    // handle_message there never touch it.
    {
      MaybeEpoch epoch(standby_ ? nullptr : controller_);
      reply = handle_message(connection, message);
    }
    if (journaled && reply.verb == "OK") journal = persistence_->io_status();
  }
  if (!journal.ok()) {
    reply = Message::err(journal.error().code,
                         "journal failed: " + journal.error().message);
  }
  // The epoch close above flushed pending variable updates into the
  // queue (a routed op runs on this thread and flushes its domain epoch
  // before it returns), so pumping here puts UPDATE frames ahead of the
  // reply on the wire — clients that block on the reply then drain
  // their buffer see a complete picture.
  pump_updates();
  if (reply.verb.empty()) {
    // No-reply sentinel (replication ACKs).
  } else if (should_defer_reply(message.verb, reply)) {
    // Semi-sync: the epoch above journaled this verb's effect; hold the
    // OK until a standby acks the covering journal position. The
    // UPDATE frames already staged still precede the reply when it
    // finally ships, because per-connection egress is FIFO.
    const persist::ReplicationPosition position =
        persistence_->replication_position();
    deferred_.push_back(DeferredReply{
        connection.id, reply, position.generation, position.offset,
        std::chrono::steady_clock::now() + kSyncReplyTimeout});
  } else {
    send(connection, reply);
  }
}

bool HarmonyTcpServer::should_defer_reply(const std::string& verb,
                                          const Message& reply) const {
  if (feed_ == nullptr || persistence_ == nullptr || standby_) return false;
  if (reply.verb != "OK") return false;  // failures journaled nothing
  return is_mutating_verb(verb) && feed_->has_subscribers();
}

Status HarmonyTcpServer::attach_updates(Connection& connection,
                                        core::InstanceId id) {
  // Handlers fire where the decision is flushed: on the controller
  // thread, at epoch close or inside a routed op. None of them may
  // touch egress state mid-decision: they queue by connection id (the
  // connection may die before the pump runs) and the controller thread
  // pumps the queue into the normal send path.
  const uint64_t conn_id = connection.id;
  core::Controller::UpdateHandler handler =
      [this, conn_id](const std::string& name, const std::string& value) {
        std::lock_guard<std::mutex> lock(updates_mutex_);
        pending_updates_.push_back(PendingUpdate{conn_id, name, value});
      };
  return with_core([&](auto& engine) {
    return engine.subscribe(id, std::move(handler));
  });
}

HarmonyTcpServer::Connection* HarmonyTcpServer::find_connection(uint64_t id) {
  auto it = remotes_.find(id);
  return it == remotes_.end() ? nullptr : it->second.get();
}

bool HarmonyTcpServer::pump_updates() {
  {
    // Swapping hands the handlers last cycle's cleared buffer, so the
    // steady state allocates nothing.
    std::lock_guard<std::mutex> lock(updates_mutex_);
    update_batch_.swap(pending_updates_);
  }
  if (update_batch_.empty()) return false;
  for (const PendingUpdate& update : update_batch_) {
    Connection* connection = find_connection(update.conn);
    if (connection == nullptr) continue;
    send(*connection, Message::update(update.name, update.value));
  }
  update_batch_.clear();
  return true;
}

void HarmonyTcpServer::persist_session(
    const std::string& token, const std::vector<core::InstanceId>& instances) {
  if (persistence_ != nullptr) persistence_->record_session(token, instances);
}

std::string HarmonyTcpServer::new_session_token() const {
  // 96 random bits make a collision astronomically unlikely, but a
  // token that collides with a parked or live session would hand one
  // client another's instances — check anyway; it is cheap.
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::string token = make_session_token();
    if (token.empty()) return {};
    if (parked_.count(token) != 0) continue;
    bool in_use = false;
    for (const auto& [id, connection] : remotes_) {
      in_use = in_use || connection->session_token == token;
    }
    if (!in_use) return token;
  }
  return {};
}

Message HarmonyTcpServer::handle_message(Connection& connection,
                                         const Message& message) {
  // METRICS, DOMAINS and STATUS never get here: the owning I/O shard
  // answers them without a mailbox round trip.
  if (message.verb == "REPL") {
    return handle_repl(connection, message);
  }
  if (standby_ && is_decision_verb(message.verb)) {
    // Authoritative refusal. The shards already redirect decision verbs
    // (ha_accepting), but a message that raced a role flip through the
    // mailbox lands here.
    return not_primary_reply();
  }
  if (message.verb == "REGISTER") {
    // v1: {REGISTER script} -> {OK id}. v2: {REGISTER script 2} ->
    // {OK id token}; the token makes the session resumable.
    const bool v2 = message.args.size() == 2 && message.args[1] == "2";
    if (message.args.empty() || (message.args.size() == 2 && !v2) ||
        message.args.size() > 2) {
      return Message::err(ErrorCode::kProtocol,
                          "REGISTER expects a script and optional version");
    }
    auto id = with_core([&](auto& engine) {
      return engine.register_script(message.args[0]);
    });
    if (!id.ok()) {
      return Message::err(id.error().code, id.error().message);
    }
    connection.instances.push_back(id.value());
    auto subscribed = attach_updates(connection, id.value());
    if (!subscribed.ok()) {
      return Message::err(subscribed.error().code, subscribed.error().message);
    }
    const std::string id_text =
        str_format("%llu", static_cast<unsigned long long>(id.value()));
    if (!v2) return Message::ok({id_text});
    if (connection.session_token.empty()) {
      connection.session_token = new_session_token();
      if (connection.session_token.empty()) {
        // No secure randomness available: answer v1-style (registered,
        // not resumable) instead of issuing a guessable token.
        HLOG_WARN("server")
            << "no session token source; registration is not resumable";
        return Message::ok({id_text});
      }
    }
    persist_session(connection.session_token, connection.instances);
    return Message::ok({id_text, connection.session_token});
  }
  if (message.verb == "RESUME") {
    if (message.args.size() != 1) {
      return Message::err(ErrorCode::kProtocol, "RESUME expects a token");
    }
    return handle_resume(connection, message.args[0]);
  }
  if (message.verb == "END" || message.verb == "GET") {
    unsigned long long raw = 0;
    if (message.args.empty() ||
        sscanf(message.args[0].c_str(), "%llu", &raw) != 1) {
      return Message::err(ErrorCode::kProtocol, "bad instance id");
    }
    core::InstanceId id = raw;
    bool owned = std::find(connection.instances.begin(),
                           connection.instances.end(),
                           id) != connection.instances.end();
    if (!owned) {
      return Message::err(ErrorCode::kNotFound,
                          "instance not registered here");
    }
    if (message.verb == "END") {
      auto status =
          with_core([id](auto& engine) { return engine.unregister(id); });
      connection.instances.erase(std::remove(connection.instances.begin(),
                                             connection.instances.end(), id),
                                 connection.instances.end());
      if (!connection.session_token.empty()) {
        persist_session(connection.session_token, connection.instances);
      }
      return status.ok() ? Message::ok()
                         : Message::err(status.error().code,
                                        status.error().message);
    }
    if (message.args.size() != 2) {
      return Message::err(ErrorCode::kProtocol, "GET expects id and name");
    }
    auto value = with_core([&](auto& engine) {
      return engine.get_variable(id, message.args[1]);
    });
    return value.ok() ? Message::ok({value.value()})
                      : Message::err(value.error().code,
                                     value.error().message);
  }
  if (message.verb == "LOAD") {
    // {LOAD <hostname> <tasks>}: observed load from outside Harmony's
    // control (§4.3), reported by any connected client or monitoring
    // agent; feeds the contention models and triggers a re-evaluation.
    long long tasks = 0;
    if (message.args.size() != 2 || !parse_int64(message.args[1], &tasks) ||
        tasks < 0) {
      return Message::err(ErrorCode::kProtocol,
                          "LOAD expects a hostname and a task count");
    }
    auto status = with_core([&](auto& engine) {
      return engine.report_external_load(message.args[0],
                                         static_cast<int>(tasks));
    });
    return status.ok() ? Message::ok()
                       : Message::err(status.error().code,
                                      status.error().message);
  }
  if (message.verb == "SET") {
    // {SET <id> <bundle> <option> [<var> <value>]...}: computational
    // steering (§7) — force a bundle onto an option, bypassing the
    // objective but not resource matching. Deliberately not gated on
    // connection ownership: steering comes from operator consoles, not
    // from the application being steered.
    if (message.args.size() < 3 || message.args.size() % 2 != 1) {
      return Message::err(
          ErrorCode::kProtocol,
          "SET expects id, bundle, option, and variable pairs");
    }
    unsigned long long raw = 0;
    if (sscanf(message.args[0].c_str(), "%llu", &raw) != 1) {
      return Message::err(ErrorCode::kProtocol, "bad instance id");
    }
    core::OptionChoice choice;
    choice.option = message.args[2];
    for (size_t i = 3; i + 1 < message.args.size(); i += 2) {
      double value = 0;
      if (!parse_double(message.args[i + 1], &value)) {
        return Message::err(ErrorCode::kProtocol,
                            "bad variable value: " + message.args[i + 1]);
      }
      choice.variables[message.args[i]] = value;
    }
    auto status = with_core([&](auto& engine) {
      return engine.set_option(raw, message.args[1], choice);
    });
    return status.ok() ? Message::ok()
                       : Message::err(status.error().code,
                                      status.error().message);
  }
  if (message.verb == "RESIZE") {
    // {RESIZE <id> <bundle> <workers>}: live grow/shrink — move the
    // bundle's parallelism variable to a new declared degree while the
    // application runs. Like SET, not gated on connection ownership:
    // resizes come from operator consoles and schedulers.
    if (message.args.size() != 3) {
      return Message::err(ErrorCode::kProtocol,
                          "RESIZE expects id, bundle, and worker count");
    }
    unsigned long long raw = 0;
    if (sscanf(message.args[0].c_str(), "%llu", &raw) != 1) {
      return Message::err(ErrorCode::kProtocol, "bad instance id");
    }
    double workers = 0;
    if (!parse_double(message.args[2], &workers)) {
      return Message::err(ErrorCode::kProtocol,
                          "bad worker count: " + message.args[2]);
    }
    auto status = with_core([&](auto& engine) {
      return engine.resize(raw, message.args[1], workers);
    });
    return status.ok() ? Message::ok()
                       : Message::err(status.error().code,
                                      status.error().message);
  }
  if (message.verb == "REEVALUATE") {
    auto status = with_core([](auto& engine) { return engine.reevaluate(); });
    return status.ok() ? Message::ok()
                       : Message::err(status.error().code,
                                      status.error().message);
  }
  return Message::err(ErrorCode::kProtocol, "unknown verb: " + message.verb);
}

Message HarmonyTcpServer::handle_resume(Connection& connection,
                                        const std::string& token) {
  auto it = parked_.find(token);
  if (it == parked_.end()) {
    return Message::err(ErrorCode::kNotFound, "unknown or expired session");
  }
  if (!connection.instances.empty() || !connection.session_token.empty()) {
    return Message::err(ErrorCode::kInvalidArgument,
                        "connection already has a session");
  }
  connection.session_token = token;
  connection.instances = std::move(it->second.instances);
  parked_.erase(it);
  note_parked_count();
  // Reattaching the subscription replays each instance's current
  // configuration as synthetic decisions, flushed before the OK reply —
  // a resuming client's harmony_wait_for_update sees a complete
  // pending-variable snapshot exactly as a fresh registrant would. The
  // whole replay leaves in the connection's one egress batch, not one
  // send per variable.
  // Instances whose subscription fails already departed; drop them from
  // the session for good, or they would be re-parked and retried on
  // every reconnect cycle.
  std::vector<core::InstanceId> live;
  std::vector<std::string> id_texts;
  for (core::InstanceId id : connection.instances) {
    auto subscribed = attach_updates(connection, id);
    if (!subscribed.ok()) {
      HLOG_WARN("server") << "resume: instance " << id
                          << " gone: " << subscribed.error().message;
      continue;
    }
    live.push_back(id);
    id_texts.push_back(
        str_format("%llu", static_cast<unsigned long long>(id)));
  }
  if (live.size() != connection.instances.size()) {
    connection.instances = std::move(live);
    persist_session(token, connection.instances);
  }
  HLOG_INFO("server") << "session " << token_prefix(token) << " resumed with "
                      << id_texts.size() << " instance(s)";
  return Message::ok(std::move(id_texts));
}

Message HarmonyTcpServer::handle_repl(Connection& connection,
                                      const Message& message) {
  if (feed_ == nullptr) {
    return Message::err(ErrorCode::kInvalidArgument,
                        "replication is not enabled on this server");
  }
  if (message.args.empty()) {
    return Message::err(ErrorCode::kProtocol, "REPL expects a subcommand");
  }
  const std::string& sub = message.args[0];
  auto parse_pos = [&](size_t index, uint64_t* out) {
    long long value = 0;
    if (index >= message.args.size() ||
        !parse_int64(message.args[index], &value) || value < 0) {
      return false;
    }
    *out = static_cast<uint64_t>(value);
    return true;
  };
  if (sub == "HELLO") {
    // {REPL HELLO <gen> <offset> <standby_id>}
    uint64_t generation = 0, offset = 0;
    if (message.args.size() != 4 || !parse_pos(1, &generation) ||
        !parse_pos(2, &offset)) {
      return Message::err(ErrorCode::kProtocol,
                          "REPL HELLO expects generation, offset, and id");
    }
    if (persistence_ != nullptr) {
      // The baseline snapshot is written lazily (first epoch commit); a
      // standby joining before any traffic must still get a coherent
      // starting point, so force it durable now.
      Status flushed = persistence_->flush();
      if (!flushed.ok()) {
        return Message::err(flushed.error().code, flushed.error().message);
      }
    }
    connection.is_replica = true;
    HLOG_INFO("server") << "standby " << message.args[3]
                        << " attached at generation " << generation
                        << " offset " << offset;
    for (Message& frame :
         feed_->handshake(connection.id, message.args[3], generation, offset)) {
      send(connection, frame);
    }
    return Message::ok({"REPL"});
  }
  if (sub == "ACK") {
    // {REPL ACK <gen> <offset> <records>} — no reply (the stream is
    // one-directional; an OK per ack would double the chatter).
    uint64_t generation = 0, offset = 0, records = 0;
    if (message.args.size() != 4 || !parse_pos(1, &generation) ||
        !parse_pos(2, &offset) || !parse_pos(3, &records)) {
      return Message::err(ErrorCode::kProtocol,
                          "REPL ACK expects generation, offset, and records");
    }
    feed_->note_ack(connection.id, generation, offset, records);
    return Message{};
  }
  return Message::err(ErrorCode::kProtocol, "unknown REPL subcommand: " + sub);
}

bool HarmonyTcpServer::pump_replication() {
  if (feed_ == nullptr) return false;
  bool progress = false;
  // Ship journal batches queued by the tap since the last cycle.
  for (auto& [id, connection] : remotes_) {
    if (!connection->is_replica) continue;
    for (Message& frame : feed_->take_pending(id)) {
      send(*connection, frame);
      progress = true;
    }
  }
  // Release semi-sync replies in arrival order: acked, timed out, or
  // moot (no subscribers left — durability degrades to local-only
  // rather than stalling clients on a dead standby).
  if (!deferred_.empty()) {
    const auto now = std::chrono::steady_clock::now();
    const bool unsubscribed = !feed_->has_subscribers();
    while (!deferred_.empty()) {
      DeferredReply& head = deferred_.front();
      if (!unsubscribed && now < head.deadline &&
          !feed_->acked_through(head.generation, head.offset)) {
        break;
      }
      Connection* connection = find_connection(head.conn);
      if (connection != nullptr) send(*connection, head.reply);
      deferred_.pop_front();
      progress = true;
    }
  }
  return progress;
}

void HarmonyTcpServer::send(Connection& connection, const Message& message) {
  frames_out_total_->increment();
  // Coalesce: every frame this drain cycle produces for a recipient
  // joins one staged batch, shipped to its shard as a single buffer
  // (flushed there with one writev).
  if (connection.staged.empty()) egress_dirty_.push_back(&connection);
  connection.staged += encode_frame(message.encode());
}

void HarmonyTcpServer::park_or_end(Connection& connection) {
  if (connection.is_replica) {
    // A standby's subscription dies with its connection; it re-attaches
    // with a fresh HELLO at its recovered position.
    if (feed_ != nullptr) feed_->detach(connection.id);
    connection.is_replica = false;
    return;
  }
  if (!connection.session_token.empty() && !connection.instances.empty()) {
    // Resumable session: park instead of departing. Subscriptions go
    // empty (parked) so nothing references the dying connection.
    HLOG_INFO("server") << "connection dropped; parking session "
                        << token_prefix(connection.session_token);
    session_parks_total_->increment();
    for (core::InstanceId id : connection.instances) {
      (void)with_core([id](auto& engine) {
        return engine.subscribe(id, core::Controller::UpdateHandler{});
      });
    }
    parked_[connection.session_token] = ParkedSession{
        std::move(connection.instances),
        std::chrono::steady_clock::now() +
            std::chrono::milliseconds(session_grace_ms_)};
    note_parked_count();
    connection.instances.clear();
    return;
  }
  // A vanished application is an implicit harmony_end (DEPART is
  // synthesized: unregister journals the departure like an explicit
  // one).
  for (core::InstanceId id : connection.instances) {
    HLOG_INFO("server") << "connection dropped; ending instance " << id;
    (void)with_core([id](auto& engine) { return engine.unregister(id); });
  }
  connection.instances.clear();
}

void HarmonyTcpServer::reap_expired_sessions() {
  // A standby's parked set (if any) mirrors the primary's decisions;
  // expiring locally would mutate a controller the applier owns.
  if (standby_) return;
  if (parked_.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  // Scan before binding: idle ticks with nothing expired must not claim
  // controller ownership (see run_once).
  bool any_expired = false;
  for (const auto& entry : parked_) {
    if (entry.second.deadline <= now) {
      any_expired = true;
      break;
    }
  }
  if (!any_expired) return;
  OwnerBind bind(controller_);
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (it->second.deadline > now) {
      ++it;
      continue;
    }
    MaybeEpoch epoch(controller_);
    HLOG_INFO("server") << "session " << token_prefix(it->first)
                        << " expired; ending its instances";
    for (core::InstanceId id : it->second.instances) {
      (void)with_core([id](auto& engine) { return engine.unregister(id); });
    }
    if (persistence_ != nullptr) persistence_->drop_session(it->first);
    it = parked_.erase(it);
  }
  note_parked_count();
}

}  // namespace harmony::net
