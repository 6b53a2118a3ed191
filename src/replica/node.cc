#include "replica/node.h"

#include <filesystem>

#include "common/logging.h"

namespace harmony::replica {

HaNode::HaNode(HaNodeConfig config)
    : config_(std::move(config)), lease_(config_.lease_path) {
  config_.persist.dir = config_.data_dir;
  config_.standby.peers = config_.peers;
  config_.standby.node_id = config_.node_id;
}

HaNode::~HaNode() { teardown(); }

const char* HaNode::role_name(Role role) {
  switch (role) {
    case Role::kPrimary: return "primary";
    case Role::kCandidate: return "candidate";
    case Role::kStandby: return "standby";
  }
  return "unknown";
}

std::string HaNode::advertise_address() const {
  if (!config_.advertise.empty()) return config_.advertise;
  return "127.0.0.1:" + std::to_string(port_);
}

std::string HaNode::standby_hint() const {
  // Best effort: in the two-node arrangement the other peer is the
  // primary; with more peers clients walk their endpoint list anyway.
  if (config_.peers.empty()) return "";
  return config_.peers.front().host + ":" +
         std::to_string(config_.peers.front().port);
}

void HaNode::publish_status() {
  net::HaStatus status;
  status.role = role_name(role_);
  status.term = term_;
  status.generation = persistence_ ? persistence_->generation() : 0;
  status.primary_hint =
      role_ == Role::kPrimary ? advertise_address() : standby_hint();
  net::publish_ha_status(status);
}

Status HaNode::start() {
  Result<uint64_t> acquired =
      lease_.try_acquire(config_.node_id, config_.lease_ttl_ms);
  if (acquired.ok()) return start_primary(acquired.value());
  if (acquired.error().code != ErrorCode::kNotPrimary) {
    return Status(acquired.error());
  }
  return start_standby();
}

Status HaNode::start_primary(uint64_t lease_term) {
  term_ = lease_term;
  controller_ = std::make_unique<core::Controller>();
  if (config_.time_source) controller_->set_time_source(config_.time_source);
  Result<std::unique_ptr<persist::Persistence>> opened =
      persist::Persistence::open(config_.persist, *controller_);
  if (!opened.ok()) return Status(opened.error());
  persistence_ = std::move(opened.value());
  if (!persistence_->recovery().recovered && config_.bootstrap) {
    Status booted = config_.bootstrap(*controller_);
    if (!booted.ok()) return booted;
  }
  // Recovery leaves the controller's clock pinned at the last replayed
  // event; a live source must be reinstalled for new traffic.
  if (config_.time_source) controller_->set_time_source(config_.time_source);

  server_ = std::make_unique<net::HarmonyTcpServer>(
      controller_.get(), config_.port != 0 ? config_.port : port_,
      config_.server);
  server_->set_persistence(persistence_.get());
  source_ = std::make_unique<ReplicationSource>(persistence_.get());
  persistence_->set_replication_tap(source_.get());
  server_->set_replication_feed(source_.get());
  Result<uint16_t> port = server_->start();
  if (!port.ok()) return Status(port.error());
  port_ = port.value();

  role_ = Role::kPrimary;
  publish_status();
  start_renewal();
  HLOG_INFO("replica") << config_.node_id << " is primary at term " << term_
                       << " on port " << port_;
  return Status();
}

void HaNode::start_renewal() {
  stop_renewal();
  renew_stop_ = false;
  renew_deposed_.store(false, std::memory_order_relaxed);
  renew_thread_ = std::thread([this, term = term_] {
    std::unique_lock<std::mutex> lock(renew_mutex_);
    while (!renew_stop_) {
      if (renew_cv_.wait_for(lock,
                             std::chrono::milliseconds(config_.lease_renew_ms),
                             [this] { return renew_stop_; })) {
        return;
      }
      lock.unlock();
      Status renewed =
          lease_.renew(config_.node_id, term, config_.lease_ttl_ms);
      if (!renewed.ok()) {
        if (renewed.error().code == ErrorCode::kNotPrimary) {
          // Fenced out: a standby promoted past our term. Flag it and
          // stop touching the file; the poll thread does the demotion.
          HLOG_ERROR("replica")
              << config_.node_id << " deposed: " << renewed.to_string();
          renew_deposed_.store(true, std::memory_order_release);
          return;
        }
        HLOG_WARN("replica") << config_.node_id
                             << " lease renew error: " << renewed.to_string();
      }
      lock.lock();
    }
  });
}

void HaNode::stop_renewal() {
  if (!renew_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(renew_mutex_);
    renew_stop_ = true;
  }
  renew_cv_.notify_all();
  renew_thread_.join();
}

Status HaNode::start_standby() {
  controller_ = std::make_unique<core::Controller>();
  Result<std::unique_ptr<persist::Persistence>> opened =
      persist::Persistence::open_standby(config_.persist, *controller_);
  if (!opened.ok()) return Status(opened.error());
  persistence_ = std::move(opened.value());

  server_ = std::make_unique<net::HarmonyTcpServer>(
      controller_.get(), config_.port != 0 ? config_.port : port_,
      config_.server);
  server_->set_standby(true);
  Result<uint16_t> port = server_->start();
  if (!port.ok()) return Status(port.error());
  port_ = port.value();

  replicator_ =
      std::make_unique<StandbyReplicator>(config_.standby, persistence_.get());
  replicator_->start();

  role_ = Role::kStandby;
  last_lease_check_ms_ = LeaseFile::now_ms();
  publish_status();
  HLOG_INFO("replica") << config_.node_id << " is standby on port " << port_;
  return Status();
}

Status HaNode::promote_self(uint64_t lease_term) {
  term_ = lease_term;
  role_ = Role::kCandidate;
  publish_status();

  // Order matters: the replicator must be dead before promote() flips
  // the persistence mode (it is the only other writer), and the server
  // must re-park the mirrored sessions before it starts accepting, so
  // the first RESUME to race in finds its session.
  replicator_->stop();
  replicator_.reset();
  Status promoted = persistence_->promote();
  if (!promoted.ok()) {
    HLOG_ERROR("replica") << config_.node_id
                          << " promotion failed: " << promoted.to_string();
    role_ = Role::kStandby;
    publish_status();
    return promoted;
  }
  if (config_.time_source) controller_->set_time_source(config_.time_source);
  server_->set_persistence(persistence_.get());
  source_ = std::make_unique<ReplicationSource>(persistence_.get());
  persistence_->set_replication_tap(source_.get());
  server_->set_replication_feed(source_.get());
  server_->set_standby(false);

  role_ = Role::kPrimary;
  failovers_total_->increment();
  publish_status();
  start_renewal();
  HLOG_INFO("replica") << config_.node_id << " promoted to primary at term "
                       << term_ << " (generation "
                       << persistence_->generation() << ")";
  return Status();
}

Status HaNode::rebuild_standby() {
  HLOG_WARN("replica") << config_.node_id
                       << " mirror diverged; rebuilding from scratch";
  teardown();
  std::error_code ec;
  std::filesystem::remove_all(config_.data_dir, ec);
  if (ec) {
    return Status(ErrorCode::kIo,
                  "cannot wipe " + config_.data_dir + ": " + ec.message());
  }
  return start_standby();
}

void HaNode::teardown() {
  stop_renewal();
  if (replicator_) replicator_->stop();
  replicator_.reset();
  server_.reset();
  source_.reset();
  persistence_.reset();
  controller_.reset();
}

bool HaNode::poll(int timeout_ms) {
  const int64_t now = LeaseFile::now_ms();
  if (role_ == Role::kPrimary) {
    if (!deposed_ && renew_deposed_.load(std::memory_order_acquire)) {
      // The renewal thread found a higher term. Our state is stale
      // history now — refuse all decisions, forever.
      deposed_ = true;
      stop_renewal();
      server_->set_standby(true);
      role_ = Role::kStandby;
      publish_status();
    }
  } else if (!deposed_ && replicator_ != nullptr) {
    if (replicator_->needs_reset()) {
      Status rebuilt = rebuild_standby();
      if (!rebuilt.ok()) {
        HLOG_ERROR("replica") << config_.node_id << " rebuild failed: "
                              << rebuilt.to_string();
        return false;
      }
      return true;
    }
    if (now - last_lease_check_ms_ >= config_.lease_renew_ms) {
      last_lease_check_ms_ = now;
      Result<bool> expired = lease_.expired();
      if (expired.ok() && expired.value()) {
        Result<uint64_t> acquired =
            lease_.try_acquire(config_.node_id, config_.lease_ttl_ms);
        if (acquired.ok()) {
          (void)promote_self(acquired.value());
        }
        // Losing the race leaves us a standby following the winner.
      }
    }
  }
  return server_ != nullptr && server_->run_once(timeout_ms);
}

void HaNode::run(int timeout_ms) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    (void)poll(timeout_ms);
  }
}

void HaNode::stop() { stopping_.store(true, std::memory_order_relaxed); }

}  // namespace harmony::replica
