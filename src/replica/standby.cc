#include "replica/standby.h"

#include <poll.h>

#include <chrono>

#include "common/logging.h"
#include "common/strings.h"
#include "net/framing.h"
#include "net/tcp.h"

namespace harmony::replica {
namespace {

using Clock = std::chrono::steady_clock;

bool parse_u64(const std::string& text, uint64_t* out) {
  long long v = 0;
  if (!parse_int64(text, &v) || v < 0) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

}  // namespace

StandbyReplicator::StandbyReplicator(StandbyConfig config,
                                     persist::Persistence* persistence)
    : config_(std::move(config)), persistence_(persistence) {}

StandbyReplicator::~StandbyReplicator() { stop(); }

void StandbyReplicator::start() {
  if (thread_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { run(); });
}

void StandbyReplicator::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void StandbyReplicator::run() {
  int backoff_ms = config_.initial_backoff_ms;
  size_t cursor = 0;
  while (!stop_.load(std::memory_order_relaxed) &&
         !needs_reset_.load(std::memory_order_relaxed) &&
         !config_.peers.empty()) {
    const net::Endpoint& peer = config_.peers[cursor % config_.peers.size()];
    const Clock::time_point started = Clock::now();
    Status status = session(peer);
    connected_.store(false, std::memory_order_relaxed);
    if (stop_.load(std::memory_order_relaxed) ||
        needs_reset_.load(std::memory_order_relaxed)) {
      break;
    }
    ++cursor;
    reconnects_total_->increment();
    HLOG_INFO("replica") << "standby " << config_.node_id << " lost "
                         << peer.host << ":" << peer.port << " ("
                         << status.to_string() << "); reconnecting";
    // A session that streamed for a while earns a fresh backoff; rapid
    // failures keep doubling up to the cap.
    const auto lived = std::chrono::duration_cast<std::chrono::milliseconds>(
                           Clock::now() - started)
                           .count();
    if (lived > 1000) backoff_ms = config_.initial_backoff_ms;
    // Sleep in poll-interval slices so stop() stays responsive.
    int remaining = backoff_ms;
    while (remaining > 0 && !stop_.load(std::memory_order_relaxed)) {
      const int slice = std::min(remaining, config_.poll_interval_ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      remaining -= slice;
    }
    backoff_ms = std::min(backoff_ms * 2, config_.max_backoff_ms);
  }
}

Status StandbyReplicator::send_ack(const net::Fd& fd) {
  const persist::ReplicationPosition pos = persistence_->replication_position();
  net::Message ack{
      "REPL",
      {"ACK", std::to_string(pos.generation), std::to_string(pos.offset),
       std::to_string(records_journaled_.load(std::memory_order_relaxed))}};
  return net::write_all(fd, net::encode_frame(ack.encode()));
}

Status StandbyReplicator::session(const net::Endpoint& peer) {
  Result<net::Fd> dialed = net::connect_to(peer.host, peer.port);
  if (!dialed.ok()) return Status(dialed.error());
  net::Fd fd = std::move(dialed.value());

  // The stream restarts from the committed position; a torn tail
  // buffered from the previous connection will be re-sent.
  persistence_->reset_stream_tail();
  const persist::ReplicationPosition pos = persistence_->replication_position();
  // Byte offset the next BATCH frame must carry. Tracked locally (not
  // from replication_position) because chunked batches may split
  // mid-record: received bytes advance this even while the torn tail
  // sits in the stream buffer short of the committed offset.
  uint64_t stream_offset = pos.offset;
  uint64_t stream_generation = pos.generation;

  net::Message hello{"REPL",
                     {"HELLO", std::to_string(pos.generation),
                      std::to_string(pos.offset), config_.node_id}};
  Status sent = net::write_all(fd, net::encode_frame(hello.encode()));
  if (!sent.ok()) return sent;
  (void)net::set_nonblocking(fd, true);
  connected_.store(true, std::memory_order_relaxed);
  HLOG_INFO("replica") << "standby " << config_.node_id << " attached to "
                       << peer.host << ":" << peer.port << " at gen "
                       << pos.generation << " offset " << pos.offset;

  net::FrameBuffer inbound;
  bool in_resync = false;
  std::string snapshot_accum;
  uint64_t resync_generation = 0;
  Clock::time_point last_ack = Clock::now();

  while (!stop_.load(std::memory_order_relaxed)) {
    struct pollfd pfd = {fd.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, config_.poll_interval_ms);
    bool progressed = false;
    if (ready > 0) {
      char buffer[64 * 1024];
      for (;;) {
        Result<size_t> got = net::read_some(fd, buffer, sizeof(buffer));
        if (!got.ok()) return Status(got.error());
        if (got.value() == 0) break;
        inbound.feed(std::string_view(buffer, got.value()));
        if (got.value() < sizeof(buffer)) break;
      }
      for (;;) {
        Result<std::optional<std::string>> frame = inbound.next_frame();
        if (!frame.ok()) return Status(frame.error());
        if (!frame.value().has_value()) break;
        Result<net::Message> decoded = net::Message::decode(**frame);
        if (!decoded.ok()) return Status(decoded.error());
        const net::Message& message = decoded.value();
        if (message.verb == "OK" || message.verb == "UPDATE") continue;
        if (message.verb == "ERR") {
          return Status(ErrorCode::kProtocol,
                        "primary refused replication: " + message.encode());
        }
        if (message.verb != "REPL" || message.args.empty()) {
          return Status(ErrorCode::kProtocol,
                        "unexpected frame: " + message.encode());
        }
        const std::string& op = message.args[0];
        if (op == "SNAP" && message.args.size() == 2) {
          if (!parse_u64(message.args[1], &resync_generation)) {
            return Status(ErrorCode::kProtocol, "bad SNAP generation");
          }
          in_resync = true;
          snapshot_accum.clear();
        } else if (op == "SNAPC" && message.args.size() == 2 && in_resync) {
          std::string chunk;
          if (!from_hex(message.args[1], &chunk)) {
            return Status(ErrorCode::kProtocol, "bad SNAPC hex");
          }
          snapshot_accum += chunk;
        } else if (op == "SNAPE" && message.args.size() == 2 && in_resync) {
          uint64_t end_generation = 0;
          if (!parse_u64(message.args[1], &end_generation) ||
              end_generation != resync_generation) {
            return Status(ErrorCode::kProtocol, "SNAPE generation mismatch");
          }
          Status installed =
              persistence_->install_snapshot(snapshot_accum, resync_generation);
          if (!installed.ok()) {
            if (installed.error().code == ErrorCode::kInvalidArgument) {
              // Local state diverged from the primary's history; this
              // mirror must be rebuilt from an empty directory.
              needs_reset_.store(true, std::memory_order_relaxed);
            }
            return installed;
          }
          in_resync = false;
          snapshot_accum.clear();
          stream_generation = resync_generation;
          stream_offset = 0;
          resyncs_.fetch_add(1, std::memory_order_relaxed);
          progressed = true;
        } else if (op == "BATCH" && message.args.size() == 4) {
          uint64_t generation = 0;
          uint64_t offset = 0;
          std::string bytes;
          if (!parse_u64(message.args[1], &generation) ||
              !parse_u64(message.args[2], &offset) ||
              !from_hex(message.args[3], &bytes)) {
            return Status(ErrorCode::kProtocol, "bad BATCH frame");
          }
          if (generation != stream_generation || offset != stream_offset) {
            return Status(
                ErrorCode::kProtocol,
                "BATCH position mismatch: got gen " +
                    std::to_string(generation) + " offset " +
                    std::to_string(offset) + ", expected gen " +
                    std::to_string(stream_generation) + " offset " +
                    std::to_string(stream_offset));
          }
          // Journal only; the records are applied after the ack below.
          uint64_t batch_records = 0;
          Status status =
              persistence_->journal_replicated(bytes, &batch_records);
          if (!status.ok()) return status;
          stream_offset += bytes.size();
          records_journaled_.fetch_add(batch_records,
                                       std::memory_order_relaxed);
          bytes_applied_total_->add(bytes.size());
          progressed = true;
        } else if (op == "COMPACT" && message.args.size() == 2) {
          uint64_t new_generation = 0;
          if (!parse_u64(message.args[1], &new_generation)) {
            return Status(ErrorCode::kProtocol, "bad COMPACT generation");
          }
          // apply_compaction first applies the records journaled
          // earlier in this read.
          Status status = persistence_->apply_compaction(new_generation);
          if (!status.ok()) return status;
          stream_generation = new_generation;
          stream_offset = 0;
          progressed = true;
        } else {
          return Status(ErrorCode::kProtocol,
                        "unexpected REPL frame: " + message.encode());
        }
      }
    } else if (ready < 0) {
      return Status(ErrorCode::kIo, "poll failed on replication socket");
    }

    // The primary's semi-sync replies wait on this ack, and the bytes it
    // covers are already in the local journal: ack first, then apply.
    const bool ack_due =
        progressed || std::chrono::duration_cast<std::chrono::milliseconds>(
                          Clock::now() - last_ack)
                              .count() >= config_.ack_interval_ms;
    if (ack_due) {
      Status acked = send_ack(fd);
      if (!acked.ok()) return acked;
      last_ack = Clock::now();
    }
    // Applied before stop_ is checked again, so a stopped replicator
    // leaves nothing it acked unapplied.
    uint64_t applied_records = 0;
    Status applied = persistence_->apply_journaled(&applied_records);
    records_applied_.fetch_add(applied_records, std::memory_order_relaxed);
    if (!applied.ok()) return applied;
  }
  return Status();
}

}  // namespace harmony::replica
