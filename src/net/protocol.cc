#include "net/protocol.h"

#include <atomic>
#include <mutex>

#include "common/strings.h"
#include "core/domain.h"
#include "metric/telemetry.h"
#include "rsl/value.h"

namespace harmony::net {

namespace {

// Guarded snapshot plus a lock-free accepting flag: the shard read loop
// checks ha_accepting() per message, so that path must not take a lock.
std::mutex g_ha_mutex;
HaStatus& ha_status_storage() {
  static HaStatus status;
  return status;
}
std::atomic<bool> g_ha_accepting{true};

}  // namespace

std::string Message::encode() const {
  std::vector<std::string> items;
  items.reserve(1 + args.size());
  items.push_back(verb);
  items.insert(items.end(), args.begin(), args.end());
  return rsl::list_build(items);
}

Result<Message> Message::decode(const std::string& payload) {
  auto items = rsl::list_parse(payload);
  if (!items.ok()) {
    return Err<Message>(ErrorCode::kProtocol,
                        "malformed message: " + items.error().message);
  }
  if (items.value().empty()) {
    return Err<Message>(ErrorCode::kProtocol, "empty message");
  }
  Message message;
  message.verb = items.value()[0];
  message.args.assign(items.value().begin() + 1, items.value().end());
  return message;
}

Message Message::ok(std::vector<std::string> args) {
  return Message{"OK", std::move(args)};
}

Message Message::err(ErrorCode code, const std::string& message) {
  return Message{"ERR", {error_code_name(code), message}};
}

Message Message::update(const std::string& name, const std::string& value) {
  return Message{"UPDATE", {name, value}};
}

Message build_metrics_reply(const Message& request) {
  if (request.args.size() > 1) {
    return Message::err(ErrorCode::kProtocol,
                        "METRICS expects at most a format argument");
  }
  const std::string format = request.args.empty() ? "prom" : request.args[0];
  metric::telemetry_counter("net.metrics_scrapes_total").increment();
  if (format == "prom") {
    return Message::ok({metric::Telemetry::instance().render_prometheus()});
  }
  if (format == "json") {
    return Message::ok({metric::Telemetry::instance().render_json()});
  }
  if (format == "trace") {
    return Message::ok({metric::TraceBuffer::instance().render_chrome_json()});
  }
  return Message::err(ErrorCode::kProtocol,
                      "unknown METRICS format: " + format);
}

Message build_domains_reply(const Message& request) {
  if (!request.args.empty()) {
    return Message::err(ErrorCode::kProtocol, "DOMAINS expects no arguments");
  }
  bool published = false;
  std::string rows = core::published_domains(&published);
  if (!published) {
    return Message::err(ErrorCode::kNotFound,
                        "no domain router in this server");
  }
  return Message::ok({std::move(rows)});
}

void publish_ha_status(const HaStatus& status) {
  {
    std::lock_guard<std::mutex> lock(g_ha_mutex);
    ha_status_storage() = status;
  }
  g_ha_accepting.store(status.role == "primary", std::memory_order_release);
  metric::telemetry_gauge("harmony.role")
      .set(status.role == "primary" ? 2 : status.role == "candidate" ? 1 : 0);
}

HaStatus published_ha_status() {
  std::lock_guard<std::mutex> lock(g_ha_mutex);
  return ha_status_storage();
}

bool ha_accepting() {
  return g_ha_accepting.load(std::memory_order_acquire);
}

Message build_status_reply(const Message& request) {
  if (!request.args.empty()) {
    return Message::err(ErrorCode::kProtocol, "STATUS expects no arguments");
  }
  HaStatus status = published_ha_status();
  return Message::ok(
      {status.role,
       str_format("%llu", static_cast<unsigned long long>(status.term)),
       str_format("%llu", static_cast<unsigned long long>(status.generation)),
       status.primary_hint});
}

Message not_primary_reply() {
  return Message::err(ErrorCode::kNotPrimary,
                      published_ha_status().primary_hint);
}

bool is_decision_verb(const std::string& verb) {
  // Everything that reads or writes controller/session state. METRICS,
  // DOMAINS, STATUS, and the REPL subprotocol stay available on every
  // role.
  return verb == "REGISTER" || verb == "RESUME" || verb == "END" ||
         verb == "GET" || verb == "LOAD" || verb == "SET" ||
         verb == "RESIZE" || verb == "REEVALUATE";
}

}  // namespace harmony::net
