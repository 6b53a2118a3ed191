// Harmony wire messages, encoded as TCL lists (the same value syntax
// the RSL uses — one codec across the system):
//
//   client -> server:
//     {REGISTER <script>}          register an application; script is a
//                                  sequence of harmonyBundle commands
//     {REGISTER <script> 2}        protocol v2: same, but the reply
//                                  carries a session token making the
//                                  registration resumable
//     {RESUME <token>}             reattach a disconnected (or
//                                  recovered-from-disk) session; the
//                                  server replays each instance's
//                                  current configuration as UPDATE
//                                  frames before replying
//     {END <id>}                   harmony_end
//     {GET <id> <name>}            read a published variable
//     {LOAD <host> <tasks>}        report observed external load on a
//                                  node (harmony_report_load, §4.3)
//     {SET <id> <bundle> <option> [<var> <value>]...}
//                                  operator steering (§7): force a
//                                  bundle onto an option; not gated on
//                                  connection ownership
//     {RESIZE <id> <bundle> <workers>}
//                                  live grow/shrink: move the bundle's
//                                  parallelism variable to a new
//                                  declared degree while the app runs;
//                                  journaled and replicated like SET
//     {REEVALUATE}                 request an adaptation pass
//     {METRICS ?format?}           telemetry scrape; format is "prom"
//                                  (default), "json", or "trace"
//                                  (Chrome trace_event spans). Answered
//                                  by the owning I/O shard without
//                                  touching the controller thread.
//     {DOMAINS}                    optimization-domain introspection:
//                                  one row per live domain — id, member
//                                  instance paths, epoch count,
//                                  last-decision latency and solver
//                                  stats. Answered shard-side like
//                                  {METRICS}. Rows carry 5 fields; the
//                                  worker-index field (second of 6) is
//                                  gone with the router's worker pool.
//     {STATUS}                     replication role probe: {OK <role>
//                                  <term> <generation> <primary_hint>}.
//                                  Answered shard-side like {METRICS},
//                                  so it works even against a standby
//                                  (whose decision verbs are refused).
//   standby -> primary (replication subprotocol, src/replica/):
//     {REPL HELLO <gen> <offset> <id>}   attach as a journal subscriber
//                                        from the given stream position
//     {REPL ACK <gen> <offset> <n>}      applied-watermark ack (no reply)
//   primary -> standby:
//     {REPL SNAP <gen>} / {REPL SNAPC <hex>} / {REPL SNAPE <gen>}
//                                  full-resync snapshot transfer:
//                                  begin, chunks, end
//     {REPL BATCH <gen> <offset> <hex>}  framed journal records
//     {REPL COMPACT <gen>}         the primary compacted to <gen>
//   server -> client:
//     {OK <args...>}               success (REGISTER returns the id,
//                                  plus the session token under v2;
//                                  RESUME returns the session's ids)
//     {ERR <code> <message>}       failure; code "not_primary" carries
//                                  the primary's host:port hint (when
//                                  known) so clients re-aim their
//                                  reconnect instead of retrying here
//     {UPDATE <name> <value>}      pushed variable update (buffered by
//                                  the client library until polled)
#pragma once

#include <string>
#include <vector>

#include "common/result.h"

namespace harmony::net {

struct Message {
  std::string verb;
  std::vector<std::string> args;

  std::string encode() const;
  static Result<Message> decode(const std::string& payload);

  static Message ok(std::vector<std::string> args = {});
  static Message err(ErrorCode code, const std::string& message);
  static Message update(const std::string& name, const std::string& value);
};

// Builds the reply to a {METRICS ?format?} request from the
// process-global telemetry registry. Thread-safe: I/O shards call this
// directly so a scrape never waits on the controller thread.
Message build_metrics_reply(const Message& request);

// Builds the reply to a {DOMAINS} request from the process-global
// published DomainRouter (core::published_domains). Thread-safe for the
// same reason: the router keeps a mutex-guarded stats mirror, so shards
// answer while the router's thread is mid-decision. Replies
//   {OK {{<id> {<member>...} <epochs> <last_ms> {<passes> <moves>
//   <improvement>}} ...}}
// or kNotFound when no router is published (single-controller server).
Message build_domains_reply(const Message& request);

// Process-global replication status, published by the HA node manager
// (src/replica/node.h) and read by the I/O shards. A process that never
// publishes runs as an ordinary primary: accepting, role "primary".
struct HaStatus {
  std::string role = "primary";  // primary | standby | candidate
  uint64_t term = 0;             // lease fencing term (0 = no lease)
  uint64_t generation = 0;       // snapshot generation of local state
  std::string primary_hint;      // host:port clients should aim at
};

// Thread-safe publication/read of the process's replication status.
// publish also maintains the harmony.role gauge (2 = primary,
// 1 = candidate, 0 = standby).
void publish_ha_status(const HaStatus& status);
HaStatus published_ha_status();
// Lock-free fast path for the shard read loop: false while the process
// is a standby/candidate, i.e. decision verbs must be refused.
bool ha_accepting();

// {OK <role> <term> <generation> <primary_hint>} for a {STATUS} probe.
// Thread-safe; shards answer it like {METRICS}.
Message build_status_reply(const Message& request);
// {ERR not_primary <primary_hint>}: the refusal a standby sends for
// decision verbs.
Message not_primary_reply();
// True for verbs that read or mutate decision-core state and therefore
// must only run on the primary.
bool is_decision_verb(const std::string& verb);

}  // namespace harmony::net
