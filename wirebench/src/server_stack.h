// The server side of the benchmark. One setup function (start_primary in
// server_stack.cc) owns all server wiring: decision core, persistence,
// replication, I/O-shard and domain-worker counts, and — in traced runs —
// the timing decorators at the public seams (EventSink, DomainJournal,
// ReplicationTap, ReplicationFeed). Everything else reaches the server
// over the wire.
//
// Both server roles run as child processes of the generator, so the
// generator can read the primary's CPU time and peak RSS on their own.
// The control protocol on the child's stdin/stdout is line based: the
// child prints "READY ..." once serving, and on "STOP" (or stdin EOF)
// shuts down, writes its state fingerprint into its directory and
// prints "DONE".
#pragma once

#include <string>
#include <vector>

#include "core/controller.h"
#include "workload.h"

namespace wirebench {

struct StackOptions {
  Wiring wiring;
  std::string cluster;       // harmonyNode script
  std::string dir;           // persistence + output directory of this role
  bool trace = false;        // span ring on, timing decorators installed
  int primary_port = 0;      // standby: where the primary listens
};

int primary_main(const StackOptions& options);
int standby_main(const StackOptions& options);

// One line per application instance, keyed by application name (instance
// ids depend on how connections interleave): every bundle's option,
// choice variables, memory grant and placement. Sorted by name.
std::vector<std::string> fingerprint(
    const std::vector<const harmony::core::Controller*>& controllers);

}  // namespace wirebench
