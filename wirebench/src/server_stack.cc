#include "server_stack.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "core/domain.h"
#include "metric/telemetry.h"
#include "net/server.h"
#include "persist/persistence.h"
#include "replica/source.h"
#include "replica/standby.h"

namespace wirebench {

namespace {

using namespace harmony;

// Timestamped samples taken at one seam, written out at shutdown so the
// generator can keep exactly the ones inside its measured window.
class Probe {
 public:
  explicit Probe(std::string name) : name_(std::move(name)) {}
  void add(int64_t t_ns, int64_t value) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.emplace_back(t_ns, value);
  }
  void write(std::FILE* out) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [t, value] : samples_) {
      std::fprintf(out, "%s %lld %lld\n", name_.c_str(),
                   static_cast<long long>(t), static_cast<long long>(value));
    }
  }

 private:
  std::string name_;
  mutable std::mutex mutex_;
  std::vector<std::pair<int64_t, int64_t>> samples_;  // guarded by mutex_
};

struct Probes {
  Probe append{"persist.append_ns"};
  Probe commit{"persist.commit_ns"};
  Probe ack_wait{"replica.ack_wait_ns"};
  Probe batches{"replica.batches"};
  Probe lag_bytes{"replica.lag_bytes"};

  void write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return;
    for (const Probe* probe : {&append, &commit, &ack_wait, &batches,
                               &lag_bytes}) {
      probe->write(out);
    }
    std::fclose(out);
  }
};

// Times the single-controller journal seam: one append per applied
// event, one commit (write + group-commit scheduling + replication tap +
// due compaction) per epoch.
class TimedSink final : public core::EventSink {
 public:
  TimedSink(core::EventSink* inner, Probes* probes)
      : inner_(inner), probes_(probes) {}
  void on_controller_event(const core::ControllerEvent& event) override {
    const int64_t start = now_ns();
    inner_->on_controller_event(event);
    probes_->append.add(start, now_ns() - start);
  }
  void on_epoch_commit() override {
    const int64_t start = now_ns();
    inner_->on_epoch_commit();
    probes_->commit.add(start, now_ns() - start);
  }

 private:
  core::EventSink* inner_;
  Probes* probes_;
};

// The same seam for the routed core (called from domain workers).
class TimedJournal final : public core::DomainJournal {
 public:
  TimedJournal(core::DomainJournal* inner, Probes* probes)
      : inner_(inner), probes_(probes) {}
  void on_domain_event(uint32_t domain, uint64_t dseq,
                       const core::ControllerEvent& event) override {
    const int64_t start = now_ns();
    inner_->on_domain_event(domain, dseq, event);
    probes_->append.add(start, now_ns() - start);
  }
  void on_domain_epoch_commit(uint32_t domain) override {
    const int64_t start = now_ns();
    inner_->on_domain_epoch_commit(domain);
    probes_->commit.add(start, now_ns() - start);
  }

 private:
  core::DomainJournal* inner_;
  Probes* probes_;
};

// Wraps the replication source on both of its faces: the journal tap
// stamps each committed byte range, and the feed's note_ack closes every
// range the standby's ack covers — the semi-sync wait a mutating reply
// sits through.
class TimedReplication final : public persist::ReplicationTap,
                               public net::ReplicationFeed {
 public:
  TimedReplication(replica::ReplicationSource* source, Probes* probes)
      : source_(source), probes_(probes) {}

  void on_journal_commit(uint64_t generation, uint64_t start_offset,
                         std::string_view bytes) override {
    source_->on_journal_commit(generation, start_offset, bytes);
    const int64_t now = now_ns();
    const uint64_t end = start_offset + bytes.size();
    std::lock_guard<std::mutex> lock(mutex_);
    commits_.push_back(Commit{generation, end, now});
    const uint64_t acked = acked_generation_ == generation ? acked_offset_ : 0;
    probes_->lag_bytes.add(now, static_cast<int64_t>(end - std::min(end, acked)));
  }
  void on_compaction(uint64_t new_generation) override {
    source_->on_compaction(new_generation);
  }

  std::vector<net::Message> handshake(uint64_t conn,
                                      const std::string& standby_id,
                                      uint64_t generation,
                                      uint64_t offset) override {
    return source_->handshake(conn, standby_id, generation, offset);
  }
  void note_ack(uint64_t conn, uint64_t generation, uint64_t offset,
                uint64_t records) override {
    source_->note_ack(conn, generation, offset, records);
    const int64_t now = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    while (!commits_.empty() &&
           (commits_.front().generation < generation ||
            (commits_.front().generation == generation &&
             commits_.front().end <= offset))) {
      probes_->ack_wait.add(commits_.front().t_ns,
                            now - commits_.front().t_ns);
      commits_.pop_front();
    }
    acked_generation_ = generation;
    acked_offset_ = offset;
  }
  void detach(uint64_t conn) override { source_->detach(conn); }
  std::vector<net::Message> take_pending(uint64_t conn) override {
    std::vector<net::Message> frames = source_->take_pending(conn);
    int64_t batches = 0;
    for (const net::Message& frame : frames) {
      if (!frame.args.empty() && frame.args[0] == "BATCH") ++batches;
    }
    if (batches > 0) probes_->batches.add(now_ns(), batches);
    return frames;
  }
  bool acked_through(uint64_t generation, uint64_t offset) override {
    return source_->acked_through(generation, offset);
  }
  bool has_subscribers() override { return source_->has_subscribers(); }

 private:
  struct Commit {
    uint64_t generation = 0;
    uint64_t end = 0;
    int64_t t_ns = 0;
  };
  replica::ReplicationSource* source_;
  Probes* probes_;
  std::mutex mutex_;
  std::deque<Commit> commits_;     // guarded by mutex_
  uint64_t acked_generation_ = 0;  // guarded by mutex_
  uint64_t acked_offset_ = 0;      // guarded by mutex_
};

// Everything the primary process owns. Members are destroyed in reverse
// order: the server first (it reads the core and persistence), then the
// router (its workers journal through the decorators), then the rest.
struct Primary {
  Wiring wiring;
  std::unique_ptr<core::Controller> controller;  // core, or routed scratch
  std::unique_ptr<persist::Persistence> persistence;
  std::unique_ptr<replica::ReplicationSource> source;
  Probes probes;
  std::unique_ptr<TimedSink> sink;
  std::unique_ptr<TimedJournal> journal;
  std::unique_ptr<TimedReplication> replication;
  std::unique_ptr<core::DomainRouter> router;
  std::unique_ptr<net::HarmonyTcpServer> server;
};

// The benchmark's one server-wiring function: decision core,
// persistence, standby feed, shard and worker counts, and the trace
// decorators all come together here.
Result<std::unique_ptr<Primary>> start_primary(const StackOptions& options,
                                               const std::string& cluster) {
  auto p = std::make_unique<Primary>();
  const Wiring& w = options.wiring;
  p->wiring = w;
  persist::PersistConfig persist_config;
  persist_config.dir = options.dir + "/data";
  // Routed journaling supports only the baseline snapshot.
  persist_config.snapshot_every_epochs = w.compaction ? 64 : 0;

  p->controller = std::make_unique<core::Controller>(w.controller_config());
  if (w.routed) {
    // The scratch controller carries the cluster definition into the
    // baseline snapshot; it never hosts an instance.
    Status status = p->controller->add_nodes_script(cluster);
    if (status.ok()) status = p->controller->finalize_cluster();
    if (!status.ok()) return status.error();
  }
  auto opened = persist::Persistence::open(persist_config, *p->controller);
  if (!opened.ok()) return opened.error();
  p->persistence = std::move(opened).value();

  if (w.routed) {
    core::DomainRouterConfig router_config;
    router_config.controller = w.controller_config();
    router_config.workers = w.domain_workers;
    p->router = std::make_unique<core::DomainRouter>(router_config);
    Status status = p->router->add_nodes_script(cluster);
    if (status.ok()) status = p->router->finalize_cluster();
    if (!status.ok()) return status.error();
    core::DomainJournal* journal = p->persistence.get();
    if (options.trace) {
      p->journal = std::make_unique<TimedJournal>(journal, &p->probes);
      journal = p->journal.get();
    }
    p->router->attach_journal(journal);
  } else {
    Status status = p->controller->add_nodes_script(cluster);
    if (status.ok()) status = p->controller->finalize_cluster();
    if (!status.ok()) return status.error();
    if (options.trace) {
      p->sink = std::make_unique<TimedSink>(p->persistence.get(), &p->probes);
      p->controller->set_event_sink(p->sink.get());
    }
  }

  net::ServerConfig server_config;
  server_config.io_shards = w.io_shards;
  if (w.routed) {
    p->server = std::make_unique<net::HarmonyTcpServer>(p->router.get(), 0,
                                                        server_config);
  } else {
    p->server = std::make_unique<net::HarmonyTcpServer>(p->controller.get(),
                                                        0, server_config);
  }
  p->server->set_persistence(p->persistence.get());
  if (w.standby) {
    p->source =
        std::make_unique<replica::ReplicationSource>(p->persistence.get());
    persist::ReplicationTap* tap = p->source.get();
    net::ReplicationFeed* feed = p->source.get();
    if (options.trace) {
      p->replication =
          std::make_unique<TimedReplication>(p->source.get(), &p->probes);
      tap = p->replication.get();
      feed = p->replication.get();
    }
    p->persistence->set_replication_tap(tap);
    p->server->set_replication_feed(feed);
  }
  auto port = p->server->start();
  if (!port.ok()) return port.error();
  return Result<std::unique_ptr<Primary>>(std::move(p));
}

// Blocks until the generator writes STOP or closes our stdin.
void wait_for_stop() {
  char line[256];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    if (std::string_view(line).substr(0, 4) == "STOP") return;
  }
}

void write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  for (const std::string& line : lines) std::fprintf(out, "%s\n", line.c_str());
  std::fclose(out);
}

}  // namespace

std::vector<std::string> fingerprint(
    const std::vector<const core::Controller*>& controllers) {
  std::vector<std::string> lines;
  for (const core::Controller* controller : controllers) {
    for (const core::InstanceState& instance : controller->state().instances) {
      std::string line = instance.application;
      for (const core::BundleState& bundle : instance.bundles) {
        line += " " + bundle.spec.bundle + "=";
        if (!bundle.configured) {
          line += "-";
          continue;
        }
        line += bundle.choice.option;
        for (const auto& [name, value] : bundle.choice.variables) {
          line += str_format(",%s=%.17g", name.c_str(), value);
        }
        line += str_format(",grant=%.17g", bundle.choice.memory_grant);
        for (const auto& entry : bundle.allocation.entries) {
          line += str_format(
              ",%s.%d@%s", entry.requirement.role.c_str(),
              entry.requirement.index,
              controller->topology().node(entry.node).hostname.c_str());
        }
      }
      lines.push_back(std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

int primary_main(const StackOptions& options) {
  Logger::instance().set_level(LogLevel::kError);
  if (options.trace) metric::TraceBuffer::instance().set_enabled(true);
  auto started = start_primary(options, options.cluster);
  if (!started.ok()) {
    std::fprintf(stderr, "primary: %s\n",
                 started.error().to_string().c_str());
    return 1;
  }
  Primary& p = *started.value();
  std::thread serve([&p] { p.server->run(); });
  std::printf("READY %u %d %d %lld %llu\n",
              static_cast<unsigned>(p.server->port()), p.server->io_shards(),
              p.wiring.routed ? p.wiring.domain_workers : 0,
              static_cast<long long>(now_ns()),
              static_cast<unsigned long long>(metric::telemetry_now_us()));
  std::fflush(stdout);

  wait_for_stop();
  p.server->stop();
  serve.join();
  std::vector<const core::Controller*> cores;
  if (p.router) {
    cores = p.router->domain_controllers();
  } else {
    cores.push_back(p.controller.get());
  }
  write_lines(options.dir + "/primary.fp", fingerprint(cores));
  if (options.trace) p.probes.write(options.dir + "/primary.layers");
  started.value().reset();
  std::printf("DONE\n");
  std::fflush(stdout);
  return 0;
}

int standby_main(const StackOptions& options) {
  Logger::instance().set_level(LogLevel::kError);
  core::Controller controller(options.wiring.controller_config());
  persist::PersistConfig persist_config;
  persist_config.dir = options.dir + "/data";
  persist_config.snapshot_every_epochs = options.wiring.compaction ? 64 : 0;
  auto opened = persist::Persistence::open_standby(persist_config, controller);
  if (!opened.ok()) {
    std::fprintf(stderr, "standby: %s\n", opened.error().to_string().c_str());
    return 1;
  }
  std::unique_ptr<persist::Persistence> persistence = std::move(opened).value();
  replica::StandbyConfig config;
  config.peers = {net::Endpoint{"127.0.0.1",
                                static_cast<uint16_t>(options.primary_port)}};
  config.node_id = "wirebench-standby";
  replica::StandbyReplicator replicator(config, persistence.get());
  replicator.start();
  // Caught up once the initial resync (or backlog) has been applied.
  const int64_t deadline = now_ns() + 20'000'000'000LL;
  while (now_ns() < deadline &&
         !(replicator.connected() &&
           replicator.resyncs() + replicator.records_applied() > 0)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::printf("READY %d\n", replicator.connected() ? 1 : 0);
  std::fflush(stdout);

  wait_for_stop();
  replicator.stop();
  write_lines(options.dir + "/standby.fp", fingerprint({&controller}));
  std::printf("DONE\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace wirebench
