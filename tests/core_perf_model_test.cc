#include "core/perf_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <set>

namespace harmony::core {
namespace {

rsl::BundleSpec parse(const std::string& options) {
  auto r = rsl::parse_bundle("App", "b", options);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  return r.value();
}

struct Fixture {
  cluster::Topology topo;
  std::map<cluster::NodeId, int> load;
  rsl::BundleSpec bundle;
  OptionChoice choice;
  cluster::Allocation allocation;

  Fixture() {
    // server (speed 2), client0/client1 (speed 1); 100 Mbps links.
    EXPECT_TRUE(topo.add_node("server", 2.0, 512).ok());
    EXPECT_TRUE(topo.add_node("client0", 1.0, 64).ok());
    EXPECT_TRUE(topo.add_node("client1", 1.0, 64).ok());
    EXPECT_TRUE(topo.add_link(0, 1, 100).ok());
    EXPECT_TRUE(topo.add_link(0, 2, 100).ok());
  }

  PredictionInput input() const {
    PredictionInput in;
    in.option = &bundle.options[0];
    in.choice = &choice;
    in.allocation = &allocation;
    in.topology = &topo;
    in.node_load = &load;
    return in;
  }
};

TEST(PredictorModelSelection, Precedence) {
  auto def = parse("{o {node n {seconds 1}}}");
  EXPECT_EQ(Predictor::model_for(def.options[0]), Predictor::Model::kDefault);
  auto pts = parse("{o {node n {seconds 1}} {performance {{1 10} {2 5}}}}");
  EXPECT_EQ(Predictor::model_for(pts.options[0]), Predictor::Model::kPoints);
  auto script = parse("{o {node n {seconds 1}} {performance script {return 5}} "
                      "{performance {{1 10} {2 5}}}}");
  EXPECT_EQ(Predictor::model_for(script.options[0]), Predictor::Model::kScript);
}

TEST(DefaultModel, CpuOnlySingleNode) {
  Fixture f;
  f.bundle = parse("{QS {node server {hostname server} {seconds 9} {memory 20}}}");
  f.choice = {"QS", {}};
  f.allocation.entries.push_back({{"server", 0, "server", "", 20}, 0});
  f.load[0] = 1;
  Predictor predictor;
  auto t = predictor.predict(f.input());
  ASSERT_TRUE(t.ok()) << (t.ok() ? "" : t.error().message);
  EXPECT_DOUBLE_EQ(t.value(), 4.5) << "9 ref-seconds on a speed-2 node";
}

TEST(DefaultModel, ContentionScalesCpu) {
  Fixture f;
  f.bundle = parse("{QS {node server {hostname server} {seconds 9} {memory 20}}}");
  f.choice = {"QS", {}};
  f.allocation.entries.push_back({{"server", 0, "server", "", 20}, 0});
  f.load[0] = 3;  // three co-located jobs
  Predictor predictor;
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 13.5);
}

TEST(DefaultModel, CpuIsMaxAcrossRolesPlusLinkTime) {
  Fixture f;
  f.bundle = parse(
      "{QS {node server {hostname server} {seconds 9} {memory 20}}"
      " {node client {seconds 1} {memory 2}}"
      " {link client server 10}}");
  f.choice = {"QS", {}};
  f.allocation.entries.push_back({{"server", 0, "server", "", 20}, 0});
  f.allocation.entries.push_back({{"client", 0, "*", "", 2}, 1});
  f.load[0] = 1;
  f.load[1] = 1;
  Predictor predictor;
  // cpu = max(9/2, 1/1) = 4.5; link = 10 MB * 8 / 100 Mbps = 0.8 s.
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 5.3);
}

TEST(DefaultModel, SameNodeLinkUsesLocalRate) {
  Fixture f;
  f.bundle = parse(
      "{o {node a {seconds 1} {memory 1}} {node b {seconds 1} {memory 1}}"
      " {link a b 100}}");
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"a", 0, "*", "", 1}, 1});
  f.allocation.entries.push_back({{"b", 0, "*", "", 1}, 1});
  f.load[1] = 2;
  Predictor predictor;
  // cpu = 1 * 2 (load 2) = 2; link local: 100 MB * 8 / 8000 = 0.1 s.
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 2.1);
}

TEST(DefaultModel, CommunicationUsesWeakestPair) {
  Fixture f;
  f.bundle = parse(
      "{o {node w {seconds 4} {memory 1} {replicate 2}} {communication 50}}");
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"w", 0, "*", "", 1}, 1});
  f.allocation.entries.push_back({{"w", 1, "*", "", 1}, 2});
  f.load[1] = f.load[2] = 1;
  Predictor predictor;
  // client0-client1 widest path via server: bottleneck 100 Mbps.
  // cpu = 4; comm = 50 * 8 / 100 = 4.
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 8.0);
}

TEST(DefaultModel, ExpressionSecondsUseChoiceVariables) {
  Fixture f;
  f.bundle = parse(
      "{var {variable workerNodes {2}} "
      "{node worker {seconds {1200.0 / workerNodes}} {memory 16} "
      "{replicate {workerNodes}}}}");
  f.choice = {"var", {{"workerNodes", 2}}};
  f.allocation.entries.push_back({{"worker", 0, "*", "", 16}, 1});
  f.allocation.entries.push_back({{"worker", 1, "*", "", 16}, 2});
  f.load[1] = f.load[2] = 1;
  Predictor predictor;
  EXPECT_DOUBLE_EQ(predictor.predict_default(f.input()).value(), 600.0);
}

TEST(DefaultModel, RoleMemoryResolvesFromAllocation) {
  // The paper's memory-parameterized DS bandwidth: more client memory,
  // less data shipped.
  Fixture f;
  f.bundle = parse(
      "{DS {node server {hostname server} {seconds 1} {memory 20}}"
      " {node client {memory >=17} {seconds 9}}"
      " {link client server {61 - (client.memory > 24 ? 24 : client.memory)}}}");
  f.choice = {"DS", {}};
  Predictor predictor;

  f.allocation.entries.push_back({{"server", 0, "server", "", 20}, 0});
  f.allocation.entries.push_back({{"client", 0, "*", "", 17}, 1});
  f.load[0] = f.load[1] = 1;
  // cpu = max(1/2, 9) = 9; link = (61-17)*8/100 = 3.52.
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 12.52);

  f.allocation.entries[1].requirement.memory_mb = 32;  // generous grant
  // link = (61-24)*8/100 = 2.96.
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 11.96);
}

TEST(PointsModel, InterpolatesAtVariableValue) {
  Fixture f;
  f.bundle = parse(
      "{var {variable workerNodes {4}} {node w {seconds 1} {replicate "
      "{workerNodes}}} {performance {{1 1250} {2 640} {4 340} {8 255}}}}");
  f.choice = {"var", {{"workerNodes", 4}}};
  for (int i = 0; i < 4; ++i) {
    f.allocation.entries.push_back({{"w", i, "*", "", 0}, 0});
  }
  // Dedicated nodes.
  f.load[0] = 1;
  Predictor predictor;
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 340.0);
}

TEST(PointsModel, ContentionReducesEffectiveNodes) {
  Fixture f;
  f.bundle = parse(
      "{var {variable workerNodes {8}} {node w {seconds 1} {replicate "
      "{workerNodes}}} {performance {{1 1250} {2 640} {4 340} {8 255}}}}");
  f.choice = {"var", {{"workerNodes", 8}}};
  for (int i = 0; i < 8; ++i) {
    cluster::NodeId node = i % 3;
    f.allocation.entries.push_back({{"w", i, "*", "", 0}, node});
    f.load[node] = 2;  // every hosting node shared with another job
  }
  Predictor predictor;
  // effective = 8 * (1/2) = 4 -> interpolate at workerNodes * 0.5 = 4.
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 340.0);
}

TEST(DefaultModel, LogPOccupancyChargesEndpointCpus) {
  // §3.4's refinement: protocol processing consumes endpoint cycles.
  Fixture f;
  f.bundle = parse(
      "{o {node a {hostname client0} {seconds 1} {memory 1}}"
      " {node b {hostname client1} {seconds 1} {memory 1}}"
      " {link a b 100}}");
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"a", 0, "client0", "", 1}, 1});
  f.allocation.entries.push_back({{"b", 0, "client1", "", 1}, 2});
  f.load[1] = f.load[2] = 1;
  Predictor plain;
  // cpu = 1; wire = 100 MB * 8 / 100 Mbps = 8 s.
  EXPECT_DOUBLE_EQ(plain.predict(f.input()).value(), 9.0);
  Predictor logp;
  logp.set_comm_occupancy(0.05);  // 50 ms of CPU per MB at each end
  // each endpoint gains 100 * 0.05 = 5 s of CPU: cpu = 6, total 14.
  EXPECT_DOUBLE_EQ(logp.predict(f.input()).value(), 14.0);
}

TEST(DefaultModel, LogPOccupancySpreadsAllPairsTraffic) {
  Fixture f;
  f.bundle = parse(
      "{o {node w {seconds 4} {memory 1} {replicate 2}} {communication 50}}");
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"w", 0, "*", "", 1}, 1});
  f.allocation.entries.push_back({{"w", 1, "*", "", 1}, 2});
  f.load[1] = f.load[2] = 1;
  Predictor logp;
  logp.set_comm_occupancy(0.02);
  // wire: 50*8/100 = 4; occupancy per worker: 2*50*0.02/2 = 1 -> cpu 5.
  EXPECT_DOUBLE_EQ(logp.predict(f.input()).value(), 9.0);
}

// --- critical-path model (§4.2's inter-process dependency citation) ----------

TEST(DagModel, DiamondCriticalPath) {
  Fixture f;
  // setup -> {left 10s, right 4s} -> merge 2s: critical path 1+10+2 = 13.
  f.bundle = parse(
      "{o {node n {hostname client0} {seconds 1}} {performance dag {"
      "{setup 1} "
      "{left 10 {setup}} "
      "{right 4 {setup}} "
      "{merge 2 {left right}}}}}");
  EXPECT_EQ(Predictor::model_for(f.bundle.options[0]), Predictor::Model::kDag);
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"n", 0, "client0", "", 0}, 1});
  f.load[1] = 1;
  Predictor predictor;
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 13.0);
}

TEST(DagModel, IndependentRootsTakeTheLongest) {
  Fixture f;
  f.bundle = parse(
      "{o {node n {hostname client0} {seconds 1}} {performance dag {"
      "{a 5} {b 9} {c 3}}}}");
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"n", 0, "client0", "", 0}, 1});
  f.load[1] = 1;
  Predictor predictor;
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 9.0);
}

TEST(DagModel, DurationsMayBeExpressions) {
  Fixture f;
  f.bundle = parse(
      "{var {variable workerNodes {4}} {node w {seconds 1} {replicate "
      "{workerNodes}}} {performance dag {"
      "{scatter 10} "
      "{compute {1200.0 / workerNodes} {scatter}} "
      "{gather 10 {compute}}}}}");
  f.choice = {"var", {{"workerNodes", 4}}};
  for (int i = 0; i < 4; ++i) {
    f.allocation.entries.push_back({{"w", i, "*", "", 0}, 1});
  }
  f.load[1] = 1;
  Predictor predictor;
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 320.0);
}

TEST(DagModel, ContentionAndSpeedScaleThePath) {
  Fixture f;
  f.bundle = parse(
      "{o {node n {hostname server} {seconds 1}} "
      "{performance dag {{work 10}}}}");
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"n", 0, "server", "", 0}, 0});
  Predictor predictor;
  f.load[0] = 1;  // dedicated speed-2 server: twice as fast
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 5.0);
  f.load[0] = 4;  // four co-located tasks
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 20.0);
}

TEST(DagModel, CycleIsAnError) {
  Fixture f;
  f.bundle = parse(
      "{o {node n {seconds 1}} {performance dag {"
      "{a 1 {b}} {b 1 {a}}}}}");
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"n", 0, "*", "", 0}, 0});
  f.load[0] = 1;
  Predictor predictor;
  auto r = predictor.predict(f.input());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("cycle"), std::string::npos);
}

TEST(DagModel, UnknownDependencyIsAnError) {
  Fixture f;
  f.bundle = parse(
      "{o {node n {seconds 1}} {performance dag {{a 1 {ghost}}}}}");
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"n", 0, "*", "", 0}, 0});
  f.load[0] = 1;
  Predictor predictor;
  auto r = predictor.predict(f.input());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("ghost"), std::string::npos);
}

TEST(DagModel, ParseRejections) {
  EXPECT_FALSE(rsl::parse_bundle("A", "b",
                                 "{o {performance dag {}}}").ok());
  EXPECT_FALSE(rsl::parse_bundle("A", "b",
                                 "{o {performance dag {{a}}}}").ok());
  EXPECT_FALSE(rsl::parse_bundle(
                   "A", "b", "{o {performance dag {{a 1} {a 2}}}}").ok())
      << "duplicate task names";
}

TEST(ScriptModel, EvaluatesWithVariables) {
  Fixture f;
  f.bundle = parse(
      "{var {variable workerNodes {4}} {node w {seconds 1} {replicate "
      "{workerNodes}}} {performance script {expr {1200.0 / $workerNodes + "
      "0.5 * $workerNodes * $workerNodes}}}}");
  f.choice = {"var", {{"workerNodes", 4}}};
  for (int i = 0; i < 4; ++i) {
    f.allocation.entries.push_back({{"w", i, "*", "", 0}, 0});
  }
  f.load[0] = 1;
  Predictor predictor;
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 308.0);
}

TEST(ExprModel, EvaluatesWithVariablesAndAllocation) {
  // The §3 "explicit expression" form of the performance tag.
  Fixture f;
  f.bundle = parse(
      "{var {variable workerNodes {4}} {node w {seconds 1} {replicate "
      "{workerNodes}}} {performance expr {1200.0 / workerNodes + "
      "0.5 * workerNodes * workerNodes}}}");
  EXPECT_EQ(Predictor::model_for(f.bundle.options[0]),
            Predictor::Model::kExpr);
  f.choice = {"var", {{"workerNodes", 4}}};
  for (int i = 0; i < 4; ++i) {
    f.allocation.entries.push_back({{"w", i, "*", "", 0}, 0});
  }
  f.load[0] = 1;
  Predictor predictor;
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 308.0);
}

TEST(ExprModel, CanReferenceAllocationDerivedNames) {
  Fixture f;
  f.bundle = parse(
      "{o {node client {memory 32} {seconds 1}} "
      "{performance expr {100 - client.memory}}}");
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"client", 0, "*", "", 32}, 1});
  f.load[1] = 1;
  Predictor predictor;
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 68.0);
}

TEST(ExprModel, ScriptTakesPrecedenceOverExpr) {
  Fixture f;
  f.bundle = parse(
      "{o {node n {seconds 1}} {performance expr {111}} "
      "{performance script {return 222}}}");
  EXPECT_EQ(Predictor::model_for(f.bundle.options[0]),
            Predictor::Model::kScript);
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"n", 0, "*", "", 0}, 0});
  f.load[0] = 1;
  Predictor predictor;
  EXPECT_DOUBLE_EQ(predictor.predict(f.input()).value(), 222.0);
}

TEST(ExprModel, BadExpressionIsError) {
  Fixture f;
  f.bundle = parse("{o {node n {seconds 1}} {performance expr {1 +}}}");
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"n", 0, "*", "", 0}, 0});
  f.load[0] = 1;
  Predictor predictor;
  EXPECT_FALSE(predictor.predict(f.input()).ok());
}

TEST(ScriptModel, NonNumericResultIsError) {
  Fixture f;
  f.bundle = parse("{o {node n {seconds 1}} {performance script {return abc}}}");
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"n", 0, "*", "", 0}, 0});
  f.load[0] = 1;
  Predictor predictor;
  EXPECT_FALSE(predictor.predict(f.input()).ok());
}

TEST(DefaultModel, BadExpressionSurfacesError) {
  Fixture f;
  f.bundle = parse("{o {node n {seconds {undefined.name + 1}}}}");
  f.choice = {"o", {}};
  f.allocation.entries.push_back({{"n", 0, "*", "", 0}, 0});
  f.load[0] = 1;
  Predictor predictor;
  auto r = predictor.predict(f.input());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("undefined.name"), std::string::npos);
}

// --- prediction-cache keys ------------------------------------------------

// Every input of one prediction-cache key. Each test perturbs a single
// field and compares the built key against the unperturbed one.
struct KeyCase {
  InstanceId instance = 7;
  std::string bundle = "b";
  // Default model: reads load, the namespace name site.scale and the
  // interpreter variable mb.
  rsl::BundleSpec spec = parse(
      "{o {node w {seconds {site.scale * 2}} {memory 4}}"
      " {node s {seconds 1} {memory 2}} {link w s {$mb + 0}}}");
  OptionChoice choice{"o", {{"v", 2}}, 1.0};
  cluster::Allocation allocation;
  std::map<cluster::NodeId, int> load{{0, 2}, {1, 0}};
  std::map<std::string, double> numbers{{"site.scale", 1.5}};
  std::map<std::string, std::string> strings{{"mb", "12"}};

  KeyCase() {
    allocation.entries.push_back({{"w", 0, "*", "", 4}, 1});
    allocation.entries.push_back({{"s", 0, "*", "", 2}, 0});
  }

  std::string key() const {
    rsl::ExprContext names;
    names.name_lookup = [this](const std::string& name, double* out) {
      auto it = numbers.find(name);
      if (it == numbers.end()) return false;
      *out = it->second;
      return true;
    };
    names.var_lookup = [this](const std::string& name, std::string* out) {
      auto it = strings.find(name);
      if (it == strings.end()) return false;
      *out = it->second;
      return true;
    };
    const rsl::OptionSpec& option = spec.options[0];
    PredictionKeyBuilder builder;
    return std::string(builder.build(instance, bundle, choice, allocation,
                                     LoadView(&load), option,
                                     model_reads(option), names));
  }
};

TEST(PredictionKey, EqualInputsGiveEqualKeys) {
  KeyCase a, b;
  EXPECT_EQ(a.key(), b.key());
  // A reused builder yields the same bytes as a fresh one.
  const rsl::OptionSpec& option = a.spec.options[0];
  PredictionKeyBuilder builder;
  rsl::ExprContext none;
  std::string first(builder.build(1, "x", a.choice, a.allocation,
                                  LoadView(&a.load), option,
                                  model_reads(option), none));
  std::string second(builder.build(1, "x", a.choice, a.allocation,
                                   LoadView(&a.load), option,
                                   model_reads(option), none));
  EXPECT_EQ(first, second);
}

TEST(PredictionKey, EverySingleFieldChangesTheKey) {
  const std::string base = KeyCase().key();
  std::vector<std::pair<const char*, std::function<void(KeyCase&)>>> edits = {
      {"instance", [](KeyCase& c) { c.instance = 8; }},
      {"bundle", [](KeyCase& c) { c.bundle = "c"; }},
      {"option", [](KeyCase& c) { c.choice.option = "p"; }},
      {"variable name",
       [](KeyCase& c) { c.choice.variables = {{"u", 2}}; }},
      {"variable value", [](KeyCase& c) { c.choice.variables["v"] = 3; }},
      {"extra variable", [](KeyCase& c) { c.choice.variables["z"] = 0; }},
      {"memory grant", [](KeyCase& c) { c.choice.memory_grant = 2.0; }},
      {"role",
       [](KeyCase& c) { c.allocation.entries[0].requirement.role = "x"; }},
      {"index",
       [](KeyCase& c) { c.allocation.entries[0].requirement.index = 1; }},
      {"node", [](KeyCase& c) { c.allocation.entries[0].node = 2; }},
      {"memory",
       [](KeyCase& c) { c.allocation.entries[1].requirement.memory_mb = 3; }},
      {"entry count",
       [](KeyCase& c) { c.allocation.entries.pop_back(); }},
      {"load", [](KeyCase& c) { c.load[0] = 3; }},
      {"name value", [](KeyCase& c) { c.numbers["site.scale"] = 2.5; }},
      {"var value", [](KeyCase& c) { c.strings["mb"] = "13"; }},
  };
  std::set<std::string> keys{base};
  for (const auto& [what, edit] : edits) {
    KeyCase c;
    edit(c);
    const std::string key = c.key();
    EXPECT_NE(key, base) << what;
    keys.insert(key);
  }
  EXPECT_EQ(keys.size(), edits.size() + 1) << "two edits built one key";
}

TEST(PredictionKey, CompactLayout) {
  // instance 1 + bundle 2 + option 2 + variable count 1 + (name 2,
  // value 2) + grant 2 + entry count 1 + two entries of (role 2, index
  // 1, node 1, memory 2, load 1) + name read (kind 1, "site.scale" 11,
  // raw 1.5 9) + var read (kind 1, "mb" 3, tag 1, "12" 3) = 56 bytes;
  // the text form of the same inputs took 59.
  EXPECT_EQ(KeyCase().key().size(), 56u);
}

TEST(PredictionKey, DoublesAreKeyedExactly) {
  auto key_with_grant = [](double grant) {
    KeyCase c;
    c.choice.memory_grant = grant;
    return c.key();
  };
  const double two53 = 9007199254740992.0;  // 2^53
  const double two64 = 18446744073709551616.0;
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      std::nextafter(1.0, 2.0),
      3.0,
      3.5,
      -3.0,
      two53,
      two53 + 2,
      std::nextafter(two64, 0.0),  // largest double below 2^64
      two64,
      two64 * 2,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
  };
  std::set<std::string> keys;
  for (double v : values) {
    EXPECT_EQ(key_with_grant(v), key_with_grant(v)) << v;
    keys.insert(key_with_grant(v));
  }
  EXPECT_EQ(keys.size(), values.size()) << "two distinct doubles aliased";
  // Integral values take the short varint form, fractional ones the
  // raw 8 bytes.
  EXPECT_LT(key_with_grant(3.0).size(), key_with_grant(3.5).size());
}

TEST(PredictionKey, StringsCannotAliasAcrossFields) {
  KeyCase a, b;
  a.bundle = "a";
  a.choice.option = "bc";
  b.bundle = "ab";
  b.choice.option = "c";
  EXPECT_NE(a.key(), b.key());

  // Names with bytes >= 0x80 and lengths past one varint byte.
  KeyCase hi1, hi2, long1, long2;
  hi1.allocation.entries[0].requirement.role = "r\xc3\xa9";
  hi2.allocation.entries[0].requirement.role = "r\xc3\xa8";
  EXPECT_NE(hi1.key(), hi2.key());
  EXPECT_NE(hi1.key(), KeyCase().key());
  long1.bundle = std::string(200, '\x80');
  long1.choice.option = "o";
  long2.bundle = std::string(199, '\x80');
  long2.choice.option = "\x80o";
  EXPECT_NE(long1.key(), long2.key());
}

TEST(PredictionKey, LoadIsKeyedOnlyWhenTheModelReadsIt) {
  KeyCase a, b;
  b.load[0] = 5;
  EXPECT_NE(a.key(), b.key());
  // Absent and zero loads clamp to 1, as the models do.
  KeyCase zero, absent;
  zero.load = {{0, 0}, {1, 0}};
  absent.load = {};
  KeyCase one;
  one.load = {{0, 1}, {1, 1}};
  EXPECT_EQ(zero.key(), one.key());
  EXPECT_EQ(absent.key(), one.key());

  // The expression model never reads contention.
  KeyCase e1, e2;
  e1.spec = e2.spec = parse(
      "{o {node w {seconds 1} {memory 4}} {node s {seconds 1} {memory 2}}"
      " {performance expr {site.scale + 1}}}");
  ASSERT_FALSE(model_reads(e1.spec.options[0]).uses_load);
  e2.load[0] = 5;
  EXPECT_EQ(e1.key(), e2.key());
  e2.numbers["site.scale"] = 4;
  EXPECT_NE(e1.key(), e2.key());
}

TEST(PredictionKey, ReadNameResolvingToNumberStringOrNothing) {
  KeyCase number, text, text_one, missing;
  number.numbers["site.scale"] = 1;
  text.numbers.clear();
  text.strings["site.scale"] = "1";  // bare-name fallback to a variable
  text_one.numbers.clear();
  text_one.strings["site.scale"] = "1.0";
  missing.numbers.clear();
  std::set<std::string> keys{number.key(), text.key(), text_one.key(),
                             missing.key()};
  EXPECT_EQ(keys.size(), 4u);
  // An unset interpreter variable is keyed apart from an empty one.
  KeyCase unset, empty;
  unset.strings.erase("mb");
  empty.strings["mb"] = "";
  EXPECT_NE(unset.key(), empty.key());
}

TEST(PredictionKey, ModelReadsAcrossModels) {
  auto expr = parse("{o {node n {seconds 1}} {performance expr {a.b * 2}}}");
  EXPECT_FALSE(model_reads(expr.options[0]).uses_load);
  EXPECT_TRUE(model_reads(expr.options[0]).known);
  auto script = parse("{o {node n {seconds 1}} {performance script {return 5}}}");
  EXPECT_FALSE(model_reads(script.options[0]).known);
  auto rejected = parse("{o {node n {seconds {[clock seconds]}}}}");
  EXPECT_FALSE(model_reads(rejected.options[0]).known);
  auto def = parse("{o {node n {seconds {x.y}}} {link n n {z.w}}}");
  EXPECT_TRUE(model_reads(def.options[0]).uses_load);
  std::vector<std::string> texts;
  for_each_model_expr(def.options[0],
                      [&](const rsl::Expr& e) { texts.push_back(e.text()); });
  EXPECT_EQ(texts, (std::vector<std::string>{"x.y", "z.w"}));
}

// --- PredictionCache storage --------------------------------------------------

std::string cache_key_text(size_t i) { return "key-" + std::to_string(i); }

void put(PredictionCache& cache, const std::string& text, double value) {
  cache.insert(PredictionCache::key(text), value);
}

std::optional<double> get(PredictionCache& cache, const std::string& text) {
  return cache.lookup(PredictionCache::key(text));
}

TEST(PredictionCache, GenerationBoundHolds) {
  constexpr size_t kGen = PredictionCache::kGenerationEntries;
  PredictionCache cache;
  for (size_t i = 0; i < 3 * kGen; ++i) {
    put(cache, cache_key_text(i), static_cast<double>(i));
    ASSERT_LE(cache.size(), 2 * kGen) << "after " << i + 1 << " inserts";
  }
  EXPECT_FALSE(get(cache, cache_key_text(0)).has_value())
      << "the oldest generation was dropped";
  EXPECT_EQ(get(cache, cache_key_text(3 * kGen - 1)), 3.0 * kGen - 1);
  EXPECT_EQ(get(cache, cache_key_text(2 * kGen)), 2.0 * kGen)
      << "the previous generation is still served";
}

TEST(PredictionCache, OldGenerationHitIsPromoted) {
  constexpr size_t kGen = PredictionCache::kGenerationEntries;
  PredictionCache cache;
  put(cache, "kept", 1.5);
  put(cache, "idle", 2.5);
  size_t next = 0;
  auto fill = [&](size_t count) {
    for (size_t i = 0; i < count; ++i, ++next) {
      put(cache, cache_key_text(next), 0.0);
    }
  };
  fill(kGen);  // one rotation: both keys are now in the old generation
  EXPECT_EQ(get(cache, "kept"), 1.5);  // promoted into the young one
  fill(kGen);  // second rotation drops the old generation
  EXPECT_EQ(get(cache, "kept"), 1.5);
  EXPECT_FALSE(get(cache, "idle").has_value());
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PredictionCache, InvalidateDropsBothGenerations) {
  constexpr size_t kGen = PredictionCache::kGenerationEntries;
  PredictionCache cache;
  put(cache, "old", 1.0);
  for (size_t i = 0; i < kGen; ++i) put(cache, cache_key_text(i), 0.0);
  put(cache, "young", 2.0);
  ASSERT_EQ(get(cache, "old"), 1.0);
  ASSERT_EQ(get(cache, "young"), 2.0);
  cache.invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(get(cache, "old").has_value());
  EXPECT_FALSE(get(cache, "young").has_value());
  EXPECT_FALSE(get(cache, cache_key_text(kGen - 1)).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
  cache.invalidate();
  EXPECT_EQ(cache.stats().invalidations, 1u) << "an empty cache is untouched";
}

TEST(PredictionCache, EqualHashesStayDistinct) {
  PredictionCache cache;
  // Forced collisions: equal hash, equal and unequal lengths.
  const PredictionCache::Key ab{"ab", 42};
  const PredictionCache::Key ba{"ba", 42};
  const PredictionCache::Key abc{"abc", 42};
  cache.insert(ab, 1.0);
  cache.insert(ba, 2.0);
  EXPECT_EQ(cache.lookup(ab), 1.0);
  EXPECT_EQ(cache.lookup(ba), 2.0);
  EXPECT_FALSE(cache.lookup(abc).has_value());
  cache.insert(abc, 3.0);
  cache.insert(ab, 4.0);  // overwrites in place
  EXPECT_EQ(cache.lookup(ab), 4.0);
  EXPECT_EQ(cache.lookup(ba), 2.0);
  EXPECT_EQ(cache.lookup(abc), 3.0);
  EXPECT_EQ(cache.size(), 3u);
}

}  // namespace
}  // namespace harmony::core
