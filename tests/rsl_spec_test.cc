#include "rsl/spec.h"

#include <gtest/gtest.h>

namespace harmony::rsl {
namespace {

// --- Constraint ---------------------------------------------------------------

TEST(Constraint, ParseForms) {
  auto any = Constraint::parse("*");
  ASSERT_TRUE(any.ok());
  EXPECT_EQ(any.value().op, Constraint::Op::kAny);

  auto eq = Constraint::parse("32");
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq.value().op, Constraint::Op::kEq);
  EXPECT_DOUBLE_EQ(eq.value().value, 32);

  auto ge = Constraint::parse(">=17");
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(ge.value().op, Constraint::Op::kGe);
  EXPECT_DOUBLE_EQ(ge.value().value, 17);

  auto le = Constraint::parse("<= 8");
  ASSERT_TRUE(le.ok());
  EXPECT_EQ(le.value().op, Constraint::Op::kLe);

  EXPECT_FALSE(Constraint::parse(">=x").ok());
  EXPECT_FALSE(Constraint::parse("abc").ok());
}

TEST(Constraint, Satisfaction) {
  auto ge = Constraint::parse(">=17").value();
  EXPECT_TRUE(ge.satisfied_by(17));
  EXPECT_TRUE(ge.satisfied_by(64));
  EXPECT_FALSE(ge.satisfied_by(16));
  EXPECT_DOUBLE_EQ(ge.minimum(), 17);

  // Paper semantics: an exact memory requirement is a minimum the node
  // must meet; more memory is acceptable.
  auto eq = Constraint::parse("32").value();
  EXPECT_TRUE(eq.satisfied_by(32));
  EXPECT_TRUE(eq.satisfied_by(128));
  EXPECT_FALSE(eq.satisfied_by(16));

  auto any = Constraint::parse("*").value();
  EXPECT_TRUE(any.satisfied_by(0));
  EXPECT_DOUBLE_EQ(any.minimum(), 0);
}

TEST(Constraint, RoundTripToString) {
  for (const char* text : {"*", "32", ">=17", "<=8"}) {
    auto c = Constraint::parse(text).value();
    auto again = Constraint::parse(c.to_string()).value();
    EXPECT_EQ(again.op, c.op) << text;
    EXPECT_DOUBLE_EQ(again.value, c.value) << text;
  }
}

// --- Expr ---------------------------------------------------------------------

TEST(SpecExpr, ConstantDetection) {
  EXPECT_TRUE(Expr{"42"}.is_constant());
  EXPECT_TRUE(Expr{"3.5"}.is_constant());
  EXPECT_FALSE(Expr{"a + 1"}.is_constant());
  EXPECT_FALSE(Expr{""}.is_constant());
}

TEST(SpecExpr, EmptyEvaluatesToZero) {
  EXPECT_DOUBLE_EQ(Expr{}.eval_constant().value(), 0.0);
}

TEST(SpecExpr, EvaluatesWithContext) {
  ExprContext ctx;
  ctx.name_lookup = [](const std::string& name, double* out) {
    if (name != "workerNodes") return false;
    *out = 4;
    return true;
  };
  EXPECT_DOUBLE_EQ(Expr{"1200.0 / workerNodes"}.eval(ctx).value(), 300.0);
}

// --- app:instance --------------------------------------------------------------

TEST(AppInstance, Parsing) {
  auto r = parse_app_instance("DBclient:1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().first, "DBclient");
  EXPECT_EQ(r.value().second, "1");

  r = parse_app_instance("Bag");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().first, "Bag");
  EXPECT_EQ(r.value().second, "0");

  EXPECT_FALSE(parse_app_instance(":1").ok());
  EXPECT_FALSE(parse_app_instance("a:b:c").ok());
}

// --- Bundles -------------------------------------------------------------------

// The paper's Figure 3 client-server database bundle.
constexpr const char* kDbBundle = R"(
  {QS
    {node server {hostname harmony.cs.umd.edu} {seconds 42} {memory 20}}
    {node client {hostname *} {os linux} {seconds 1} {memory 2}}
    {link client server 10}}
  {DS
    {node server {hostname harmony.cs.umd.edu} {seconds 1} {memory 20}}
    {node client {hostname *} {os linux} {memory >=17} {seconds 9}}
    {link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}}
)";

TEST(ParseBundle, PaperDatabaseBundle) {
  auto r = parse_bundle("DBclient:1", "where", kDbBundle);
  ASSERT_TRUE(r.ok()) << r.ok() << (r.ok() ? "" : r.error().message);
  const BundleSpec& b = r.value();
  EXPECT_EQ(b.application, "DBclient");
  EXPECT_EQ(b.instance, "1");
  EXPECT_EQ(b.bundle, "where");
  ASSERT_EQ(b.options.size(), 2u);

  const OptionSpec* qs = b.find_option("QS");
  ASSERT_NE(qs, nullptr);
  ASSERT_EQ(qs->nodes.size(), 2u);
  EXPECT_EQ(qs->nodes[0].role, "server");
  EXPECT_EQ(qs->nodes[0].hostname, "harmony.cs.umd.edu");
  EXPECT_DOUBLE_EQ(qs->nodes[0].seconds.eval_constant().value(), 42.0);
  EXPECT_DOUBLE_EQ(qs->nodes[0].memory.minimum(), 20.0);
  EXPECT_EQ(qs->nodes[1].os, "linux");
  ASSERT_EQ(qs->links.size(), 1u);
  EXPECT_EQ(qs->links[0].from, "client");
  EXPECT_EQ(qs->links[0].to, "server");
  EXPECT_DOUBLE_EQ(qs->links[0].megabytes.eval_constant().value(), 10.0);

  const OptionSpec* ds = b.find_option("DS");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->nodes[1].memory.op, Constraint::Op::kGe);
  EXPECT_DOUBLE_EQ(ds->nodes[1].memory.value, 17.0);
  EXPECT_FALSE(ds->links[0].megabytes.is_constant());

  // The DS bandwidth expression from the paper must evaluate correctly.
  ExprContext ctx;
  ctx.name_lookup = [](const std::string& name, double* out) {
    if (name != "client.memory") return false;
    *out = 32;
    return true;
  };
  EXPECT_DOUBLE_EQ(ds->links[0].megabytes.eval(ctx).value(), 51.0);
}

// Figure 2(a): the Simple parallel application.
TEST(ParseBundle, SimpleParallelApp) {
  auto r = parse_bundle("Simple:1", "config", R"(
    {fixed
      {node worker {seconds 300} {memory 32} {replicate 4}}
      {communication 100}}
  )");
  ASSERT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  const auto& option = r.value().options[0];
  EXPECT_EQ(option.name, "fixed");
  ASSERT_EQ(option.nodes.size(), 1u);
  EXPECT_DOUBLE_EQ(option.nodes[0].replicate.eval_constant().value(), 4.0);
  EXPECT_DOUBLE_EQ(option.communication.eval_constant().value(), 100.0);
}

// Figure 2(b): Bag with variable parallelism, parameterized seconds,
// quadratic communication, and an explicit performance model.
TEST(ParseBundle, BagOfTasksApp) {
  auto r = parse_bundle("Bag:1", "parallelism", R"(
    {var
      {variable workerNodes {1 2 4 8}}
      {node worker {seconds {1200.0 / workerNodes}} {memory 16}
            {replicate {workerNodes}}}
      {communication {0.5 * workerNodes * workerNodes}}
      {performance {{1 1250} {2 640} {4 340} {5 290} {6 270} {7 260} {8 255}}}
      {granularity 10}}
  )");
  ASSERT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  const auto& option = r.value().options[0];
  ASSERT_EQ(option.variables.size(), 1u);
  EXPECT_EQ(option.variables[0].name, "workerNodes");
  EXPECT_EQ(option.variables[0].values,
            (std::vector<double>{1, 2, 4, 8}));
  ASSERT_EQ(option.performance_points.size(), 7u);
  EXPECT_DOUBLE_EQ(option.performance_points[0].y, 1250);
  EXPECT_DOUBLE_EQ(option.granularity_s, 10);

  ExprContext ctx;
  ctx.name_lookup = [](const std::string& name, double* out) {
    if (name != "workerNodes") return false;
    *out = 8;
    return true;
  };
  EXPECT_DOUBLE_EQ(option.nodes[0].seconds.eval(ctx).value(), 150.0);
  EXPECT_DOUBLE_EQ(option.communication.eval(ctx).value(), 32.0);
}

TEST(ParseBundle, PerformanceScript) {
  auto r = parse_bundle("App", "b", R"(
    {opt
      {node n {seconds 10} {memory 1}}
      {performance script {return [expr {1200.0 / $workerNodes}]}}}
  )");
  ASSERT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  EXPECT_FALSE(r.value().options[0].performance_script.empty());
}

TEST(ParseBundle, Friction) {
  auto r = parse_bundle("App", "b", R"(
    {opt {node n {seconds 10} {memory 1}} {friction 30}}
  )");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().options[0].friction_s, 30.0);
}

TEST(ParseBundle, DeadlinePeriodAndTardiness) {
  auto r = parse_bundle("App", "b", R"(
    {serve
      {node server {seconds 20} {memory 32}}
      {period 30}
      {tardiness 5}}
    {strict
      {node server {seconds 20} {memory 32}}
      {deadline 25}
      {period 30}}
  )");
  ASSERT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  const OptionSpec& periodic = r.value().options[0];
  EXPECT_DOUBLE_EQ(periodic.period_s, 30.0);
  EXPECT_DOUBLE_EQ(periodic.tardiness_weight, 5.0);
  // No explicit deadline: the period is the implicit one.
  EXPECT_DOUBLE_EQ(periodic.effective_deadline_s(), 30.0);
  const OptionSpec& strict = r.value().options[1];
  // An explicit deadline wins over the period.
  EXPECT_DOUBLE_EQ(strict.effective_deadline_s(), 25.0);
  // No deadline tags at all: the option carries no deadline.
  auto plain = parse_bundle("A", "b", "{o {node n {seconds 1} {memory 1}}}");
  ASSERT_TRUE(plain.ok());
  EXPECT_DOUBLE_EQ(plain.value().options[0].effective_deadline_s(), 0.0);
}

TEST(ParseBundle, Rejections) {
  // No options.
  EXPECT_FALSE(parse_bundle("A", "b", "").ok());
  // Empty bundle name.
  EXPECT_FALSE(parse_bundle("A", "", "{o {node n {seconds 1}}}").ok());
  // Duplicate option names.
  EXPECT_FALSE(parse_bundle("A", "b",
                            "{o {node n {seconds 1}}} {o {node n {seconds 2}}}")
                   .ok());
  // Unknown option tag.
  EXPECT_FALSE(parse_bundle("A", "b", "{o {frobnicate 3}}").ok());
  // Unknown node tag.
  EXPECT_FALSE(parse_bundle("A", "b", "{o {node n {cycles 5}}}").ok());
  // Malformed link.
  EXPECT_FALSE(parse_bundle("A", "b", "{o {link a b}}").ok());
  // Non-numeric variable values.
  EXPECT_FALSE(parse_bundle("A", "b", "{o {variable v {1 x}}}").ok());
  // Performance points with non-increasing x.
  EXPECT_FALSE(
      parse_bundle("A", "b", "{o {performance {{2 10} {1 20}}}}").ok());
  // Malformed performance point.
  EXPECT_FALSE(parse_bundle("A", "b", "{o {performance {{1 2 3}}}}").ok());
  // Non-finite performance points (the div-by-zero scaling-law bug).
  EXPECT_FALSE(parse_bundle("A", "b", "{o {performance {{1 inf}}}}").ok());
  EXPECT_FALSE(parse_bundle("A", "b", "{o {performance {{1 nan}}}}").ok());
  // Nonpositive deadline/period/tardiness values.
  EXPECT_FALSE(
      parse_bundle("A", "b", "{o {node n {seconds 1}} {period 0}}").ok());
  EXPECT_FALSE(
      parse_bundle("A", "b", "{o {node n {seconds 1}} {deadline -5}}").ok());
  EXPECT_FALSE(
      parse_bundle("A", "b", "{o {node n {seconds 1}} {tardiness -1}}").ok());
}

// --- harmonyNode ----------------------------------------------------------------

TEST(ParseNodeAd, Full) {
  // Arguments arrive brace-stripped, as the interpreter delivers them.
  auto r = parse_node_ad({"harmonyNode", "sp2-01", "speed 1.25",
                          "memory 256", "os aix", "link sp2-02 40 0.1"});
  ASSERT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  const NodeAd& ad = r.value();
  EXPECT_EQ(ad.name, "sp2-01");
  EXPECT_DOUBLE_EQ(ad.speed, 1.25);
  EXPECT_DOUBLE_EQ(ad.memory_mb, 256);
  EXPECT_EQ(ad.os, "aix");
  ASSERT_EQ(ad.links.size(), 1u);
  EXPECT_EQ(ad.links[0].peer, "sp2-02");
  EXPECT_DOUBLE_EQ(ad.links[0].bandwidth_mbps, 40);
  EXPECT_DOUBLE_EQ(ad.links[0].latency_ms, 0.1);
}

TEST(ParseNodeAd, DefaultsAndRejections) {
  auto r = parse_node_ad({"harmonyNode", "plain"});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().speed, 1.0);

  EXPECT_FALSE(parse_node_ad({"harmonyNode"}).ok());
  EXPECT_FALSE(parse_node_ad({"harmonyNode", "x", "speed 0"}).ok());
  EXPECT_FALSE(parse_node_ad({"harmonyNode", "x", "speed -1"}).ok());
  EXPECT_FALSE(parse_node_ad({"harmonyNode", "x", "memory -5"}).ok());
  EXPECT_FALSE(parse_node_ad({"harmonyNode", "x", "link peer 0"}).ok());
  EXPECT_FALSE(parse_node_ad({"harmonyNode", "x", "unknown 1"}).ok());
}

TEST(ParseNodeAd, RejectsNonFiniteNumbers) {
  for (const char* field :
       {"speed nan", "speed inf", "speed -inf", "memory nan", "memory inf",
        "link peer nan", "link peer inf", "link peer 10 nan",
        "link peer 10 inf"}) {
    EXPECT_FALSE(parse_node_ad({"harmonyNode", "x", field}).ok()) << field;
  }
  EXPECT_TRUE(parse_node_ad({"harmonyNode", "x", "link peer 10 0.5"}).ok());
}

}  // namespace
}  // namespace harmony::rsl
