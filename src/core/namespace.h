// Hierarchical namespace shared between the adaptation controller and
// applications (paper §3.2). Paths are dotted names rooted at
// application instances, e.g. "DBclient.66.where.DS.client.memory".
// Leaves hold numeric values (resource amounts, variable settings) or
// strings (hostnames, chosen option names).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "rsl/expr.h"

namespace harmony::core {

class Namespace {
 public:
  Status set(const std::string& path, double value);
  Status set_string(const std::string& path, const std::string& value);

  Result<double> get(const std::string& path) const;
  // get() without building an error on a miss: the expression resolver
  // runs on every prediction-cache key, where most misses are
  // allocation-derived names (client.memory) that never live here.
  bool find(const std::string& path, double* out) const;
  Result<std::string> get_string(const std::string& path) const;
  bool has(const std::string& path) const;

  // Removes a leaf or a whole subtree ("DBclient.66" drops everything
  // the instance published). Removing an absent path is a no-op.
  void erase(const std::string& path);

  // Direct children of a prefix ("" lists the roots), sorted.
  std::vector<std::string> list(const std::string& prefix) const;
  // All leaf paths under a prefix, sorted (diagnostics / tests).
  std::vector<std::string> leaves(const std::string& prefix = "") const;

  size_t size() const { return numbers_.size() + strings_.size(); }

  // Read-through parent consulted by get / get_string / has when a
  // name is absent locally. Lets a domain controller resolve the
  // shared, immutable cluster names (cluster.<host>.speed, ...)
  // published once by the router's template controller instead of
  // copying O(cluster) entries into every domain. Writes, erase and
  // enumeration (list / leaves / size) stay local-only by design: a
  // domain never publishes into — or lists — the shared tier. The
  // fallback must outlive this namespace and never change (enforced by
  // the router: the template namespace is frozen at finalize).
  void set_fallback(const Namespace* fallback) { fallback_ = fallback; }
  const Namespace* fallback() const { return fallback_; }

  // Name resolver for RSL expressions, optionally rebasing relative
  // names: with base "DBclient.66.where.DS", the expression name
  // "client.memory" resolves to "DBclient.66.where.DS.client.memory",
  // falling back to the absolute path.
  rsl::ExprContext expr_context(const std::string& base = "") const;

 private:
  static bool valid_path(const std::string& path);
  std::map<std::string, double> numbers_;
  std::map<std::string, std::string> strings_;
  const Namespace* fallback_ = nullptr;
};

}  // namespace harmony::core
