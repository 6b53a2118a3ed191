#include "cluster/scope.h"

#include <algorithm>

namespace harmony::cluster {

NodeScope::NodeScope(std::vector<NodeId> nodes) : nodes_(std::move(nodes)) {
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
}

bool NodeScope::extend(const std::vector<NodeId>& nodes) {
  bool grew = false;
  for (NodeId node : nodes) {
    if (!contains(node)) {
      nodes_.push_back(node);
      grew = true;
    }
  }
  if (grew) std::sort(nodes_.begin(), nodes_.end());
  return grew;
}

}  // namespace harmony::cluster
