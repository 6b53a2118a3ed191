#include "core/namespace.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace harmony::core {

bool Namespace::valid_path(const std::string& path) {
  if (path.empty()) return false;
  if (path.front() == '.' || path.back() == '.') return false;
  if (path.find("..") != std::string::npos) return false;
  return true;
}

Status Namespace::set(const std::string& path, double value) {
  if (!valid_path(path)) {
    return Status(ErrorCode::kInvalidArgument, "malformed path: " + path);
  }
  strings_.erase(path);
  numbers_[path] = value;
  return Status::Ok();
}

Status Namespace::set_string(const std::string& path,
                             const std::string& value) {
  if (!valid_path(path)) {
    return Status(ErrorCode::kInvalidArgument, "malformed path: " + path);
  }
  numbers_.erase(path);
  strings_[path] = value;
  return Status::Ok();
}

Result<double> Namespace::get(const std::string& path) const {
  double value = 0;
  if (!find(path, &value)) {
    return Err<double>(ErrorCode::kNotFound, "no such name: " + path);
  }
  return value;
}

bool Namespace::find(const std::string& path, double* out) const {
  auto it = numbers_.find(path);
  if (it == numbers_.end()) {
    return fallback_ != nullptr && fallback_->find(path, out);
  }
  *out = it->second;
  return true;
}

Result<std::string> Namespace::get_string(const std::string& path) const {
  auto it = strings_.find(path);
  if (it != strings_.end()) return it->second;
  auto nit = numbers_.find(path);
  if (nit != numbers_.end()) return format_number(nit->second);
  if (fallback_ != nullptr) return fallback_->get_string(path);
  return Err<std::string>(ErrorCode::kNotFound, "no such name: " + path);
}

bool Namespace::has(const std::string& path) const {
  if (numbers_.count(path) > 0 || strings_.count(path) > 0) return true;
  return fallback_ != nullptr && fallback_->has(path);
}

void Namespace::erase(const std::string& path) {
  auto erase_from = [&](auto& map) {
    auto it = map.lower_bound(path);
    while (it != map.end()) {
      const std::string& key = it->first;
      if (key == path ||
          (key.size() > path.size() && starts_with(key, path) &&
           key[path.size()] == '.')) {
        it = map.erase(it);
      } else {
        break;
      }
    }
  };
  erase_from(numbers_);
  erase_from(strings_);
}

std::vector<std::string> Namespace::list(const std::string& prefix) const {
  std::set<std::string> children;
  std::string base = prefix.empty() ? "" : prefix + ".";
  auto scan = [&](const auto& map) {
    auto it = base.empty() ? map.begin() : map.lower_bound(base);
    for (; it != map.end(); ++it) {
      const std::string& key = it->first;
      if (!base.empty() && !starts_with(key, base)) break;
      std::string rest = key.substr(base.size());
      size_t dot = rest.find('.');
      children.insert(dot == std::string::npos ? rest : rest.substr(0, dot));
    }
  };
  scan(numbers_);
  scan(strings_);
  return {children.begin(), children.end()};
}

std::vector<std::string> Namespace::leaves(const std::string& prefix) const {
  std::vector<std::string> out;
  auto scan = [&](const auto& map) {
    for (const auto& [key, value] : map) {
      if (prefix.empty() || key == prefix ||
          (starts_with(key, prefix) && key.size() > prefix.size() &&
           key[prefix.size()] == '.')) {
        out.push_back(key);
      }
    }
  };
  scan(numbers_);
  scan(strings_);
  std::sort(out.begin(), out.end());
  return out;
}

rsl::ExprContext Namespace::expr_context(const std::string& base) const {
  rsl::ExprContext ctx;
  ctx.name_lookup = [this, base](const std::string& name, double* out) {
    if (!base.empty() && find(base + "." + name, out)) return true;
    return find(name, out);
  };
  return ctx;
}

}  // namespace harmony::core
