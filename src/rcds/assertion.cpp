#include "rcds/assertion.hpp"

#include <algorithm>

namespace snipe::rcds {

bool Record::merge(const Assertion& a) {
  latest_ = std::max(latest_, a.timestamp);
  auto key = std::make_pair(a.name, a.value);
  auto it = map_.find(key);
  if (it == map_.end()) {
    map_.emplace(std::move(key), a);
    return true;
  }
  if (Assertion::newer(a, it->second)) {
    it->second = a;
    return true;
  }
  return false;
}

std::vector<Assertion> Record::live() const {
  std::vector<Assertion> out;
  for (const auto& [key, a] : map_)
    if (!a.tombstone) out.push_back(a);
  return out;
}

std::vector<Assertion> Record::all() const {
  std::vector<Assertion> out;
  out.reserve(map_.size());
  for (const auto& [key, a] : map_) out.push_back(a);
  return out;
}

std::vector<std::string> Record::values(const std::string& name) const {
  std::vector<std::string> out;
  for (auto it = map_.lower_bound({name, ""}); it != map_.end() && it->first.first == name;
       ++it)
    if (!it->second.tombstone) out.push_back(it->second.value);
  return out;
}

std::optional<std::string> Record::value(const std::string& name) const {
  auto v = values(name);
  if (v.empty()) return std::nullopt;
  return v.front();
}

}  // namespace snipe::rcds
