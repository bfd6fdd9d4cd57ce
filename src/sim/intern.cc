#include "src/sim/intern.h"

#include <deque>
#include <unordered_map>

namespace fractos {

namespace {

struct Table {
  // Views key into `names`, whose std::deque never invalidates element references.
  std::unordered_map<std::string_view, NameId> ids;
  std::deque<std::string> names;  // names[id - 1]
};

Table& table() {
  static Table t;
  return t;
}

}  // namespace

NameId intern_name(std::string_view name) {
  Table& t = table();
  auto it = t.ids.find(name);
  if (it != t.ids.end()) {
    return it->second;
  }
  t.names.emplace_back(name);
  const NameId id = static_cast<NameId>(t.names.size());
  t.ids.emplace(std::string_view(t.names.back()), id);
  return id;
}

const std::string& interned_name(NameId id) {
  static const std::string kEmpty;
  Table& t = table();
  if (id == 0 || id > t.names.size()) {
    return kEmpty;
  }
  // Deque elements are never moved or erased, so the reference stays valid.
  return t.names[id - 1];
}

}  // namespace fractos
