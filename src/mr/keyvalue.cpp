#include "mr/keyvalue.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/error.h"

namespace vcmr::mr {

std::string serialize_kvs(const std::vector<KeyValue>& kvs) {
  std::string out;
  std::size_t total = 0;
  for (const auto& kv : kvs) total += kv.key.size() + kv.value.size() + 2;
  out.reserve(total);
  for (const auto& kv : kvs) append_kv(out, kv.key, kv.value);
  return out;
}

std::vector<KeyValue> parse_kvs(std::string_view payload) {
  std::vector<KeyValue> out;
  for_each_kv_line(payload, [&out](std::string_view key, std::string_view value) {
    out.push_back({std::string(key), std::string(value)});
  });
  return out;
}

bool for_each_group(std::span<const KeyValueView> records, const GroupFn& fn) {
  const std::size_t n = records.size();
  if (n == 0) return true;
  require(n < std::numeric_limits<std::uint32_t>::max(),
          "for_each_group: too many records");

  struct Group {
    std::string_view key;  // the first record's key bytes
    std::uint32_t count = 0;
    std::uint32_t start = 0;  // first member slot; a fill cursor while laying out
  };
  std::vector<Group> groups;
  groups.reserve(n);
  std::vector<std::uint32_t> group_of(n);

  // Open addressing with linear probing, slot -> group id; at most half
  // full, since n records hold at most n distinct keys.
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  std::size_t cap = 16;
  while (cap < 2 * n) cap <<= 1;
  const std::size_t mask = cap - 1;
  std::vector<std::uint32_t> slots(cap, kEmpty);
  const std::hash<std::string_view> hash{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view key = records[i].key;
    std::size_t s = hash(key) & mask;
    while (slots[s] != kEmpty && groups[slots[s]].key != key) s = (s + 1) & mask;
    if (slots[s] == kEmpty) {
      slots[s] = static_cast<std::uint32_t>(groups.size());
      groups.push_back({key});
    }
    group_of[i] = slots[s];
    ++groups[slots[s]].count;
  }

  // Counting pass: each group's members occupy one run of `members`, in
  // record order.
  std::uint32_t next = 0;
  std::uint32_t max_count = 0;
  for (auto& g : groups) {
    g.start = next;
    next += g.count;
    max_count = std::max(max_count, g.count);
  }
  std::vector<std::uint32_t> members(n);
  for (std::size_t i = 0; i < n; ++i) {
    members[groups[group_of[i]].start++] = static_cast<std::uint32_t>(i);
  }

  std::vector<std::uint32_t> order(groups.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&groups](std::uint32_t a, std::uint32_t b) {
    return groups[a].key < groups[b].key;
  });

  std::string key;
  std::vector<std::string> values;
  values.reserve(max_count);
  for (const std::uint32_t id : order) {
    const Group& g = groups[id];
    // The fill cursor left `start` one past the group's last member.
    const std::uint32_t first = g.start - g.count;
    key.assign(g.key);
    values.resize(g.count);
    for (std::uint32_t j = 0; j < g.count; ++j) {
      values[j].assign(records[members[first + j]].value);
    }
    if (!fn(key, values)) return false;
  }
  return true;
}

}  // namespace vcmr::mr
