#pragma once
// Key/value records and their wire format.
//
// The paper's word-count app writes one line per record, "key value"
// (e.g. "test 1", §IV.A); reducers parse lines back. These helpers
// implement that line format plus grouped iteration for the reduce side.

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vcmr::mr {

struct KeyValue {
  std::string key;
  std::string value;

  friend auto operator<=>(const KeyValue&, const KeyValue&) = default;
};

/// A record that borrows its bytes (from a payload or a KeyValue).
struct KeyValueView {
  std::string_view key;
  std::string_view value;
};

/// Appends the line "key value\n".
inline void append_kv(std::string& out, std::string_view key,
                      std::string_view value) {
  out += key;
  out += ' ';
  out += value;
  out += '\n';
}

/// "key value\n" for each record. Keys must not contain whitespace (the
/// word-count tokenizer guarantees that); values may.
std::string serialize_kvs(const std::vector<KeyValue>& kvs);

/// The one line parser: calls fn(key, value) for each line of `payload`
/// in order, split at the first space. Malformed lines (no separator, or
/// an empty key) are skipped, matching the lenient readers MapReduce apps
/// typically use; the last line needs no trailing newline.
template <class Fn>
void for_each_kv_line(std::string_view payload, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t sep = line.find(' ');
    if (sep == std::string_view::npos || sep == 0) continue;
    fn(line.substr(0, sep), line.substr(sep + 1));
  }
}

/// Parses the line format back (see for_each_kv_line).
std::vector<KeyValue> parse_kvs(std::string_view payload);

/// Called once per distinct key; return false to stop the walk.
using GroupFn = std::function<bool(const std::string& key,
                                   const std::vector<std::string>& values)>;

/// Groups records by key and calls fn once per distinct key, keys in
/// ascending std::string order, each key's values in record order. The
/// key and values are reused buffers, valid only during the call. Returns
/// false iff fn stopped the walk.
bool for_each_group(std::span<const KeyValueView> records, const GroupFn& fn);

}  // namespace vcmr::mr
