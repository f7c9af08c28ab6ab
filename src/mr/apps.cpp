#include "mr/apps.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <set>

#include "common/bloom.h"
#include "common/strings.h"

namespace vcmr::mr {

namespace {

/// The tokenizer's byte table: tolower(b) for the bytes isalnum accepts,
/// 0 for separators. Built once from the C library's classification in
/// the program's locale ("C": nothing calls setlocale).
const std::array<char, 256>& word_bytes() {
  static const std::array<char, 256> table = [] {
    std::array<char, 256> t{};
    for (int b = 0; b < 256; ++b) {
      if (std::isalnum(b)) {
        t[static_cast<std::size_t>(b)] = static_cast<char>(std::tolower(b));
      }
    }
    return t;
  }();
  return table;
}

/// Calls fn(word) for each maximal alphanumeric run, lowercased.
template <class Fn>
void for_each_word(std::string_view chunk, Fn&& fn) {
  const std::array<char, 256>& bytes = word_bytes();
  std::string word;
  for (const char c : chunk) {
    const char lower = bytes[static_cast<unsigned char>(c)];
    if (lower != 0) {
      word += lower;
    } else if (!word.empty()) {
      fn(word);
      word.clear();
    }
  }
  if (!word.empty()) fn(word);
}

/// Strips the optional "#chunk <id>\n" header; returns (id, body).
std::pair<std::int64_t, std::string_view> split_chunk_header(
    std::string_view chunk) {
  constexpr std::string_view kTag = "#chunk ";
  if (chunk.substr(0, kTag.size()) != kTag) return {0, chunk};
  const std::size_t eol = chunk.find('\n');
  if (eol == std::string_view::npos) return {0, chunk};
  std::int64_t id = 0;
  if (!common::parse_i64(chunk.substr(kTag.size(), eol - kTag.size()), &id)) {
    return {0, chunk};
  }
  return {id, chunk.substr(eol + 1)};
}

std::int64_t sum_values(const std::vector<std::string>& values) {
  std::int64_t total = 0;
  for (const auto& v : values) {
    std::int64_t n = 0;
    if (common::parse_i64(v, &n)) total += n;
  }
  return total;
}

}  // namespace

// --- word_count --------------------------------------------------------------

void WordCountApp::map(std::string_view chunk, Emitter& out) const {
  const auto [id, body] = split_chunk_header(chunk);
  (void)id;
  for_each_word(body, [&out](const std::string& w) { out.emit(w, "1"); });
}

void WordCountApp::reduce(const std::string& key,
                          const std::vector<std::string>& values,
                          Emitter& out) const {
  out.emit(key, std::to_string(sum_values(values)));
}

bool WordCountApp::combine(const std::string& key,
                           const std::vector<std::string>& values,
                           Emitter& out) const {
  out.emit(key, std::to_string(sum_values(values)));
  return true;
}

CostModel WordCountApp::cost() const {
  CostModel c;
  c.map_flops_per_byte = 30.0;      // tokenize + hash per byte
  c.reduce_flops_per_byte = 15.0;   // parse + accumulate
  c.map_output_ratio = 1.15;        // "word 1\n" per word
  c.reduce_output_ratio = 0.02;     // unique words only
  return c;
}

// --- grep ---------------------------------------------------------------------

void GrepApp::map(std::string_view chunk, Emitter& out) const {
  const auto [id, body] = split_chunk_header(chunk);
  (void)id;
  std::size_t pos = 0;
  std::int64_t matches = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) eol = body.size();
    const std::string_view line = body.substr(pos, eol - pos);
    if (line.find(pattern_) != std::string_view::npos) ++matches;
    pos = eol + 1;
  }
  if (matches > 0) out.emit(pattern_, std::to_string(matches));
}

void GrepApp::reduce(const std::string& key,
                     const std::vector<std::string>& values,
                     Emitter& out) const {
  out.emit(key, std::to_string(sum_values(values)));
}

CostModel GrepApp::cost() const {
  CostModel c;
  c.map_flops_per_byte = 8.0;       // substring scan
  c.reduce_flops_per_byte = 5.0;
  c.map_output_ratio = 0.0005;      // matches only (ParaMEDIC-style tiny output)
  c.reduce_output_ratio = 1.0;
  return c;
}

// --- inverted_index -------------------------------------------------------------

void InvertedIndexApp::map(std::string_view chunk, Emitter& out) const {
  const auto [id, body] = split_chunk_header(chunk);
  const std::string doc = std::to_string(id);
  std::set<std::string> seen;  // one posting per (word, chunk)
  for_each_word(body, [&](const std::string& w) {
    if (seen.insert(w).second) out.emit(w, doc);
  });
}

void InvertedIndexApp::reduce(const std::string& key,
                              const std::vector<std::string>& values,
                              Emitter& out) const {
  std::vector<std::int64_t> docs;
  docs.reserve(values.size());
  for (const auto& v : values) {
    std::int64_t d = 0;
    if (common::parse_i64(v, &d)) docs.push_back(d);
  }
  std::sort(docs.begin(), docs.end());
  docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
  std::string posting;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (i) posting += ',';
    posting += std::to_string(docs[i]);
  }
  out.emit(key, posting);
}

CostModel InvertedIndexApp::cost() const {
  CostModel c;
  c.map_flops_per_byte = 45.0;      // tokenize + dedup set
  c.reduce_flops_per_byte = 25.0;
  c.map_output_ratio = 0.25;        // unique words per chunk
  c.reduce_output_ratio = 0.6;
  return c;
}

// --- count_range ---------------------------------------------------------------

void CountRangeApp::map(std::string_view chunk, Emitter& out) const {
  const auto [id, body] = split_chunk_header(chunk);
  (void)id;
  // Input lines are word-count output: "word N".
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) eol = body.size();
    const std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t sep = line.find(' ');
    if (sep == std::string_view::npos) continue;
    std::int64_t n = 0;
    if (!common::parse_i64(line.substr(sep + 1), &n) || n <= 0) continue;
    // Decade bucket: 1-9, 10-99, 100-999, ...
    std::int64_t lo = 1;
    while (n >= lo * 10) lo *= 10;
    out.emit("occurs_" + std::to_string(lo) + "_" + std::to_string(lo * 10 - 1),
             "1");
  }
}

void CountRangeApp::reduce(const std::string& key,
                           const std::vector<std::string>& values,
                           Emitter& out) const {
  out.emit(key, std::to_string(sum_values(values)));
}

bool CountRangeApp::combine(const std::string& key,
                            const std::vector<std::string>& values,
                            Emitter& out) const {
  out.emit(key, std::to_string(sum_values(values)));
  return true;
}

CostModel CountRangeApp::cost() const {
  CostModel c;
  c.map_flops_per_byte = 12.0;
  c.reduce_flops_per_byte = 6.0;
  c.map_output_ratio = 0.9;
  c.reduce_output_ratio = 1e-4;  // a handful of buckets
  return c;
}

// --- grep_bloom ----------------------------------------------------------------

void GrepBloomApp::map(std::string_view chunk, Emitter& out) const {
  const auto [id, body] = split_chunk_header(chunk);
  (void)id;
  common::BloomFilter filter(filter_bits_, 4);
  bool any = false;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) eol = body.size();
    const std::string_view line = body.substr(pos, eol - pos);
    if (line.find(pattern_) != std::string_view::npos) {
      filter.add(line);
      any = true;
    }
    pos = eol + 1;
  }
  if (any) out.emit("matches", filter.serialize());
}

void GrepBloomApp::reduce(const std::string& key,
                          const std::vector<std::string>& values,
                          Emitter& out) const {
  common::BloomFilter merged(filter_bits_, 4);
  for (const auto& v : values) {
    merged.merge(common::BloomFilter::parse(v));
  }
  out.emit(key, merged.serialize());
}

CostModel GrepBloomApp::cost() const {
  CostModel c;
  c.map_flops_per_byte = 10.0;
  c.reduce_flops_per_byte = 4.0;
  // Output is the fixed-size filter, independent of matches: tiny ratios.
  c.map_output_ratio = 0.0002;
  c.reduce_output_ratio = 0.05;
  return c;
}

// --- page_rank -----------------------------------------------------------------

void PageRankApp::map(std::string_view chunk, Emitter& out) const {
  const auto [id, body] = split_chunk_header(chunk);
  (void)id;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) eol = body.size();
    const std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t sep = line.find(' ');
    if (sep == std::string_view::npos) continue;
    const std::string node(line.substr(0, sep));
    const std::string_view payload = line.substr(sep + 1);
    const std::size_t bar = payload.find('|');
    if (bar == std::string_view::npos) continue;
    double rank = 0;
    if (!common::parse_double(payload.substr(0, bar), &rank)) continue;
    const std::string links(payload.substr(bar + 1));

    // Preserve the link structure for the next iteration.
    out.emit(node, "L|" + links);

    // Distribute this node's rank over its out-links.
    if (links.empty()) continue;
    const std::vector<std::string> targets = common::split(links, ',');
    const double share = rank / static_cast<double>(targets.size());
    const std::string share_str = common::strprintf("C%.9f", share);
    for (const auto& t : targets) {
      if (!t.empty()) out.emit(t, share_str);
    }
  }
}

void PageRankApp::reduce(const std::string& key,
                         const std::vector<std::string>& values,
                         Emitter& out) const {
  double sum = 0;
  std::string links;
  for (const auto& v : values) {
    if (v.size() >= 2 && v[0] == 'L' && v[1] == '|') {
      links = v.substr(2);
    } else if (!v.empty() && v[0] == 'C') {
      double share = 0;
      if (common::parse_double(v.substr(1), &share)) sum += share;
    }
  }
  // Unnormalised damped update, the standard MapReduce-example form.
  out.emit(key, common::strprintf("%.9f", 0.15 + 0.85 * sum) + "|" + links);
}

CostModel PageRankApp::cost() const {
  CostModel c;
  c.map_flops_per_byte = 20.0;
  c.reduce_flops_per_byte = 12.0;
  c.map_output_ratio = 1.6;   // link list + one share per edge
  c.reduce_output_ratio = 0.6;
  return c;
}

// --- length_histogram -------------------------------------------------------------

void LengthHistogramApp::map(std::string_view chunk, Emitter& out) const {
  const auto [id, body] = split_chunk_header(chunk);
  (void)id;
  for_each_word(body, [&out](const std::string& w) {
    out.emit("len" + std::to_string(std::min<std::size_t>(w.size(), 20)), "1");
  });
}

void LengthHistogramApp::reduce(const std::string& key,
                                const std::vector<std::string>& values,
                                Emitter& out) const {
  out.emit(key, std::to_string(sum_values(values)));
}

bool LengthHistogramApp::combine(const std::string& key,
                                 const std::vector<std::string>& values,
                                 Emitter& out) const {
  out.emit(key, std::to_string(sum_values(values)));
  return true;
}

CostModel LengthHistogramApp::cost() const {
  CostModel c;
  c.map_flops_per_byte = 25.0;
  c.reduce_flops_per_byte = 10.0;
  c.map_output_ratio = 1.1;
  c.reduce_output_ratio = 1e-5;     // ~21 keys total
  return c;
}

}  // namespace vcmr::mr
