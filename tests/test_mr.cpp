// Tests for the MapReduce framework: KV wire format, partitioning, input
// splitting, corpus generation, task execution in both modes, the apps,
// and the reference suite that pins the flat map/combine/reduce kernel to
// the std::map execution path it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <set>

#include "common/error.h"
#include "common/strings.h"
#include "mr/app.h"
#include "mr/apps.h"
#include "mr/dataset.h"
#include "mr/keyvalue.h"
#include "mr/local_runtime.h"
#include "mr/partition.h"
#include "mr/task.h"

namespace vcmr::mr {
namespace {

// --- Reference kernel ---------------------------------------------------------
//
// The materialised execution path before the flat kernel, kept verbatim:
// parse_kvs builds a KeyValue per line, group_by_key copies every record
// into a std::map, the combiner runs into a fresh Emitter per key, and
// records are moved into per-reducer buckets before serialising.

std::vector<KeyValue> reference_parse_kvs(std::string_view payload) {
  std::vector<KeyValue> out;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t sep = line.find(' ');
    if (sep == std::string_view::npos || sep == 0) continue;
    out.push_back({std::string(line.substr(0, sep)),
                   std::string(line.substr(sep + 1))});
  }
  return out;
}

std::map<std::string, std::vector<std::string>> group_by_key(
    const std::vector<KeyValue>& kvs) {
  std::map<std::string, std::vector<std::string>> out;
  for (const auto& kv : kvs) out[kv.key].push_back(kv.value);
  return out;
}

std::vector<KeyValue> reference_maybe_combine(const MapReduceApp& app,
                                              std::vector<KeyValue> records,
                                              bool use_combiner) {
  if (!use_combiner) return records;
  Emitter out;
  bool any = false;
  for (auto& [key, values] : group_by_key(records)) {
    Emitter one;
    if (!app.combine(key, values, one)) return records;  // no combiner
    any = true;
    for (auto& kv : one.take()) out.emit(std::move(kv.key), std::move(kv.value));
  }
  return any ? out.take() : records;
}

MapTaskResult reference_map_task(const MapReduceApp& app,
                                 const FilePayload& input, int n_reducers,
                                 bool use_combiner = true) {
  require(input.materialised(), "reference_map_task: materialised only");
  MapTaskResult res;
  res.flops = app.cost().map_flops_per_byte * static_cast<double>(input.size);
  res.partitions.resize(static_cast<std::size_t>(n_reducers));

  Emitter emitter;
  app.map(*input.content, emitter);
  std::vector<KeyValue> records =
      reference_maybe_combine(app, emitter.take(), use_combiner);

  std::vector<std::vector<KeyValue>> buckets(
      static_cast<std::size_t>(n_reducers));
  for (auto& kv : records) {
    buckets[static_cast<std::size_t>(partition_of(kv.key, n_reducers))]
        .push_back(std::move(kv));
  }
  common::Hasher all;
  for (int p = 0; p < n_reducers; ++p) {
    std::string payload = serialize_kvs(buckets[static_cast<std::size_t>(p)]);
    all.update(payload);
    res.partitions[static_cast<std::size_t>(p)] =
        FilePayload::of_content(std::move(payload));
  }
  res.digest = all.digest();
  return res;
}

ReduceTaskResult reference_reduce_task(const MapReduceApp& app,
                                       const std::vector<FilePayload>& inputs) {
  ReduceTaskResult res;
  Bytes total_in = 0;
  for (const auto& in : inputs) {
    require(in.materialised(), "reference_reduce_task: materialised only");
    total_in += in.size;
  }
  res.flops = app.cost().reduce_flops_per_byte * static_cast<double>(total_in);

  std::vector<KeyValue> records;
  for (const auto& in : inputs) {
    auto kvs = reference_parse_kvs(*in.content);
    records.insert(records.end(), std::make_move_iterator(kvs.begin()),
                   std::make_move_iterator(kvs.end()));
  }
  Emitter out;
  for (auto& [key, values] : group_by_key(records)) {
    app.reduce(key, values, out);
  }
  res.output = FilePayload::of_content(serialize_kvs(out.records()));
  res.digest = res.output.digest;
  return res;
}

TEST(KeyValue, SerializeParseRoundTrip) {
  const std::vector<KeyValue> kvs{{"alpha", "1"}, {"beta", "2 extra"}, {"g", ""}};
  const auto back = parse_kvs(serialize_kvs(kvs));
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].key, "alpha");
  EXPECT_EQ(back[1].value, "2 extra");  // values may contain spaces
  EXPECT_EQ(back[2].value, "");
}

TEST(KeyValue, PaperLineFormat) {
  // §IV.A: "outputs one line per word, with the format 'word 1'".
  EXPECT_EQ(serialize_kvs({{"test", "1"}}), "test 1\n");
}

TEST(KeyValue, MalformedLinesSkipped) {
  const auto kvs = parse_kvs("good 1\nnoseparator\n 2\n\nalso fine\n");
  ASSERT_EQ(kvs.size(), 2u);
  EXPECT_EQ(kvs[0].key, "good");
  EXPECT_EQ(kvs[1].key, "also");
}

TEST(KeyValue, GroupByKey) {
  const auto groups =
      group_by_key({{"b", "1"}, {"a", "2"}, {"b", "3"}, {"a", "4"}});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups.at("a"), (std::vector<std::string>{"2", "4"}));
  EXPECT_EQ(groups.at("b"), (std::vector<std::string>{"1", "3"}));
}

using Groups = std::vector<std::pair<std::string, std::vector<std::string>>>;

Groups groups_of(const std::vector<KeyValue>& kvs) {
  std::vector<KeyValueView> views;
  for (const auto& kv : kvs) views.push_back({kv.key, kv.value});
  Groups out;
  EXPECT_TRUE(for_each_group(views, [&out](const std::string& key,
                                           const std::vector<std::string>& vs) {
    out.emplace_back(key, vs);
    return true;
  }));
  return out;
}

TEST(KeyValue, ForEachGroupKeysAscendingValuesInRecordOrder) {
  const Groups groups =
      groups_of({{"b", "1"}, {"a", "2"}, {"b", "3"}, {"a", "4"}, {"c", ""}});
  const Groups want{{"a", {"2", "4"}}, {"b", {"1", "3"}}, {"c", {""}}};
  EXPECT_EQ(groups, want);
  EXPECT_TRUE(groups_of({}).empty());
}

TEST(KeyValue, ForEachGroupOrdersBytesAsStdString) {
  // std::string orders bytes as unsigned char: 0x80+ sorts after ASCII,
  // and a prefix before its extensions.
  const std::vector<KeyValue> kvs{{"\xff", "1"}, {"ab", "2"}, {"a", "3"},
                                  {"\x80z", "4"}, {"B", "5"}, {"a", "6"}};
  const Groups groups = groups_of(kvs);
  const auto ref = group_by_key(kvs);
  ASSERT_EQ(groups.size(), ref.size());
  std::size_t i = 0;
  for (const auto& [key, values] : ref) {
    EXPECT_EQ(groups[i].first, key);
    EXPECT_EQ(groups[i].second, values);
    ++i;
  }
}

TEST(KeyValue, ForEachGroupMatchesMapOnRandomRecords) {
  common::Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<KeyValue> kvs;
    const int n = static_cast<int>(rng.uniform_int(0, 3000));
    const int keyspace = static_cast<int>(rng.uniform_int(1, 500));
    for (int i = 0; i < n; ++i) {
      const auto k = rng.uniform_int(0, keyspace);
      kvs.push_back({"k" + std::to_string(k * 7919 % 1009),
                     std::string(static_cast<std::size_t>(k % 40), 'v') +
                         std::to_string(i)});
    }
    const Groups groups = groups_of(kvs);
    const auto ref = group_by_key(kvs);
    ASSERT_EQ(groups.size(), ref.size());
    std::size_t i = 0;
    for (const auto& [key, values] : ref) {
      ASSERT_EQ(groups[i].first, key);
      ASSERT_EQ(groups[i].second, values);
      ++i;
    }
  }
}

TEST(KeyValue, ForEachGroupStopsWhenFnReturnsFalse) {
  const std::vector<KeyValue> kvs{{"c", "1"}, {"a", "2"}, {"b", "3"}};
  std::vector<KeyValueView> views;
  for (const auto& kv : kvs) views.push_back({kv.key, kv.value});
  std::vector<std::string> seen;
  EXPECT_FALSE(for_each_group(views, [&seen](const std::string& key,
                                             const std::vector<std::string>&) {
    seen.push_back(key);
    return key != "b";
  }));
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
}

TEST(Partition, StableAndInRange) {
  for (const char* key : {"alpha", "beta", "gamma", "", "x"}) {
    const int p = partition_of(key, 7);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 7);
    EXPECT_EQ(p, partition_of(key, 7));
  }
}

TEST(Partition, RoughlyBalanced) {
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 80000; ++i) {
    ++counts[static_cast<std::size_t>(
        partition_of("word" + std::to_string(i), 8))];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / 80000.0, 0.125, 0.01);
  }
}

TEST(Partition, InvalidReducerCountThrows) {
  EXPECT_THROW(partition_of("x", 0), Error);
}

TEST(Dataset, SplitTextPreservesWords) {
  const std::string text = "one two three four five six seven eight";
  const auto chunks = split_text(text, 3);
  ASSERT_EQ(chunks.size(), 3u);
  // Concatenating the bodies (headers stripped) must reproduce every word.
  std::string merged;
  for (const auto& c : chunks) {
    const auto eol = c.find('\n');
    merged += c.substr(eol + 1);
  }
  EXPECT_EQ(common::split_ws(merged), common::split_ws(text));
}

TEST(Dataset, SplitTextHeadersCarryChunkIds) {
  const auto chunks = split_text("a b c d", 2);
  EXPECT_TRUE(chunks[0].starts_with("#chunk 0\n"));
  EXPECT_TRUE(chunks[1].starts_with("#chunk 1\n"));
}

TEST(Dataset, SplitTextNeverCutsWords) {
  const std::string text(1000, 'x');  // one giant word
  const auto chunks = split_text(text, 4);
  int nonempty = 0;
  for (const auto& c : chunks) {
    if (c.find('x') != std::string::npos) ++nonempty;
  }
  EXPECT_EQ(nonempty, 1);  // the word lands whole in a single chunk
}

TEST(Dataset, SplitSizesSumAndBalance) {
  const auto sizes = split_sizes(1000, 3);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0] + sizes[1] + sizes[2], 1000);
  for (const Bytes s : sizes) {
    EXPECT_GE(s, 333);
    EXPECT_LE(s, 334);
  }
}

TEST(Dataset, ZipfCorpusDeterministicAndSized) {
  common::Rng r1(5), r2(5);
  const ZipfCorpus corpus;
  const std::string a = corpus.generate(10000, r1);
  const std::string b = corpus.generate(10000, r2);
  EXPECT_EQ(a, b);
  EXPECT_GE(a.size(), 10000u);
  EXPECT_LT(a.size(), 11000u);
  EXPECT_EQ(a.back(), '\n');
}

TEST(Dataset, ZipfWordForRankDistinct) {
  std::set<std::string> words;
  for (int i = 1; i <= 1000; ++i) words.insert(ZipfCorpus::word_for_rank(i));
  EXPECT_EQ(words.size(), 1000u);
}

TEST(Apps, WordCountMapEmitsOnes) {
  WordCountApp app;
  Emitter out;
  app.map("Hello, hello world!", out);
  ASSERT_EQ(out.records().size(), 3u);
  EXPECT_EQ(out.records()[0].key, "hello");  // lowercased
  EXPECT_EQ(out.records()[0].value, "1");
  EXPECT_EQ(out.records()[2].key, "world");
}

TEST(Apps, WordCountReduceSums) {
  WordCountApp app;
  Emitter out;
  app.reduce("w", {"1", "2", "3"}, out);
  ASSERT_EQ(out.records().size(), 1u);
  EXPECT_EQ(out.records()[0].value, "6");
}

TEST(Apps, WordCountCombinerMatchesReduce) {
  WordCountApp app;
  Emitter c, r;
  EXPECT_TRUE(app.combine("w", {"1", "1", "1"}, c));
  app.reduce("w", {"1", "1", "1"}, r);
  EXPECT_EQ(c.records(), r.records());
}

TEST(Apps, GrepCountsMatchingLines) {
  GrepApp app("needle");
  Emitter out;
  app.map("no match\nneedle here\nalso needle\n", out);
  ASSERT_EQ(out.records().size(), 1u);
  EXPECT_EQ(out.records()[0].key, "needle");
  EXPECT_EQ(out.records()[0].value, "2");
}

TEST(Apps, GrepNoMatchEmitsNothing) {
  GrepApp app("absent");
  Emitter out;
  app.map("nothing to see\n", out);
  EXPECT_TRUE(out.records().empty());
}

TEST(Apps, InvertedIndexUsesChunkIds) {
  InvertedIndexApp app;
  Emitter m0, m1;
  app.map("#chunk 0\nfoo bar", m0);
  app.map("#chunk 5\nfoo baz", m1);
  std::vector<KeyValue> all = m0.take();
  for (auto& kv : m1.take()) all.push_back(kv);
  Emitter out;
  for (auto& [k, vs] : group_by_key(all)) app.reduce(k, vs, out);
  std::map<std::string, std::string> posting;
  for (const auto& kv : out.records()) posting[kv.key] = kv.value;
  EXPECT_EQ(posting.at("foo"), "0,5");
  EXPECT_EQ(posting.at("bar"), "0");
  EXPECT_EQ(posting.at("baz"), "5");
}

TEST(Apps, LengthHistogramBuckets) {
  LengthHistogramApp app;
  Emitter out;
  app.map("a bb ccc", out);
  ASSERT_EQ(out.records().size(), 3u);
  EXPECT_EQ(out.records()[0].key, "len1");
  EXPECT_EQ(out.records()[2].key, "len3");
}

TEST(Apps, RegistryHasBuiltins) {
  register_builtin_apps();
  auto& reg = AppRegistry::instance();
  EXPECT_NE(reg.find("word_count"), nullptr);
  EXPECT_NE(reg.find("grep"), nullptr);
  EXPECT_NE(reg.find("inverted_index"), nullptr);
  EXPECT_NE(reg.find("length_histogram"), nullptr);
  EXPECT_EQ(reg.find("no_such_app"), nullptr);
  register_builtin_apps();  // idempotent
  EXPECT_GE(reg.names().size(), 4u);
}

TEST(Apps, PageRankSingleIteration) {
  PageRankApp app;
  // a -> b,c ; b -> c ; c -> a   (ranks all 1.0)
  const std::string graph = "a 1.0|b,c\nb 1.0|c\nc 1.0|a\n";
  Emitter m;
  app.map(graph, m);
  Emitter out;
  for (auto& [k, vs] : group_by_key(m.records())) app.reduce(k, vs, out);
  std::map<std::string, std::string> next;
  for (const auto& kv : out.records()) next[kv.key] = kv.value;
  // a receives c's full rank: 0.15 + 0.85*1.0 = 1.0
  EXPECT_TRUE(next.at("a").starts_with("1.0000"));
  // b receives half of a: 0.15 + 0.85*0.5 = 0.575
  EXPECT_TRUE(next.at("b").starts_with("0.5750"));
  // c receives half of a + all of b: 0.15 + 0.85*1.5 = 1.425
  EXPECT_TRUE(next.at("c").starts_with("1.4250"));
  // Link lists survive the iteration.
  EXPECT_NE(next.at("a").find("|b,c"), std::string::npos);
  EXPECT_NE(next.at("c").find("|a"), std::string::npos);
}

TEST(Apps, PageRankDanglingNodeKeepsBaseRank) {
  PageRankApp app;
  const std::string graph = "a 1.0|b\nb 1.0|\n";  // b has no out-links
  Emitter m;
  app.map(graph, m);
  Emitter out;
  for (auto& [k, vs] : group_by_key(m.records())) app.reduce(k, vs, out);
  std::map<std::string, std::string> next;
  for (const auto& kv : out.records()) next[kv.key] = kv.value;
  // a gets nothing: 0.15; b gets all of a: 1.0.
  EXPECT_TRUE(next.at("a").starts_with("0.1500"));
  EXPECT_TRUE(next.at("b").starts_with("1.0000"));
}

TEST(Dataset, SyntheticGraphWellFormed) {
  common::Rng rng(6);
  const std::string g = synthetic_graph(50, 3, rng);
  const auto lines = common::split(g, '\n');
  int nodes = 0;
  for (const auto& line : lines) {
    if (line.empty()) continue;
    ++nodes;
    const auto sep = line.find(' ');
    ASSERT_NE(sep, std::string::npos) << line;
    const auto bar = line.find('|', sep);
    ASSERT_NE(bar, std::string::npos) << line;
    const std::string node = line.substr(0, sep);
    const std::string links = line.substr(bar + 1);
    ASSERT_FALSE(links.empty()) << "every node has out-links";
    for (const auto& t : common::split(links, ',')) {
      EXPECT_NE(t, node) << "no self-loops";
      EXPECT_TRUE(t.starts_with("n"));
    }
  }
  EXPECT_EQ(nodes, 50);
}

TEST(Dataset, SyntheticGraphDeterministic) {
  common::Rng r1(9), r2(9);
  EXPECT_EQ(synthetic_graph(30, 2, r1), synthetic_graph(30, 2, r2));
}

TEST(Task, MapMaterialisedPartitionsByHash) {
  WordCountApp app;
  const auto input = FilePayload::of_content("aa bb cc dd aa");
  const MapTaskResult r = run_map_task(app, input, 3, "t0");
  ASSERT_EQ(r.partitions.size(), 3u);
  // Every record landed in the partition its key hashes to.
  for (int p = 0; p < 3; ++p) {
    for (const auto& kv :
         parse_kvs(*r.partitions[static_cast<std::size_t>(p)].content)) {
      EXPECT_EQ(partition_of(kv.key, 3), p);
    }
  }
  EXPECT_GT(r.flops, 0);
}

TEST(Task, MapReplicasAgree) {
  WordCountApp app;
  const auto input = FilePayload::of_content("the same input text");
  const MapTaskResult a = run_map_task(app, input, 2, "wu_tag");
  const MapTaskResult b = run_map_task(app, input, 2, "wu_tag");
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(*a.partitions[0].content, *b.partitions[0].content);
}

TEST(Task, MapModelledSizesFollowCostModel) {
  WordCountApp app;
  const auto input = FilePayload::of_size(1'000'000, common::Hasher::of("i"));
  const MapTaskResult r = run_map_task(app, input, 4, "wu_tag");
  Bytes total = 0;
  for (const auto& p : r.partitions) {
    EXPECT_FALSE(p.materialised());
    total += p.size;
  }
  EXPECT_NEAR(static_cast<double>(total),
              1'000'000 * app.cost().map_output_ratio, 4.0);
}

TEST(Task, ModelledReplicasAgreeDifferentTagsDiffer) {
  WordCountApp app;
  const auto input = FilePayload::of_size(1000, common::Hasher::of("i"));
  const MapTaskResult a = run_map_task(app, input, 2, "wu0");
  const MapTaskResult b = run_map_task(app, input, 2, "wu0");
  const MapTaskResult c = run_map_task(app, input, 2, "wu1");
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.digest, c.digest);
}

TEST(Task, ReduceMaterialisedSumsAcrossMaps) {
  WordCountApp app;
  std::vector<FilePayload> ins;
  ins.push_back(FilePayload::of_content("w 2\n"));
  ins.push_back(FilePayload::of_content("w 3\nz 1\n"));
  const ReduceTaskResult r = run_reduce_task(app, ins, "r0");
  const auto kvs = parse_kvs(*r.output.content);
  ASSERT_EQ(kvs.size(), 2u);
  EXPECT_EQ(kvs[0].key, "w");
  EXPECT_EQ(kvs[0].value, "5");
  EXPECT_EQ(kvs[1].value, "1");
}

TEST(Task, ReduceModelledWhenAnyInputUnmaterialised) {
  WordCountApp app;
  std::vector<FilePayload> ins;
  ins.push_back(FilePayload::of_content("w 2\n"));
  ins.push_back(FilePayload::of_size(1000, common::Hasher::of("m")));
  const ReduceTaskResult r = run_reduce_task(app, ins, "r0");
  EXPECT_FALSE(r.output.materialised());
  EXPECT_GT(r.flops, 0);
}

TEST(Task, CombinerShrinksWordCountOutput) {
  WordCountApp app;
  std::string text;
  for (int i = 0; i < 200; ++i) text += "same word again ";
  const auto input = FilePayload::of_content(text);
  const MapTaskResult with =
      run_map_task(app, input, 1, "t", /*use_combiner=*/true);
  const MapTaskResult without =
      run_map_task(app, input, 1, "t", /*use_combiner=*/false);
  EXPECT_LT(with.partitions[0].size, without.partitions[0].size / 10);
}


// --- Reference suite: the flat kernel against the std::map path --------------

/// Reduce emits each key's values verbatim, joined by '|'; map re-emits its
/// input lines; the combiner concatenates too, but declines (returns false)
/// at the first key >= `decline_from`.
class EchoApp : public MapReduceApp {
 public:
  explicit EchoApp(std::string decline_from = "\xff\xff")
      : decline_from_(std::move(decline_from)) {}
  std::string name() const override { return "echo"; }
  void map(std::string_view chunk, Emitter& out) const override {
    for (auto& kv : parse_kvs(chunk)) out.emit(kv.key, kv.value);
  }
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) const override {
    std::string joined;
    for (const auto& v : values) joined += "|" + v;
    out.emit(key, joined);
  }
  bool combine(const std::string& key, const std::vector<std::string>& values,
               Emitter& out) const override {
    reduce(key, values, out);
    return key < decline_from_;
  }

 private:
  std::string decline_from_;
};

enum class InputKind { kText, kCounts, kGraph };

struct AppCase {
  std::shared_ptr<const MapReduceApp> app;
  InputKind input;
};

/// Every built-in app; the grep patterns are syllables of the synthetic
/// corpus, so both grep flavours see matches.
std::vector<AppCase> builtin_apps() {
  return {{std::make_shared<WordCountApp>(), InputKind::kText},
          {std::make_shared<GrepApp>("ce"), InputKind::kText},
          {std::make_shared<InvertedIndexApp>(), InputKind::kText},
          {std::make_shared<CountRangeApp>(), InputKind::kCounts},
          {std::make_shared<GrepBloomApp>("ce", 512), InputKind::kText},
          {std::make_shared<PageRankApp>(), InputKind::kGraph},
          {std::make_shared<LengthHistogramApp>(), InputKind::kText}};
}

std::string context(const MapReduceApp& app, int n_reducers, bool combiner) {
  return app.name() + " R=" + std::to_string(n_reducers) +
         (combiner ? " combiner" : " no combiner");
}

void expect_same_map(const MapTaskResult& got, const MapTaskResult& want,
                     const std::string& what) {
  ASSERT_EQ(got.partitions.size(), want.partitions.size()) << what;
  for (std::size_t p = 0; p < want.partitions.size(); ++p) {
    ASSERT_TRUE(got.partitions[p].materialised()) << what;
    EXPECT_EQ(*got.partitions[p].content, *want.partitions[p].content)
        << what << " partition " << p;
    EXPECT_EQ(got.partitions[p].digest, want.partitions[p].digest) << what;
    EXPECT_EQ(got.partitions[p].size, want.partitions[p].size) << what;
  }
  EXPECT_EQ(got.digest, want.digest) << what;
  EXPECT_EQ(got.flops, want.flops) << what;
}

void expect_same_reduce(const ReduceTaskResult& got,
                        const ReduceTaskResult& want, const std::string& what) {
  ASSERT_TRUE(got.output.materialised()) << what;
  EXPECT_EQ(*got.output.content, *want.output.content) << what;
  EXPECT_EQ(got.digest, want.digest) << what;
  EXPECT_EQ(got.output.size, want.output.size) << what;
  EXPECT_EQ(got.flops, want.flops) << what;
}

/// Map over every chunk and reduce every partition on both paths; returns
/// the reference reduce outputs.
std::vector<std::string> expect_same_job(const MapReduceApp& app,
                                         const std::vector<std::string>& chunks,
                                         int n_reducers, bool combiner) {
  const std::string what = context(app, n_reducers, combiner);
  std::vector<MapTaskResult> maps;
  for (std::size_t m = 0; m < chunks.size(); ++m) {
    const auto in = FilePayload::of_content(chunks[m]);
    maps.push_back(reference_map_task(app, in, n_reducers, combiner));
    expect_same_map(run_map_task(app, in, n_reducers, "t", combiner),
                    maps.back(), what + " map " + std::to_string(m));
  }
  std::vector<std::string> outputs;
  for (int r = 0; r < n_reducers; ++r) {
    std::vector<FilePayload> inputs;
    for (const auto& m : maps) {
      inputs.push_back(m.partitions[static_cast<std::size_t>(r)]);
    }
    const ReduceTaskResult want = reference_reduce_task(app, inputs);
    expect_same_reduce(run_reduce_task(app, inputs, "r"), want,
                       what + " reduce " + std::to_string(r));
    outputs.push_back(*want.output.content);
  }
  return outputs;
}

TEST(ReferenceSuite, EveryBuiltinAppOnSeededZipfCorpora) {
  constexpr int kSeeds = 24;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(static_cast<std::uint64_t>(seed));
    ZipfOptions opts;
    opts.vocabulary = 30 + 60 * seed;
    opts.exponent = 0.9 + 0.05 * (seed % 8);
    opts.words_per_line = 3 + seed % 10;
    const std::string text =
        ZipfCorpus(opts).generate(1500 + 250 * seed, rng);
    const std::string graph = synthetic_graph(10 + 3 * seed, 1 + seed % 4, rng);
    const int n_maps = 1 + seed % 4;
    // Word-count output is count_range's input.
    WordCountApp wc;
    std::string counts;
    for (const auto& out : expect_same_job(wc, split_text(text, n_maps), 3, true)) {
      counts += out;
    }

    for (const AppCase& c : builtin_apps()) {
      const std::string& input = c.input == InputKind::kText     ? text
                                 : c.input == InputKind::kCounts ? counts
                                                                 : graph;
      const std::vector<std::string> chunks = split_text(input, n_maps);
      for (const int n_reducers : {1, 3, 10}) {
        for (const bool combiner : {true, false}) {
          const std::vector<std::string> want =
              expect_same_job(*c.app, chunks, n_reducers, combiner);
          LocalJobOptions local;
          local.n_maps = n_maps;
          local.n_reducers = n_reducers;
          local.n_threads = 2;
          local.use_combiner = combiner;
          const LocalJobResult got = run_local(*c.app, input, local);
          EXPECT_EQ(got.reduce_outputs, want)
              << context(*c.app, n_reducers, combiner) << " run_local";
          std::vector<KeyValue> merged;
          for (const auto& out : want) {
            for (auto& kv : reference_parse_kvs(out)) merged.push_back(kv);
          }
          std::sort(merged.begin(), merged.end());
          EXPECT_EQ(got.output, merged)
              << context(*c.app, n_reducers, combiner) << " run_local";
        }
      }
    }
  }
}

TEST(ReferenceSuite, EmptyAndSeparatorOnlyChunks) {
  for (const AppCase& c : builtin_apps()) {
    for (const bool combiner : {true, false}) {
      expect_same_job(*c.app, {"", "#chunk 3\n", " ,.;\n\t\n  -- !? \n"}, 3,
                      combiner);
    }
  }
}

TEST(ReferenceSuite, HighBytesMixedCaseAndDigits) {
  const std::vector<std::string> chunks{
      "#chunk 1\nHello HELLO hello h3llo 123 007abc ABC\xff\x80zz caf\xc3\xa9\n",
      "MiXeD\xc3\x89T\xc3\x89 9Lives \x80\x81\xfe \xffQ\xff q 42 42 Zz zZ\n",
      "#chunk 2\nce cE CE Ce bace ceba\nno pattern here\n"};
  for (const AppCase& c : builtin_apps()) {
    if (c.input != InputKind::kText) continue;
    for (const int n_reducers : {1, 3, 10}) {
      expect_same_job(*c.app, chunks, n_reducers, true);
    }
  }
}

TEST(ReferenceSuite, MalformedReduceLines) {
  std::vector<FilePayload> inputs{
      FilePayload::of_content("noseparator\n 2\nw 1\n\nlast 3"),
      FilePayload::of_content(" lead 1\nw 2\nx\nw 5\n\n"),
      FilePayload::of_content("last 4\n\n\n  \nw 6")};
  for (const AppCase& c : builtin_apps()) {
    if (c.app->name() == "grep_bloom") continue;  // values are filters
    expect_same_reduce(run_reduce_task(*c.app, inputs, "r"),
                       reference_reduce_task(*c.app, inputs), c.app->name());
  }
  EchoApp echo;
  const ReduceTaskResult got = run_reduce_task(echo, inputs, "r");
  expect_same_reduce(got, reference_reduce_task(echo, inputs), "echo");
  EXPECT_EQ(*got.output.content, "last |3|4\nw |1|2|5|6\n");
}

TEST(ReferenceSuite, EmptyValuesAndValuesWithSpaces) {
  std::vector<FilePayload> inputs{
      FilePayload::of_content("k \nk a b  c\nj  x\nk  \n"),
      FilePayload::of_content("j \nk trailing space \nj L|a,b\n")};
  for (const AppCase& c : builtin_apps()) {
    if (c.app->name() == "grep_bloom") continue;
    expect_same_reduce(run_reduce_task(*c.app, inputs, "r"),
                       reference_reduce_task(*c.app, inputs), c.app->name());
  }
  EchoApp echo;
  const ReduceTaskResult got = run_reduce_task(echo, inputs, "r");
  expect_same_reduce(got, reference_reduce_task(echo, inputs), "echo");
  EXPECT_EQ(*got.output.content,
            "j | x||L|a,b\nk ||a b  c| |trailing space \n");
  // The same records through map, combiner and partitioning.
  std::vector<std::string> chunks;
  for (const auto& in : inputs) chunks.push_back(*in.content);
  for (const int n_reducers : {1, 3}) {
    for (const bool combiner : {true, false}) {
      expect_same_job(echo, chunks, n_reducers, combiner);
    }
  }
}

TEST(ReferenceSuite, CombinerThatReturnsFalseKeepsMapOutput) {
  const std::string chunk = "z 1\nb 2\nm 3\na 4\nb 5\ny 6\nm 7\n";
  const auto in = FilePayload::of_content(chunk);
  // Declines at "m": "a" and "b" were combined first, and are dropped.
  const EchoApp declines("m");
  for (const int n_reducers : {1, 3}) {
    const MapTaskResult got = run_map_task(declines, in, n_reducers, "t", true);
    expect_same_map(got, reference_map_task(declines, in, n_reducers, true),
                    "declines at m");
    expect_same_map(got, run_map_task(declines, in, n_reducers, "t", false),
                    "declines at m vs no combiner");
  }
  EXPECT_EQ(*run_map_task(declines, in, 1, "t", true).partitions[0].content,
            chunk);
  // Combines every key: one line per key, ascending.
  const EchoApp combines;
  const MapTaskResult all = run_map_task(combines, in, 1, "t", true);
  expect_same_map(all, reference_map_task(combines, in, 1, true), "combines");
  EXPECT_EQ(*all.partitions[0].content,
            "a |4\nb |2|5\nm |3|7\ny |6\nz |1\n");
}

TEST(ReferenceSuite, TokenizerTableMatchesCLibraryForEveryByte) {
  // Each byte between two letters either joins them into one lowercased
  // word or separates them, exactly as std::isalnum/std::tolower say.
  WordCountApp app;
  for (int b = 0; b < 256; ++b) {
    std::string chunk = "xby";
    chunk[1] = static_cast<char>(b);
    Emitter out;
    app.map(chunk, out);
    std::vector<KeyValue> want;
    if (std::isalnum(b)) {
      want.push_back({std::string{'x', static_cast<char>(std::tolower(b)), 'y'}, "1"});
    } else {
      want = {{"x", "1"}, {"y", "1"}};
    }
    EXPECT_EQ(out.records(), want) << "byte " << b;
  }
}

}  // namespace
}  // namespace vcmr::mr
