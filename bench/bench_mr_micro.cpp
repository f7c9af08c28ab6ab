// E11 — Substrate micro-benchmarks for the MapReduce framework
// (google-benchmark; wall-clock performance of the real execution paths).

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "mr/apps.h"
#include "mr/dataset.h"
#include "mr/local_runtime.h"
#include "mr/partition.h"
#include "mr/task.h"

namespace vcmr::mr {
namespace {

std::string corpus_of(Bytes size) {
  common::Rng rng(42);
  ZipfOptions opts;
  opts.vocabulary = 20000;
  return ZipfCorpus(opts).generate(size, rng);
}

void BM_CorpusGenerate(benchmark::State& state) {
  const Bytes size = state.range(0);
  for (auto _ : state) {
    common::Rng rng(1);
    benchmark::DoNotOptimize(ZipfCorpus().generate(size, rng));
  }
  state.SetBytesProcessed(state.iterations() * size);
}
BENCHMARK(BM_CorpusGenerate)->Arg(64 << 10)->Arg(1 << 20);

void BM_Partition(benchmark::State& state) {
  const std::string key = "representative_word";
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_of(key, 16));
  }
}
BENCHMARK(BM_Partition);

void BM_WordCountMapTask(benchmark::State& state) {
  WordCountApp app;
  const auto input = FilePayload::of_content(corpus_of(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_map_task(app, input, 8, "bench"));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// 10,000 bytes is the perfbench many_tasks chunk (4 MB over 400 maps).
BENCHMARK(BM_WordCountMapTask)->Arg(10000)->Arg(64 << 10)->Arg(1 << 20);

void BM_WordCountReduceTask(benchmark::State& state) {
  WordCountApp app;
  const auto map =
      run_map_task(app, FilePayload::of_content(corpus_of(1 << 20)), 1, "b");
  const std::vector<FilePayload> inputs{map.partitions[0]};
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_reduce_task(app, inputs, "bench"));
  }
  state.SetBytesProcessed(state.iterations() * map.partitions[0].size);
}
BENCHMARK(BM_WordCountReduceTask);

// The many_tasks reduce: one partition of 400 map outputs (a 4 MB corpus
// split into 400 chunks, 10 reducers).
void BM_WordCountReduce400Inputs(benchmark::State& state) {
  WordCountApp app;
  std::vector<FilePayload> inputs;
  Bytes bytes = 0;
  for (const auto& chunk : split_text(corpus_of(4 * 1000 * 1000), 400)) {
    const auto map = run_map_task(app, FilePayload::of_content(chunk), 10, "b");
    inputs.push_back(map.partitions[0]);
    bytes += map.partitions[0].size;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_reduce_task(app, inputs, "bench"));
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_WordCountReduce400Inputs);

void BM_LocalRuntime(benchmark::State& state) {
  register_builtin_apps();
  const MapReduceApp* app = AppRegistry::instance().find("word_count");
  const std::string text = corpus_of(2 << 20);
  LocalJobOptions opts;
  opts.n_maps = 8;
  opts.n_reducers = 4;
  opts.n_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_local(*app, text, opts));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<Bytes>(text.size()));
}
BENCHMARK(BM_LocalRuntime)->Arg(1)->Arg(2)->Arg(4);

void BM_GrepMapTask(benchmark::State& state) {
  GrepApp app("badi");
  const auto input = FilePayload::of_content(corpus_of(1 << 20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_map_task(app, input, 4, "bench"));
  }
  state.SetBytesProcessed(state.iterations() * input.size);
}
BENCHMARK(BM_GrepMapTask);

void BM_InvertedIndexMapTask(benchmark::State& state) {
  InvertedIndexApp app;
  const auto input = FilePayload::of_content(corpus_of(256 << 10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_map_task(app, input, 4, "bench"));
  }
  state.SetBytesProcessed(state.iterations() * input.size);
}
BENCHMARK(BM_InvertedIndexMapTask);

void BM_ModelledMapTask(benchmark::State& state) {
  WordCountApp app;
  const auto input =
      FilePayload::of_size(50LL * 1000 * 1000, common::Hasher::of("i"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_map_task(app, input, 8, "bench"));
  }
}
BENCHMARK(BM_ModelledMapTask);

}  // namespace
}  // namespace vcmr::mr

BENCHMARK_MAIN();
