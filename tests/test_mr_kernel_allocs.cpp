// Machine-independent gate on the MapReduce kernel's heap traffic: a
// counting global operator new measures the allocations of one word-count
// map task on the perfbench many_tasks chunk shape (a 4 MB Zipf corpus split
// into 400 maps, 10 reducers) and of one reduce over all 400 map outputs
// for a partition. The bounds sit far below what grouping through a
// std::map costs (~2,700 per map task, ~9,600 per reduce), so a return to
// per-record copies fails here.
//
// Its own binary: replacing operator new is program-wide.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "mr/apps.h"
#include "mr/dataset.h"
#include "mr/task.h"

namespace {

std::atomic<std::size_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace vcmr::mr {
namespace {

constexpr std::size_t kMapTaskAllocBound = 64;
constexpr std::size_t kReduceTaskAllocBound = 32;
constexpr int kMaps = 400;
constexpr int kReducers = 10;

/// The many_tasks input at its pinned seed, split as the job splits it.
const std::vector<std::string>& chunks() {
  static const std::vector<std::string> c = [] {
    common::Rng rng = common::RngStreamFactory(1).stream("perfbench/corpus");
    return split_text(ZipfCorpus().generate(4 * 1000 * 1000, rng), kMaps);
  }();
  return c;
}

template <class Fn>
std::size_t allocs_of(Fn&& fn) {
  const std::size_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(MrKernelAllocs, WordCountMapTaskOnManyTasksChunk) {
  const WordCountApp app;
  std::size_t worst = 0;
  for (const int m : {0, 1, 199, 399}) {
    const auto input = FilePayload::of_content(chunks()[static_cast<std::size_t>(m)]);
    MapTaskResult res;
    const std::size_t n =
        allocs_of([&] { res = run_map_task(app, input, kReducers, "map"); });
    std::printf("map task %d (%lld bytes): %zu allocations\n", m,
                static_cast<long long>(input.size), n);
    worst = std::max(worst, n);
  }
  EXPECT_LE(worst, kMapTaskAllocBound);
}

TEST(MrKernelAllocs, WordCountReduceOver400MapOutputs) {
  const WordCountApp app;
  std::vector<MapTaskResult> maps;
  maps.reserve(kMaps);
  for (const auto& chunk : chunks()) {
    maps.push_back(
        run_map_task(app, FilePayload::of_content(chunk), kReducers, "map"));
  }
  std::size_t worst = 0;
  for (const int r : {0, 9}) {
    std::vector<FilePayload> inputs;
    inputs.reserve(maps.size());
    for (const auto& m : maps) inputs.push_back(m.partitions[static_cast<std::size_t>(r)]);
    ReduceTaskResult res;
    const std::size_t n =
        allocs_of([&] { res = run_reduce_task(app, inputs, "reduce"); });
    std::printf("reduce %d (%zu inputs): %zu allocations\n", r, inputs.size(), n);
    worst = std::max(worst, n);
  }
  EXPECT_LE(worst, kReduceTaskAllocBound);
}

}  // namespace
}  // namespace vcmr::mr
