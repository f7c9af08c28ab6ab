#include "mr/task.h"

#include <algorithm>
#include <cstdint>

#include "common/error.h"
#include "mr/keyvalue.h"
#include "mr/partition.h"

namespace vcmr::mr {

namespace {

common::Digest128 modelled_digest(std::string_view tag, int sub = -1) {
  common::Hasher h;
  h.update(tag);
  if (sub >= 0) h.update_u64(static_cast<std::uint64_t>(sub));
  return h.digest();
}

/// Applies the app's combiner to the map output when it has one.
std::vector<KeyValue> maybe_combine(const MapReduceApp& app,
                                    std::vector<KeyValue> records,
                                    bool use_combiner) {
  if (!use_combiner) return records;
  std::vector<KeyValueView> views;
  views.reserve(records.size());
  for (const auto& kv : records) views.push_back({kv.key, kv.value});
  Emitter out;
  const bool combined = for_each_group(
      views, [&](const std::string& key, const std::vector<std::string>& values) {
        return app.combine(key, values, out);
      });
  if (!combined) return records;  // no combiner
  return out.take();
}

}  // namespace

MapTaskResult run_map_task(const MapReduceApp& app, const FilePayload& input,
                           int n_reducers, std::string_view task_tag,
                           bool use_combiner) {
  require(n_reducers >= 1, "run_map_task: need at least one reducer");
  MapTaskResult res;
  res.flops = app.cost().map_flops_per_byte * static_cast<double>(input.size);
  res.partitions.resize(static_cast<std::size_t>(n_reducers));

  if (input.materialised()) {
    Emitter emitter;
    app.map(*input.content, emitter);
    std::vector<KeyValue> records =
        maybe_combine(app, emitter.take(), use_combiner);

    // Each record goes to the partition its key hashes to, in record
    // order; payloads are sized exactly before they are written.
    const auto n_parts = static_cast<std::size_t>(n_reducers);
    std::vector<std::uint32_t> part_of(records.size());
    std::vector<std::size_t> part_bytes(n_parts, 0);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const KeyValue& kv = records[i];
      const auto p = static_cast<std::uint32_t>(partition_of(kv.key, n_reducers));
      part_of[i] = p;
      part_bytes[p] += kv.key.size() + kv.value.size() + 2;
    }
    std::vector<std::string> payloads(n_parts);
    for (std::size_t p = 0; p < n_parts; ++p) payloads[p].reserve(part_bytes[p]);
    for (std::size_t i = 0; i < records.size(); ++i) {
      append_kv(payloads[part_of[i]], records[i].key, records[i].value);
    }
    common::Hasher all;
    for (std::size_t p = 0; p < n_parts; ++p) {
      all.update(payloads[p]);
      res.partitions[p] = FilePayload::of_content(std::move(payloads[p]));
    }
    res.digest = all.digest();
    return res;
  }

  // Modelled mode: total output = input * ratio, split evenly over
  // partitions (hash partitioning balances keys in expectation).
  const auto total_out = static_cast<Bytes>(
      static_cast<double>(input.size) * app.cost().map_output_ratio);
  const std::vector<Bytes> sizes = split_sizes(total_out, n_reducers);
  for (int p = 0; p < n_reducers; ++p) {
    res.partitions[static_cast<std::size_t>(p)] = FilePayload::of_size(
        sizes[static_cast<std::size_t>(p)], modelled_digest(task_tag, p));
  }
  res.digest = modelled_digest(task_tag);
  return res;
}

ReduceTaskResult run_reduce_task(const MapReduceApp& app,
                                 const std::vector<FilePayload>& inputs,
                                 std::string_view task_tag) {
  ReduceTaskResult res;
  Bytes total_in = 0;
  bool all_materialised = !inputs.empty();
  for (const auto& in : inputs) {
    total_in += in.size;
    if (!in.materialised()) all_materialised = false;
  }
  res.flops = app.cost().reduce_flops_per_byte * static_cast<double>(total_in);

  if (all_materialised) {
    // Records borrow the payloads' bytes; one slot per line is enough.
    std::size_t lines = 0;
    for (const auto& in : inputs) {
      lines += static_cast<std::size_t>(
          std::count(in.content->begin(), in.content->end(), '\n')) + 1;
    }
    std::vector<KeyValueView> records;
    records.reserve(lines);
    for (const auto& in : inputs) {
      for_each_kv_line(*in.content, [&records](std::string_view key,
                                               std::string_view value) {
        records.push_back({key, value});
      });
    }
    Emitter out;
    for_each_group(records, [&](const std::string& key,
                                const std::vector<std::string>& values) {
      app.reduce(key, values, out);
      return true;
    });
    res.output = FilePayload::of_content(serialize_kvs(out.records()));
    res.digest = res.output.digest;
    return res;
  }

  const auto out_size = static_cast<Bytes>(
      static_cast<double>(total_in) * app.cost().reduce_output_ratio);
  res.output = FilePayload::of_size(out_size, modelled_digest(task_tag));
  res.digest = res.output.digest;
  return res;
}

}  // namespace vcmr::mr
