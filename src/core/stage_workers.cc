#include "core/stage_workers.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/stopwatch.h"
#include "core/state_serde.h"
#include "flow/checkpoint/barrier_aligner.h"
#include "flow/exchange.h"
#include "flow/reorder_buffer.h"
#include "flow/snapshot_assembler.h"
#include "flow/watermark_aligner.h"
#include "pattern/baseline_enumerator.h"
#include "pattern/fixed_bit_enumerator.h"
#include "pattern/streaming_enumerator.h"
#include "pattern/variable_bit_enumerator.h"

namespace comove::core {
namespace {

/// Builds the enumerator `kind` (not kNone) for `constraints`.
std::unique_ptr<pattern::StreamingEnumerator> MakeEnumerator(
    EnumeratorKind kind, const PatternConstraints& constraints,
    pattern::PatternSink sink) {
  switch (kind) {
    case EnumeratorKind::kBA:
      return std::make_unique<pattern::BaselineEnumerator>(constraints,
                                                           std::move(sink));
    case EnumeratorKind::kFBA:
      return std::make_unique<pattern::FixedBitEnumerator>(constraints,
                                                           std::move(sink));
    case EnumeratorKind::kVBA:
      return std::make_unique<pattern::VariableBitEnumerator>(
          constraints, std::move(sink));
    case EnumeratorKind::kNone:
      break;
  }
  COMOVE_CHECK(false);
  return nullptr;
}

}  // namespace

std::vector<CoMovementPattern> MergeFolds(
    std::vector<pattern::PatternCollector>& folds) {
  using Entries = std::map<std::vector<TrajectoryId>, CoMovementPattern>;
  std::vector<Entries> runs;
  runs.reserve(folds.size());
  std::size_t total = 0;
  for (pattern::PatternCollector& fold : folds) {
    total += fold.size();
    runs.push_back(fold.TakeEntries());
  }
  struct Head {
    Entries::iterator next;
    Entries::iterator end;
  };
  std::vector<Head> heads;
  for (Entries& run : runs) {
    if (!run.empty()) heads.push_back(Head{run.begin(), run.end()});
  }
  // A min-heap on each fold's next object set.
  const auto later = [](const Head& a, const Head& b) {
    return b.next->first < a.next->first;
  };
  std::make_heap(heads.begin(), heads.end(), later);
  std::vector<CoMovementPattern> merged;
  merged.reserve(total);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    Head& head = heads.back();
    COMOVE_CHECK_MSG(
        merged.empty() || merged.back().objects < head.next->first,
        "an object set occurs in two enumerate subtasks' folds");
    merged.push_back(std::move(head.next->second));
    if (++head.next == head.end) {
      heads.pop_back();
    } else {
      std::push_heap(heads.begin(), heads.end(), later);
    }
  }
  return merged;
}

void RunSourceSubtask(const trajgen::Dataset& dataset, const StageEnv& env,
                      flow::Transport<GpsRecord>& out) {
  const IcpeOptions& options = *env.options;
  flow::TraceRecorder* const tr = env.tr;
  flow::BatchingSender<GpsRecord> sender(out, 0,
                                         options.exchange_batch_size, tr,
                                         "records");
  const auto throttle = [&] {
    if (options.replay_delay_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options.replay_delay_us));
    }
  };
  if (options.replay_shuffle_window <= 0) {
    Timestamp current = kNoTime;
    std::size_t start_index = 0;
    if (const std::string* bytes = env.restored_state("source", 0)) {
      BinaryReader reader(*bytes);
      start_index = static_cast<std::size_t>(reader.ReadU64());
      current = static_cast<Timestamp>(reader.ReadI64());
      COMOVE_CHECK_MSG(reader.ok() && reader.AtEnd() &&
                           start_index <= dataset.records.size(),
                       "corrupt source checkpoint");
      // The cut fell on a time boundary: the saved `current` equals the
      // resume record's time, so the boundary branch below does not
      // re-fire and no watermark is replayed.
    }
    std::int64_t next_checkpoint = env.restored_id + 1;
    std::int64_t snaps_since_barrier = 0;
    // One "emit" span per snapshot time: first record sent to last (the
    // span a backpressured source shows as stretched).
    std::uint64_t emit_start_ns = tr != nullptr ? tr->NowNs() : 0;
    for (std::size_t i = start_index; i < dataset.records.size(); ++i) {
      const GpsRecord& record = dataset.records[i];
      if (record.time != current) {
        COMOVE_CHECK(record.time > current);
        if (env.crashed->load(std::memory_order_relaxed)) break;
        if (tr != nullptr && current != kNoTime) {
          tr->RecordSpanSince("source", "emit", 0, current, emit_start_ns);
        }
        // No trajectory can be born before this batch's time anymore.
        sender.BroadcastWatermark(record.time - 1);
        current = record.time;
        throttle();
        if (env.checkpointing &&
            ++snaps_since_barrier >= options.checkpoint_interval) {
          snaps_since_barrier = 0;
          // Snapshot the replay offset at the boundary - before any
          // record of `current` - then emit the barrier: everything
          // before index i is the checkpoint's pre-image.
          std::string state;
          BinaryWriter writer(&state);
          writer.WriteU64(i);
          writer.WriteI64(current);
          env.ack(next_checkpoint, "source", 0, std::move(state), nullptr);
          sender.BroadcastBarrier(next_checkpoint);
          ++next_checkpoint;
        }
        if (tr != nullptr) emit_start_ns = tr->NowNs();
      }
      sender.Send(0, record);
    }
    if (current != kNoTime && !env.crashed->load()) {
      if (tr != nullptr) {
        tr->RecordSpanSince("source", "emit", 0, current, emit_start_ns);
      }
      sender.BroadcastWatermark(current);
    }
    sender.Close();
    return;
  }
  // Shuffled replay: flush blocks of `window` consecutive time units in
  // a random permutation; the watermark trails each complete block.
  Rng rng(options.shuffle_seed);
  const Timestamp window = options.replay_shuffle_window;
  std::vector<GpsRecord> block;
  Timestamp block_start = kNoTime;
  auto flush = [&] {
    const std::uint64_t t0 = tr != nullptr ? tr->NowNs() : 0;
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1],
                block[static_cast<std::size_t>(rng.UniformInt(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    Timestamp max_time = kNoTime;
    for (const GpsRecord& record : block) {
      max_time = std::max(max_time, record.time);
      sender.Send(0, record);
    }
    if (max_time != kNoTime) {
      sender.BroadcastWatermark(max_time);
      // Shuffled replay has no per-time boundary; one span per flushed
      // window block, tagged with the block's newest time.
      if (tr != nullptr) {
        tr->RecordSpanSince("source", "emit_block", 0, max_time, t0);
      }
    }
    block.clear();
  };
  for (const GpsRecord& record : dataset.records) {
    if (block_start == kNoTime) block_start = record.time;
    if (record.time >= block_start + window) {
      flush();
      block_start = record.time;
      throttle();
    }
    block.push_back(record);
  }
  flush();
  sender.Close();
}

void RunAssemblerSubtask(const StageEnv& env,
                         flow::Channel<flow::Element<GpsRecord>>& input,
                         flow::Transport<Snapshot>& out,
                         flow::SnapshotLedger& ledger,
                         flow::StageStats* assembler_stats) {
  flow::TraceRecorder* const tr = env.tr;
  const std::int32_t p = out.consumers();
  flow::SnapshotAssembler assembler;
  if (const std::string* bytes = env.restored_state("assembler", 0)) {
    BinaryReader reader(*bytes);
    COMOVE_CHECK_MSG(assembler.RestoreState(&reader),
                     "corrupt assembler checkpoint");
  }
  auto route = [&](std::vector<Snapshot> snapshots) {
    for (Snapshot& snapshot : snapshots) {
      const Timestamp t = snapshot.time;
      // The span covers ingest-mark to watermark broadcast - i.e. it
      // absorbs downstream backpressure on the snapshot exchange.
      const std::uint64_t t0 = tr != nullptr ? tr->NowNs() : 0;
      ledger.Ingest(t);
      out.Send(0, static_cast<std::size_t>(t) % static_cast<std::size_t>(p),
               std::move(snapshot));
      out.BroadcastWatermark(0, t);
      if (tr != nullptr) {
        tr->RecordSpanSince("assembler", "route", 0, t, t0);
      }
    }
  };
  std::vector<flow::Element<GpsRecord>> batch;
  while (input.PopBatch(batch, env.pop_batch_max) > 0) {
    for (flow::Element<GpsRecord>& element : batch) {
      if (element.is_data()) {
        route(assembler.OnRecord(element.data));
      } else if (element.is_barrier()) {
        // Single producer: the barrier needs no alignment; snapshot,
        // ack, and forward.
        std::string state;
        BinaryWriter writer(&state);
        assembler.SaveState(&writer);
        env.ack(element.checkpoint, "assembler", 0, std::move(state),
                assembler_stats);
        out.BroadcastBarrier(0, element.checkpoint);
      } else {
        route(assembler.AdvanceBirthBound(element.watermark));
      }
    }
  }
  if (!env.crashed->load()) {
    route(assembler.Finish());
    out.BroadcastWatermark(0, kEndOfStreamTime);
  }
  out.CloseProducer(0);
}

void RunClusterSubtask(std::int32_t worker, const StageEnv& env,
                       StageResults& results, flow::StageStats* ack_stats,
                       flow::Channel<flow::Element<Snapshot>>& input,
                       flow::Transport<pattern::Partition>& out) {
  const IcpeOptions& options = *env.options;
  const bool enumerate = options.enumerator != EnumeratorKind::kNone;
  flow::TraceRecorder* const tr = env.tr;
  const std::int32_t p = out.consumers();
  PipelineCounters& counters = results.counters;
  flow::BatchingSender<pattern::Partition> partition_sender(
      out, worker, options.exchange_batch_size, tr, "partitions");
  // Join + DBSCAN working memory, reused across this worker's snapshots.
  cluster::ClusterScratch scratch;
  std::int64_t cluster_ns = 0;
  std::int64_t cluster_calls = 0;
  while (auto element = input.Pop()) {
    if (element->is_data()) {
      const Timestamp t = element->data.time;
      Stopwatch watch;
      cluster::ClusterPhaseNs phases;
      const std::uint64_t t0 = tr != nullptr ? tr->NowNs() : 0;
      const ClusterSnapshot clustered = cluster::ClusterSnapshotWith(
          options.clustering, element->data, options.cluster_options,
          scratch, tr != nullptr ? &phases : nullptr);
      cluster_ns += watch.ElapsedNanos();
      ++cluster_calls;
      if (tr != nullptr) {
        // The two phases tile the clustering call: join first, then
        // DBSCAN back-dated to start where the join ended.
        tr->RecordSpan("join", "neighbor_pairs", worker, t, t0,
                       phases.join_ns);
        tr->RecordSpan("dbscan", "dbscan", worker, t, t0 + phases.join_ns,
                       phases.dbscan_ns);
      }
      for (const Cluster& c : clustered.clusters) {
        counters.cluster_count.fetch_add(1, std::memory_order_relaxed);
        counters.cluster_member_sum.fetch_add(
            static_cast<std::int64_t>(c.members.size()),
            std::memory_order_relaxed);
      }
      if (enumerate) {
        for (pattern::Partition& part :
             pattern::MakePartitions(clustered, options.constraints)) {
          const std::size_t target = OwnerPartition(part.owner, p);
          partition_sender.Send(target, std::move(part));
        }
      }
    } else if (element->is_barrier()) {
      // Single producer (the assembler): no alignment needed. The
      // worker is stateless - its scratch is derivable - so it acks
      // with an empty payload and forwards.
      const std::int64_t id = element->checkpoint;
      if (env.injector->ShouldCrash("cluster", worker, id)) {
        env.crash_all();
        return;
      }
      env.ack(id, "cluster", worker, std::string(), ack_stats);
      if (enumerate) partition_sender.BroadcastBarrier(id);
    } else {
      // All of this worker's snapshots <= watermark are done (FIFO).
      if (enumerate) {
        partition_sender.BroadcastWatermark(element->watermark);
      } else {
        env.progress(worker, element->watermark);
      }
    }
  }
  counters.cluster_ns.fetch_add(cluster_ns, std::memory_order_relaxed);
  counters.cluster_calls.fetch_add(cluster_calls, std::memory_order_relaxed);
  counters.arena_bytes.fetch_add(
      static_cast<std::int64_t>(
          scratch.join.sweep.arena.block_bytes() +
          scratch.dbscan.arena.block_bytes()),
      std::memory_order_relaxed);
  counters.arena_allocations.fetch_add(
      static_cast<std::int64_t>(
          scratch.join.sweep.arena.allocations() +
          scratch.dbscan.arena.allocations()),
      std::memory_order_relaxed);
  if (enumerate) partition_sender.Close();
}

void RunEnumerateSubtask(
    std::int32_t worker, const StageEnv& env, StageResults& results,
    flow::StageStats* ack_stats,
    flow::Channel<flow::Element<pattern::Partition>>& input) {
  const IcpeOptions& options = *env.options;
  const std::int32_t producers = options.parallelism;
  flow::TraceRecorder* const tr = env.tr;
  PipelineCounters& counters = results.counters;
  // Exactly-once sink: patterns fold into this subtask's collector, which
  // is part of the checkpointed state and moves into results.folds only
  // at a NORMAL exit. A crash discards the uncommitted tail; recovery
  // restores the fold as of the cut and regenerates the rest - so the
  // merged output is bit-identical to a failure-free run. Folding
  // (instead of logging raw emissions) keeps checkpoint state
  // proportional to distinct patterns rather than total emissions.
  pattern::PatternCollector fold;
  pattern::PatternSink sink = fold.AsSink();
  if (options.on_pattern) {
    sink = [&fold, &results, &options](const CoMovementPattern& pat) {
      fold.Add(pat);
      std::lock_guard<std::mutex> lock(results.on_pattern_mu);
      options.on_pattern(pat);
    };
  }
  const std::unique_ptr<pattern::StreamingEnumerator> enumerator =
      MakeEnumerator(options.enumerator, options.constraints,
                     std::move(sink));
  flow::WatermarkAligner aligner(producers);
  flow::TimeReorderBuffer<pattern::Partition> buffer;
  // The enumerate state is: aligner, reorder buffer, a count of 1, the
  // enumerator, and the fold. The count is the query count of the
  // retired multi-query layout; it stays as a format field, always 1, so
  // checkpoints written in that layout still restore.
  constexpr std::uint64_t kStateQueryCount = 1;
  if (const std::string* bytes = env.restored_state("enumerate", worker)) {
    BinaryReader reader(*bytes);
    COMOVE_CHECK_MSG(aligner.RestoreState(&reader),
                     "corrupt enumerate checkpoint");
    COMOVE_CHECK_MSG(buffer.RestoreState(&reader, ReadPartition),
                     "corrupt enumerate checkpoint");
    COMOVE_CHECK_MSG(reader.ReadU64() == kStateQueryCount && reader.ok() &&
                         enumerator->RestoreState(&reader),
                     "corrupt enumerate checkpoint");
    const std::uint64_t emitted = reader.ReadU64();
    for (std::uint64_t i = 0; i < emitted && reader.ok(); ++i) {
      fold.Add(ReadPattern(&reader));
    }
    COMOVE_CHECK_MSG(reader.ok() && reader.AtEnd(),
                     "corrupt enumerate checkpoint");
  }

  std::int64_t enum_ns = 0;
  std::int64_t enum_calls = 0;
  auto feed =
      [&](std::vector<std::pair<Timestamp, pattern::Partition>> batch) {
        std::size_t i = 0;
        while (i < batch.size()) {
          const Timestamp t = batch[i].first;
          std::vector<pattern::Partition> parts;
          while (i < batch.size() && batch[i].first == t) {
            parts.push_back(std::move(batch[i].second));
            ++i;
          }
          Stopwatch watch;
          const std::uint64_t t0 = tr != nullptr ? tr->NowNs() : 0;
          enumerator->OnPartitions(t, std::move(parts));
          enum_ns += watch.ElapsedNanos();
          ++enum_calls;
          if (tr != nullptr) {
            tr->RecordSpanSince("enumerate", "tick", worker, t, t0);
          }
        }
      };

  auto handle = [&](flow::Element<pattern::Partition>&& element) {
    if (element.is_data()) {
      buffer.Add(element.data.time, std::move(element.data));
    } else if (auto advanced =
                   aligner.Update(element.producer, element.watermark)) {
      const Timestamp w = *advanced;
      feed(buffer.DrainThrough(w));
      if (w != kEndOfStreamTime) {
        Stopwatch watch;
        enumerator->AdvanceTime(w);
        enum_ns += watch.ElapsedNanos();
        ++enum_calls;
      }
      // A snapshot counts as answered once its pattern decisions
      // are final (for VBA this is deferred until strings close - the
      // §6.3 latency/throughput trade).
      const Timestamp f = enumerator->FinalizedThrough();
      env.progress(worker,
                   f == kNoTime ? std::numeric_limits<Timestamp>::min() : f);
    }
  };
  bool alive = true;
  // Sized like the previous snapshot (plus 25% growth headroom) so the
  // serialisation pass does not redo the string's doubling reallocs on
  // every checkpoint.
  std::size_t last_state_bytes = 0;
  auto on_checkpoint = [&](std::int64_t id) {
    if (env.injector->ShouldCrash("enumerate", worker, id)) {
      env.crash_all();
      alive = false;
      return false;
    }
    std::string state;
    state.reserve(last_state_bytes + (last_state_bytes >> 2) + 1024);
    BinaryWriter writer(&state);
    aligner.SaveState(&writer);
    buffer.SaveState(&writer, WritePartition);
    writer.WriteU64(kStateQueryCount);
    enumerator->SaveState(&writer);
    writer.WriteU64(fold.size());
    for (const auto& [objects, pat] : fold.entries()) {
      WritePattern(&writer, pat);
    }
    last_state_bytes = state.size();
    env.ack(id, "enumerate", worker, std::move(state), ack_stats);
    return true;
  };
  flow::BarrierAligner<pattern::Partition> barriers(
      producers, env.restored_id, ack_stats, tr, worker);
  std::vector<flow::Element<pattern::Partition>> batch;
  while (alive && input.PopBatch(batch, env.pop_batch_max) > 0) {
    for (flow::Element<pattern::Partition>& element : batch) {
      if (!alive) break;
      if (env.checkpointing) {
        barriers.OnElement(std::move(element), handle, on_checkpoint);
      } else {
        handle(std::move(element));
      }
    }
  }
  if (env.crashed->load()) return;  // the uncommitted fold dies too
  feed(buffer.DrainAll());
  enumerator->Finish();
  const pattern::EnumerationStats es = enumerator->enumeration_stats();
  counters.enum_ns.fetch_add(enum_ns, std::memory_order_relaxed);
  counters.enum_calls.fetch_add(enum_calls, std::memory_order_relaxed);
  counters.enum_strings_opened.fetch_add(es.strings_opened,
                                         std::memory_order_relaxed);
  counters.enum_strings_closed.fetch_add(es.strings_closed,
                                         std::memory_order_relaxed);
  counters.enum_candidates_peak.fetch_add(es.candidates_peak,
                                          std::memory_order_relaxed);
  counters.enum_apriori_nodes.fetch_add(es.apriori_nodes,
                                        std::memory_order_relaxed);
  counters.enum_apriori_pruned.fetch_add(es.apriori_pruned,
                                         std::memory_order_relaxed);
  results.folds[static_cast<std::size_t>(worker)] = std::move(fold);
  env.progress(worker, kEndOfStreamTime);
}

void SpawnStageSubtasks(flow::TaskGroup& tasks, std::int32_t lo,
                        std::int32_t hi, const StageEnv& env,
                        StageResults& results,
                        flow::Transport<Snapshot>& snapshots,
                        flow::StageStats* snapshot_stats,
                        flow::Transport<pattern::Partition>& partitions,
                        flow::StageStats* partition_stats) {
  for (std::int32_t s = lo; s < hi; ++s) {
    tasks.Spawn([&env, &results, &snapshots, &partitions, snapshot_stats,
                 s] {
      RunClusterSubtask(s, env, results, snapshot_stats,
                        snapshots.channel(s), partitions);
    });
  }
  if (env.options->enumerator == EnumeratorKind::kNone) return;
  for (std::int32_t s = lo; s < hi; ++s) {
    tasks.Spawn([&env, &results, &partitions, partition_stats, s] {
      RunEnumerateSubtask(s, env, results, partition_stats,
                          partitions.channel(s));
    });
  }
}

}  // namespace comove::core
