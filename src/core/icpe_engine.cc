#include "core/icpe_engine.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/distributed.h"
#include "core/stage_workers.h"
#include "core/worker_fleet.h"
#include "flow/checkpoint/coordinator.h"
#include "flow/exchange.h"
#include "flow/task_group.h"

namespace comove::core {

const char* EnumeratorKindName(EnumeratorKind kind) {
  switch (kind) {
    case EnumeratorKind::kBA:
      return "BA";
    case EnumeratorKind::kFBA:
      return "FBA";
    case EnumeratorKind::kVBA:
      return "VBA";
    case EnumeratorKind::kNone:
      return "none";
  }
  return "unknown";
}

std::string BuildFingerprint(const trajgen::Dataset& dataset,
                             const IcpeOptions& options) {
  // Everything that shapes the pipeline's state or routing is included;
  // pure performance knobs (batch size, channel capacity, stats) are not.
  // Deliberately also excludes how the pipeline is deployed (process
  // count, transport): a distributed run at the same parallelism may
  // restore a single-process checkpoint and vice versa.
  std::string fp = "records=" + std::to_string(dataset.records.size());
  fp += ";p=" + std::to_string(options.parallelism);
  fp += ";clustering=" +
        std::to_string(static_cast<int>(options.clustering));
  fp += ";eps=" + std::to_string(options.cluster_options.join.eps);
  fp += ";lg=" +
        std::to_string(options.cluster_options.join.grid_cell_width);
  fp += ";minpts=" +
        std::to_string(options.cluster_options.dbscan.min_pts);
  if (options.enumerator != EnumeratorKind::kNone) {
    const PatternConstraints& c = options.constraints;
    fp += ";q=" + std::to_string(c.m) + "," + std::to_string(c.k) + "," +
          std::to_string(c.l) + "," + std::to_string(c.g) + "," +
          EnumeratorKindName(options.enumerator);
  }
  return fp;
}

namespace {

/// The one pipeline driver. The coordinator side - validation, tracing,
/// stats and sampling, checkpoint restore and coordination, the source
/// and assembler subtasks, completion tracking, the merge of the
/// per-subtask pattern folds and result assembly - is the same for every
/// deployment. Only where the cluster and enumerate subtasks run
/// differs: with zero workers they run on this process's threads over
/// Exchange edges; otherwise in `deployment.workers` spawned processes
/// over socket edges.
IcpeResult RunPipeline(const trajgen::Dataset& dataset,
                       const IcpeOptions& options,
                       const DistributedOptions& deployment) {
  COMOVE_CHECK(options.parallelism > 0);
  COMOVE_CHECK(options.constraints.IsValid());
  const std::int32_t p = options.parallelism;
  const bool remote = deployment.workers > 0;
  if (remote) {
    COMOVE_CHECK_MSG(!options.on_pattern,
                     "on_pattern cannot cross a process boundary");
    COMOVE_CHECK_MSG(
        deployment.transport == "unix" || deployment.transport == "tcp",
        "transport must be \"unix\" or \"tcp\"");
    COMOVE_CHECK_MSG(deployment.workers <= p,
                     "need 1 <= workers <= parallelism");
  }

  const bool enumerate = options.enumerator != EnumeratorKind::kNone;

  // --- Tracing (zero-cost when off: `tr` stays null and every record
  // site is one untaken branch). A trace_path gets a run-owned recorder
  // whose events are written on exit.
  std::optional<flow::TraceRecorder> recorder;
  flow::TraceRecorder* const tr =
      options.trace_path.empty() ? nullptr : &recorder.emplace();
  /// How many of the slowest snapshots get a per-stage breakdown.
  constexpr std::size_t kWorstSnapshots = 5;

  // The sampler reads the same counters, so sampling implies stats.
  const bool collect_stats =
      options.collect_stats || options.sample_interval_ms > 0;

  // Declared before the edges so the stats outlive every channel
  // holding a pointer into the registry.
  flow::StageStatsRegistry stats_registry;
  auto stats_for = [&](const char* stage) -> flow::StageStats* {
    return collect_stats ? &stats_registry.Get(stage) : nullptr;
  };

  // --- Checkpointing and recovery plumbing (the fault-tolerance layer).
  // The fingerprint excludes the deployment, so a distributed run
  // restores a single-process checkpoint and vice versa.
  const bool checkpointing = options.checkpoint_interval > 0;
  if (checkpointing) {
    COMOVE_CHECK_MSG(options.snapshot_store != nullptr,
                     "checkpoint_interval requires a snapshot_store");
    COMOVE_CHECK_MSG(options.replay_shuffle_window <= 0,
                     "checkpointing requires ordered replay");
  }
  if (options.recover) {
    COMOVE_CHECK_MSG(options.snapshot_store != nullptr,
                     "recover requires a snapshot_store");
  }
  const std::string fingerprint =
      (checkpointing || options.recover)
          ? BuildFingerprint(dataset, options)
          : std::string();
  std::optional<flow::CheckpointBundle> restored;
  if (options.recover) {
    restored = options.snapshot_store->ReadLatest();
    if (restored) {
      COMOVE_CHECK_MSG(restored->fingerprint == fingerprint,
                       "checkpoint fingerprint mismatch: the store was "
                       "written by a different dataset or pipeline shape");
    }
  }
  const std::int64_t restored_id = restored ? restored->id : 0;

  // --- Edges. The record edge is always local; the two edges into the
  // cluster and enumerate stages are Exchanges only in process (a remote
  // deployment's partition edge lives entirely in the workers).
  flow::Exchange<GpsRecord> source_exchange(
      1, 1, options.channel_capacity, stats_for("source->assembler"));
  std::optional<flow::Exchange<Snapshot>> snapshot_exchange;
  std::optional<flow::Exchange<pattern::Partition>> partition_exchange;
  if (!remote) {
    snapshot_exchange.emplace(1, p, options.channel_capacity,
                              stats_for("assembler->cluster"));
    partition_exchange.emplace(p, p, options.channel_capacity,
                               stats_for("cluster->enumerate"));
  }

  std::optional<flow::CheckpointCoordinator> coordinator;
  if (checkpointing) {
    const std::int32_t expected_acks = 2 + p + (enumerate ? p : 0);
    coordinator.emplace(expected_acks, options.snapshot_store, fingerprint,
                        stats_for("checkpoint"), restored_id);
  }
  FaultInjector injector(options.fault);
  std::atomic<bool> crashed{false};

  flow::SnapshotLedger ledger(p);
  StageResults results(p);

  // --- The subtask environment of this process. Acks go straight into
  // the coordinator; completion progress marks snapshots answered.
  StageEnv env;
  env.options = &options;
  env.tr = tr;
  env.injector = &injector;
  env.crashed = &crashed;
  // Snapshot-bytes accounting goes on the acking operator's input-exchange
  // row; the coordinator separately totals persisted bytes under
  // "checkpoint".
  env.ack = [&](std::int64_t id, const char* op, std::int32_t subtask,
                std::string state, flow::StageStats* stats) {
    if (stats != nullptr) {
      stats->OnSnapshot(static_cast<std::int64_t>(state.size()), id);
    }
    const std::uint64_t t0 = tr != nullptr ? tr->NowNs() : 0;
    coordinator->Ack(id, op, subtask, std::move(state));
    if (tr != nullptr) {
      // One span per operator ack, named after the operator; aux carries
      // the checkpoint id so a timeline groups one cut's acks together.
      tr->RecordSpanSince("checkpoint", op, subtask, kNoTime, t0, id);
    }
  };
  env.restored_state = [&](const char* op,
                           std::int32_t subtask) -> const std::string* {
    return restored ? restored->Find(op, subtask) : nullptr;
  };
  env.progress = [&](std::int32_t worker, Timestamp through) {
    ledger.Update(worker, through);
  };
  env.checkpointing = checkpointing;
  env.restored_id = restored_id;
  // Consumers drain up to this many already-queued elements per lock
  // acquisition; PopBatch never waits to fill a batch, so a larger value
  // costs no latency.
  env.pop_batch_max =
      std::max<std::size_t>(std::size_t{1}, options.exchange_batch_size);

  // Simulates a process kill: every local channel is cancelled so blocked
  // producers and consumers unwind instead of deadlocking on
  // backpressure, and all in-flight data is dropped.
  env.crash_all = [&] {
    crashed.store(true);
    source_exchange.Cancel();
    if (snapshot_exchange) snapshot_exchange->Cancel();
    if (partition_exchange) partition_exchange->Cancel();
  };

  std::optional<WorkerFleet> fleet;
  if (remote) {
    fleet.emplace(deployment, env, restored ? &*restored : nullptr,
                  collect_stats ? &stats_registry : nullptr, &results,
                  coordinator ? &*coordinator : nullptr);
  }
  flow::Transport<Snapshot>& snapshots =
      remote ? fleet->snapshots() : *snapshot_exchange;

  // Live time-series sampling runs for the whole pipeline lifetime,
  // including the drain; stopped (and joined) once every stage is done.
  std::optional<flow::MetricsSampler> sampler;
  if (options.sample_interval_ms > 0) {
    sampler.emplace(stats_registry, options.sample_interval_ms);
    sampler->Start();
  }

  {
    flow::TaskGroup tasks;
    // Source: replays records with birth-bound watermarks, in time order
    // or shuffled inside a sliding window.
    tasks.Spawn([&] { RunSourceSubtask(dataset, env, source_exchange); });
    // Assembler: §4 last-time synchronisation into snapshots.
    tasks.Spawn([&] {
      RunAssemblerSubtask(env, source_exchange.channel(0), snapshots,
                          ledger, stats_for("source->assembler"));
    });
    if (!remote) {
      SpawnStageSubtasks(tasks, 0, p, env, results, *snapshot_exchange,
                         stats_for("assembler->cluster"),
                         *partition_exchange,
                         stats_for("cluster->enumerate"));
    }
    tasks.JoinAll();
  }
  if (fleet && !fleet->Finish()) crashed.store(true);
  if (sampler) sampler->Stop();
  const bool was_crashed = crashed.load();
  if (!was_crashed) {
    COMOVE_CHECK_MSG(ledger.in_flight() == 0,
                     "pipeline drained with incomplete snapshots");
    if (fleet) fleet->CheckObservabilityShipped();
  }

  // --- Result assembly. With workers, stage_stats also carry every
  // worker's rows (prefixed "w<i>:") and the trace gets one lane group
  // per process.
  IcpeResult result;
  result.crashed = was_crashed;
  result.last_checkpoint_id =
      coordinator ? coordinator->last_completed() : restored_id;
  if (coordinator) {
    result.checkpoints_completed = coordinator->completed_count();
    result.checkpoints_failed = coordinator->failed_count();
  }
  result.patterns = MergeFolds(results.folds);
  result.snapshots = ledger.Collect();
  if (collect_stats) result.stage_stats = stats_registry.Snapshot();
  if (sampler) result.time_series = sampler->samples();
  if (tr != nullptr) {
    // Every stage is joined: the recorder is quiesced and safe to read.
    std::vector<flow::ProcessTrace> processes;
    processes.push_back(flow::ProcessTrace{"coord", 1, tr->Events(),
                                           tr->recorded(), tr->dropped()});
    if (fleet) {
      for (flow::ProcessTrace& proc : fleet->TakeTraces()) {
        processes.push_back(std::move(proc));
      }
    }
    std::vector<flow::TraceEvent> merged;
    for (const flow::ProcessTrace& proc : processes) {
      merged.insert(merged.end(), proc.events.begin(), proc.events.end());
      result.trace_events += proc.recorded;
      result.trace_dropped += proc.dropped;
    }
    result.worst_snapshots = flow::BuildWorstSnapshotBreakdown(
        merged, ledger.Latencies(), kWorstSnapshots);
    std::ofstream out(options.trace_path);
    COMOVE_CHECK_MSG(out.good(), "cannot open trace_path %s",
                     options.trace_path.c_str());
    if (fleet) {
      flow::WriteChromeTraceMerged(processes, out);
    } else {
      tr->WriteChromeTrace(out);
    }
  }
  const PipelineCounters& counters = results.counters;
  const auto average_ms = [](const std::atomic<std::int64_t>& ns,
                             const std::atomic<std::int64_t>& calls) {
    const std::int64_t n = calls.load();
    return n > 0 ? static_cast<double>(ns.load()) / 1e6 /
                       static_cast<double>(n)
                 : 0.0;
  };
  result.avg_cluster_ms = average_ms(counters.cluster_ns,
                                     counters.cluster_calls);
  result.avg_enum_ms = average_ms(counters.enum_ns, counters.enum_calls);
  result.cluster_count = counters.cluster_count.load();
  result.snapshot_count = ledger.ingested();
  result.avg_cluster_size =
      result.cluster_count > 0
          ? static_cast<double>(counters.cluster_member_sum.load()) /
                static_cast<double>(result.cluster_count)
          : 0.0;
  result.arena_bytes = counters.arena_bytes.load();
  result.arena_allocations = counters.arena_allocations.load();
  result.enum_strings_opened = counters.enum_strings_opened.load();
  result.enum_strings_closed = counters.enum_strings_closed.load();
  result.enum_candidates_peak = counters.enum_candidates_peak.load();
  result.enum_apriori_nodes = counters.enum_apriori_nodes.load();
  result.enum_apriori_pruned = counters.enum_apriori_pruned.load();
  return result;
}

}  // namespace

IcpeResult RunIcpe(const trajgen::Dataset& dataset,
                   const IcpeOptions& options) {
  return RunPipeline(dataset, options, DistributedOptions{.workers = 0});
}

IcpeResult RunIcpeDistributed(const trajgen::Dataset& dataset,
                              const IcpeOptions& options,
                              const DistributedOptions& dist) {
  COMOVE_CHECK_MSG(dist.workers >= 1, "need 1 <= workers <= parallelism");
  return RunPipeline(dataset, options, dist);
}

}  // namespace comove::core
