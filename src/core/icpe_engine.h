#ifndef COMOVE_CORE_ICPE_ENGINE_H_
#define COMOVE_CORE_ICPE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/clustering.h"
#include "common/constraints.h"
#include "common/types.h"
#include "core/recovery.h"
#include "flow/checkpoint/snapshot_store.h"
#include "flow/metrics.h"
#include "flow/metrics_sampler.h"
#include "flow/stage_stats.h"
#include "flow/trace.h"
#include "trajgen/dataset.h"

/// \file
/// The end-to-end ICPE framework (Fig. 3) on the comove::flow engine:
///
///   Source (1)  - replays a dataset as a record stream with "last time"
///                 links and birth-bound watermarks.
///   Assembler(1)- §4 time synchronisation: records -> complete snapshots.
///   Cluster (N) - indexed clustering per snapshot (RJC / SRJ / GDC),
///                 parallel across snapshots per §5.3, pipelined via
///                 bounded channels.
///   Enumerate(N)- id-based partitioning routes P_t(o) by hash(o); each
///                 subtask runs BA / FBA / VBA over its owners, releasing
///                 ticks in order via aligned watermarks.
///
/// Latency is the per-snapshot response time (ingest at the assembler to
/// the moment every enumeration subtask has processed the snapshot);
/// throughput is snapshots per second - the paper's §7 metrics.

namespace comove::core {

/// Which §6 enumerator the pipeline runs.
enum class EnumeratorKind {
  kBA,   ///< exponential baseline (Algorithm 3)
  kFBA,  ///< fixed-length bit compression (Algorithm 4)
  kVBA,  ///< variable-length bit compression (Algorithm 5)
  kNone, ///< clustering-only pipeline (Fig. 10/11 experiments)
};

/// Printable enumerator name ("BA", "FBA", "VBA", "none").
const char* EnumeratorKindName(EnumeratorKind kind);

/// Full pipeline configuration.
struct IcpeOptions {
  cluster::ClusteringMethod clustering = cluster::ClusteringMethod::kRJC;
  EnumeratorKind enumerator = EnumeratorKind::kFBA;
  cluster::ClusteringOptions cluster_options;
  PatternConstraints constraints{2, 4, 2, 2};
  std::int32_t parallelism = 4;        ///< subtasks per parallel stage (N)
  std::size_t channel_capacity = 128;  ///< pipelined backpressure depth

  /// Producer-side transfer batch on the pipeline's high-volume exchanges
  /// (records and id partitions): each producer accumulates up to this
  /// many elements per destination before one PushBatch moves them
  /// under a single lock round-trip - Flink's buffer-oriented network
  /// transfer, which the per-element baseline forgoes. Watermarks flush
  /// pending data first, so batching never reorders a record past its
  /// watermark and results are bit-identical for every value. 1 disables
  /// batching (the true per-element path).
  std::size_t exchange_batch_size = 64;

  /// When > 0, the replay source delivers records *out of order* within a
  /// sliding window of this many time units (deterministically shuffled
  /// by `shuffle_seed`). This exercises the §4 "last time"
  /// synchronisation under realistic network reordering; results are
  /// identical to ordered replay by construction.
  Timestamp replay_shuffle_window = 0;
  std::uint64_t shuffle_seed = 1;

  /// When > 0, the source sleeps this many microseconds every time the
  /// replayed stream advances to a new snapshot time - simulating a live
  /// arrival rate instead of full-speed replay. Combine with `on_pattern`
  /// for real-time dashboards (see examples/live_dashboard).
  std::int64_t replay_delay_us = 0;

  /// Optional real-time pattern callback, invoked as soon as any
  /// enumeration subtask proves a pattern (before deduplication, so the
  /// same object set may be reported more than once with different
  /// witnesses). Invocations are serialised by the engine; the callback
  /// need not be thread-safe but must not block for long.
  std::function<void(const CoMovementPattern&)> on_pattern;

  /// When true, every inter-stage exchange reports per-stage counters
  /// (records/watermarks moved, queue depths, blocked-time split into
  /// backpressure and starvation) into IcpeResult::stage_stats. Off by
  /// default: the instrumented path adds a few atomic ops per element, the
  /// disabled path only untaken branches.
  bool collect_stats = false;

  /// When > 0, the source injects a checkpoint barrier every this many
  /// snapshot times; every operator snapshots its state at the aligned
  /// barrier (a consistent cut) and the completed checkpoint is persisted
  /// to `snapshot_store`. Requires ordered replay (replay_shuffle_window
  /// == 0) and a non-null store. 0 disables checkpointing.
  std::int64_t checkpoint_interval = 0;

  /// Where completed checkpoints go (not owned; must outlive the run).
  flow::SnapshotStore* snapshot_store = nullptr;

  /// When true, the run restores the store's latest completed checkpoint
  /// before processing: the source rewinds to the saved offset, every
  /// stateful operator reloads its snapshot, and patterns already emitted
  /// before the cut are re-seeded - the run's output is bit-identical to
  /// a failure-free run over the same dataset. A cold store falls back to
  /// a normal run.
  bool recover = false;

  /// Fault injection (tests/benches): crash a named stage while it
  /// snapshots a given checkpoint. Empty stage = no fault.
  FaultSpec fault;

  /// When non-empty, the run records per-stage spans (see flow/trace.h)
  /// and writes them as Chrome trace_event JSON to this path - loadable
  /// in chrome://tracing or Perfetto, and fills
  /// IcpeResult::worst_snapshots. Empty = tracing fully off (the hot
  /// paths pay one untaken branch).
  std::string trace_path;

  /// When > 0, a MetricsSampler thread snapshots every stage's counters
  /// at this cadence into IcpeResult::time_series (implies stats
  /// collection for the run). 0 disables sampling.
  std::int64_t sample_interval_ms = 0;
};

/// Everything a pipeline run reports.
struct IcpeResult {
  /// Deduplicated patterns, strictly increasing by object set: the merge
  /// of every enumerate subtask's fold.
  std::vector<CoMovementPattern> patterns;
  flow::RunMetrics snapshots;      ///< latency (avg/max/p50/p95/p99) + tps
  /// Per-exchange counters in pipeline order (source -> assembler ->
  /// cluster -> enumerate); empty unless IcpeOptions::collect_stats was
  /// set. See flow::StageStatsSnapshot for how to read a backpressure
  /// report.
  std::vector<flow::StageStatsSnapshot> stage_stats;
  double avg_cluster_ms = 0.0;     ///< mean per-snapshot clustering compute
  /// Mean enumeration compute per enumerator OnPartitions/AdvanceTime call.
  double avg_enum_ms = 0.0;
  double avg_cluster_size = 0.0;   ///< mean members per emitted cluster
  std::int64_t cluster_count = 0;  ///< clusters across all snapshots
  std::int64_t snapshot_count = 0;  ///< snapshots the assembler ingested

  /// Enumeration-stage counters, summed over every enumeration worker as
  /// the workers exit (all zero with EnumeratorKind::kNone).
  /// Opened/closed count per-(owner, trajectory) membership bit strings
  /// (BA: subset candidates); peak is the high-water mark of live strings
  /// (VBA: retained closed candidates). Apriori nodes/pruned tally
  /// enumeration tree nodes expanded versus cut by the running-popcount /
  /// (K, L, G) prune - the work the candidate filter saves.
  std::int64_t enum_strings_opened = 0;
  std::int64_t enum_strings_closed = 0;
  std::int64_t enum_candidates_peak = 0;
  std::int64_t enum_apriori_nodes = 0;
  std::int64_t enum_apriori_pruned = 0;

  /// Arena-backed scratch footprint, summed over every cluster worker as
  /// it exits: retained arena bytes and lifetime bump-allocation count.
  /// In steady state allocations stays flat per snapshot (the arenas
  /// rewind instead of reallocating); per-snapshot heap churn regressions
  /// show up as growth here.
  std::int64_t arena_bytes = 0;
  std::int64_t arena_allocations = 0;

  /// True when an injected fault killed the pipeline mid-run; patterns
  /// then cover only what was emitted before the crash, and a recovery
  /// run (IcpeOptions::recover) is expected to follow.
  bool crashed = false;
  std::int64_t last_checkpoint_id = 0;    ///< newest persisted checkpoint
  std::int64_t checkpoints_completed = 0; ///< persisted this run
  std::int64_t checkpoints_failed = 0;    ///< aborted by store failures

  /// Sampled time series (one entry per tick); empty unless
  /// IcpeOptions::sample_interval_ms > 0.
  std::vector<flow::MetricsSample> time_series;
  /// Worst-k snapshots by measured latency with their per-stage span-time
  /// breakdown; empty unless tracing was on.
  std::vector<flow::SnapshotStageBreakdown> worst_snapshots;
  std::int64_t trace_events = 0;   ///< spans/instants recorded (0 = off)
  std::int64_t trace_dropped = 0;  ///< lost to ring wraparound
};

/// Fingerprint of (dataset, pipeline shape) stamped into every checkpoint
/// bundle; a recovery whose fingerprint differs refuses to restore.
/// Batch size, channel capacity, and stats collection are deliberately
/// excluded - they do not affect results.
std::string BuildFingerprint(const trajgen::Dataset& dataset,
                             const IcpeOptions& options);

/// Runs the full ICPE pipeline over a dataset replayed as a stream, in
/// this process: the zero-worker deployment of the driver that
/// RunIcpeDistributed (core/distributed.h) runs with worker processes.
/// Thread usage: 2 + 2 * parallelism workers for the run's duration.
IcpeResult RunIcpe(const trajgen::Dataset& dataset,
                   const IcpeOptions& options);

}  // namespace comove::core

#endif  // COMOVE_CORE_ICPE_ENGINE_H_
