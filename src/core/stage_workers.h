#ifndef COMOVE_CORE_STAGE_WORKERS_H_
#define COMOVE_CORE_STAGE_WORKERS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/icpe_engine.h"
#include "flow/channel.h"
#include "flow/element.h"
#include "flow/net/transport.h"
#include "flow/task_group.h"
#include "pattern/enumerator.h"
#include "pattern/partition.h"

/// \file
/// The ICPE pipeline's subtask bodies, shared by every deployment: the
/// in-process run (no worker processes) and the multi-process run over
/// sockets (core/distributed.cc) execute the exact same operator code
/// against a Transport edge. Bit-identical results across
/// deployments hold by construction: only the edges differ.
///
/// Each Run*Subtask call is one subtask: it drains its input channel (or
/// replays the dataset, for the source), produces onto a Transport, and
/// returns when the stream finishes or the pipeline crashes. Everything
/// deployment-specific - where acks go, how completion progress reaches
/// the ledger - enters through StageEnv as callbacks.

namespace comove::core {

/// Partition routing of id-based partitions: Knuth multiplicative mix;
/// trajectory ids are dense so a plain modulo would correlate with the
/// id-assignment scheme. Every deployment must agree on this function -
/// it decides which process owns which trajectory.
inline std::size_t OwnerPartition(TrajectoryId owner, std::int32_t p) {
  return (static_cast<std::uint32_t>(owner) * 2654435761u) %
         static_cast<std::uint32_t>(p);
}

/// The cross-subtask result counters of a run, folded in by each subtask
/// as it exits. One struct instead of a dozen loose atomics so a remote
/// deployment can ship the whole block back to the coordinator. The
/// compute times are summed nanoseconds over `*_calls` calls: clustered
/// snapshots, and enumerator OnPartitions/AdvanceTime calls.
struct PipelineCounters {
  std::atomic<std::int64_t> cluster_count{0};
  std::atomic<std::int64_t> cluster_member_sum{0};
  std::atomic<std::int64_t> cluster_ns{0};
  std::atomic<std::int64_t> cluster_calls{0};
  std::atomic<std::int64_t> enum_ns{0};
  std::atomic<std::int64_t> enum_calls{0};
  std::atomic<std::int64_t> arena_bytes{0};
  std::atomic<std::int64_t> arena_allocations{0};
  std::atomic<std::int64_t> enum_strings_opened{0};
  std::atomic<std::int64_t> enum_strings_closed{0};
  std::atomic<std::int64_t> enum_candidates_peak{0};
  std::atomic<std::int64_t> enum_apriori_nodes{0};
  std::atomic<std::int64_t> enum_apriori_pruned{0};
};

/// Everything the cluster and enumerate subtasks of one process fold
/// their results into as they exit: run counters and one pattern fold
/// per enumerate subtask. The coordinator owns the run's
/// instance; a worker process owns one for its subtask range and ships
/// it back.
struct StageResults {
  explicit StageResults(std::int32_t subtasks)
      : folds(static_cast<std::size_t>(subtasks)) {}

  PipelineCounters counters;
  /// Serialises the on_pattern callback across enumerate subtasks.
  std::mutex on_pattern_mu;
  /// Indexed by enumerate subtask. Each slot is written by exactly one
  /// thread: its subtask at a normal exit (in process), or the link
  /// reader of the worker hosting that subtask (on the coordinator).
  std::vector<pattern::PatternCollector> folds;
};

/// Merges the per-subtask folds into one list strictly increasing by
/// object set, consuming them. Every pattern holds its owner as its
/// smallest id and OwnerPartition places each owner on exactly one
/// subtask, so no object set occurs in two folds and a k-way merge is
/// the whole job. Both deployments assemble IcpeResult::patterns here.
std::vector<CoMovementPattern> MergeFolds(
    std::vector<pattern::PatternCollector>& folds);

/// Acknowledges one operator's checkpoint snapshot: (id, op, subtask,
/// state bytes, the stats row the snapshot size is charged to).
using AckFn = std::function<void(std::int64_t, const char*, std::int32_t,
                                 std::string, flow::StageStats*)>;

/// Returns the restored state bytes of (op, subtask), or null when the
/// run starts cold.
using RestoredStateFn =
    std::function<const std::string*(const char*, std::int32_t)>;

/// Reports that subtask `worker` finalized every snapshot time <=
/// `through` (feeds the snapshot ledger, which lives on the
/// coordinator). Enumerate subtasks report it; cluster subtasks
/// do when the run has no enumeration stage.
using ProgressFn = std::function<void(std::int32_t, Timestamp)>;

/// Deployment-independent context shared by every subtask of one
/// process. Only the callbacks differ between the coordinator and a
/// worker process.
struct StageEnv {
  const IcpeOptions* options = nullptr;
  flow::TraceRecorder* tr = nullptr;
  FaultInjector* injector = nullptr;
  std::atomic<bool>* crashed = nullptr;
  /// Simulates a process kill: cancel every local edge (in process) or
  /// exit the worker process outright (distributed).
  std::function<void()> crash_all;
  AckFn ack;
  RestoredStateFn restored_state;
  ProgressFn progress;
  bool checkpointing = false;
  std::int64_t restored_id = 0;
  /// Consumers drain up to this many queued elements per lock round-trip.
  std::size_t pop_batch_max = 1;
};

/// Source subtask: replays `dataset` with birth-bound watermarks and
/// periodic checkpoint barriers onto the record edge.
void RunSourceSubtask(const trajgen::Dataset& dataset, const StageEnv& env,
                      flow::Transport<GpsRecord>& out);

/// Assembler subtask: §4 last-time synchronisation of the record stream
/// into complete snapshots, routed onto the snapshot edge by time.
/// Each snapshot's ingest goes into `ledger` (which lives with the
/// assembler, i.e. on the coordinator).
void RunAssemblerSubtask(const StageEnv& env,
                         flow::Channel<flow::Element<GpsRecord>>& input,
                         flow::Transport<Snapshot>& out,
                         flow::SnapshotLedger& ledger,
                         flow::StageStats* assembler_stats);

/// Clustering subtask `worker`: indexed clustering per snapshot (§5.3),
/// partitions routed by OwnerPartition onto the partition edge. Acks are
/// charged to `ack_stats`.
void RunClusterSubtask(std::int32_t worker, const StageEnv& env,
                       StageResults& results, flow::StageStats* ack_stats,
                       flow::Channel<flow::Element<Snapshot>>& input,
                       flow::Transport<pattern::Partition>& out);

/// Enumeration subtask `worker`: one enumerator over the subtask's
/// partition stream, releasing ticks in order via aligned watermarks. Its
/// patterns fold into a subtask-local collector - part of the
/// checkpointed state - that moves into results.folds[worker] only at a
/// normal exit.
void RunEnumerateSubtask(
    std::int32_t worker, const StageEnv& env, StageResults& results,
    flow::StageStats* ack_stats,
    flow::Channel<flow::Element<pattern::Partition>>& input);

/// Spawns the cluster subtasks [lo, hi) and, when the run enumerates, the
/// enumerate subtasks [lo, hi) into `tasks`: 2 * (hi - lo) threads whose
/// inputs are the local consumer channels of the two edges. The
/// in-process run calls it with [0, p) over Exchange edges, a worker
/// process with its own range over SocketTransport edges. `env`,
/// `results` and both edges must outlive the task group.
/// `snapshot_stats`/`partition_stats` are the edges' stats rows, which
/// the subtasks charge their checkpoint acks to.
void SpawnStageSubtasks(flow::TaskGroup& tasks, std::int32_t lo,
                        std::int32_t hi, const StageEnv& env,
                        StageResults& results,
                        flow::Transport<Snapshot>& snapshots,
                        flow::StageStats* snapshot_stats,
                        flow::Transport<pattern::Partition>& partitions,
                        flow::StageStats* partition_stats);

}  // namespace comove::core

#endif  // COMOVE_CORE_STAGE_WORKERS_H_
