#ifndef COMOVE_CORE_WORKER_FLEET_H_
#define COMOVE_CORE_WORKER_FLEET_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/distributed.h"
#include "core/stage_workers.h"
#include "flow/checkpoint/coordinator.h"
#include "flow/net/peer_link.h"
#include "flow/net/transport.h"
#include "flow/net/wire.h"
#include "flow/stage_stats.h"
#include "flow/trace.h"

/// \file
/// The coordinator's handle on the worker processes of a distributed run
/// (internal to comove_core; core/distributed.h has the public entry
/// points). The pipeline driver in core/icpe_engine.cc owns one whenever
/// a run has at least one worker. The fleet spawns the processes,
/// completes the handshake, provides the coordinator's end of the
/// assembler -> cluster edge, and folds everything the workers send back
/// into the driver's run state: checkpoint acks, completion progress,
/// pattern chunks, results, stage stats and traces.

namespace comove::core {

class WorkerFleet {
 public:
  /// Spawns `dist.workers` processes, reads every HELLO, and sends each
  /// worker its CONFIG: its subtask range, every worker's address, the
  /// run options and, on recovery, the cluster/enumerate states of
  /// `restored`. `stats` (null = off) gets one link row per worker plus
  /// the rows every worker will ship, pre-registered in a fixed order.
  /// Then starts one reader per worker link: acks go to `checkpoints`
  /// (null when the run does not checkpoint), progress to env.progress,
  /// pattern chunks and results into `results`, and a worker that dies
  /// without a RESULT triggers env.crash_all.
  WorkerFleet(const DistributedOptions& dist, const StageEnv& env,
              const flow::CheckpointBundle* restored,
              flow::StageStatsRegistry* stats, StageResults* results,
              flow::CheckpointCoordinator* checkpoints);
  ~WorkerFleet();

  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// The coordinator's end of the assembler -> cluster edge; every
  /// consumer subtask is remote.
  flow::Transport<Snapshot>& snapshots() { return *snapshots_; }

  /// Blocks until every worker delivered its RESULT or died, then closes
  /// the links and reaps the processes. Returns false when any worker
  /// failed.
  bool Finish();

  /// For clean runs: every worker must have shipped its final stage
  /// stats (when collected) and its trace (when tracing). Fails loudly
  /// rather than under-report.
  void CheckObservabilityShipped() const;

  /// Moves the received worker trace lanes out, for the merged timeline.
  std::vector<flow::ProcessTrace> TakeTraces();

 private:
  void OnFrame(std::int32_t w, std::string_view payload);
  void Account(std::int32_t w, bool with_result);

  const StageEnv& env_;
  const std::int32_t count_;
  flow::StageStatsRegistry* const stats_;
  std::vector<pid_t> pids_;

  StageResults* const results_;
  flow::CheckpointCoordinator* const checkpoints_;

  // Merged observability state: each slot is written only by its
  // worker's link reader thread and read after Finish() joined it.
  flow::net::TraceStringTable trace_strings_;
  std::vector<flow::ProcessTrace> traces_;
  std::vector<char> stats_final_;
  std::vector<char> trace_received_;

  // One accounting slot per worker flips exactly once - on RESULT or on
  // an EOF without one (a crash) - and Finish() returns once all did.
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::int32_t done_ = 0;
  std::vector<std::atomic<bool>> accounted_;

  // Declared last: the links' reader threads use every member above, and
  // the snapshot edge routes through the links.
  std::vector<std::unique_ptr<flow::net::PeerLink>> links_;
  std::unique_ptr<flow::Transport<Snapshot>> snapshots_;
};

}  // namespace comove::core

#endif  // COMOVE_CORE_WORKER_FLEET_H_
