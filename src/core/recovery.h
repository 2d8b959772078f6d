#ifndef COMOVE_CORE_RECOVERY_H_
#define COMOVE_CORE_RECOVERY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "flow/checkpoint/snapshot_store.h"

/// \file
/// Fault injection for the checkpoint/recovery subsystem. A FaultSpec
/// names one pipeline stage and a checkpoint id; the matching subtask
/// "crashes" (cancels all exchanges and unwinds) at the exact moment it
/// would snapshot for that checkpoint - before acking - so the checkpoint
/// never completes and recovery must restart from the previous one. A
/// FailingSnapshotStore instead fails a chosen store write, exercising
/// the aborted-checkpoint path without killing the pipeline.

namespace comove::core {

/// Which subtask crashes, and when. `stage` is empty for "no fault";
/// recognised names are "cluster" and "enumerate".
struct FaultSpec {
  std::string stage;
  std::int32_t subtask = 0;
  /// Crash while snapshotting this checkpoint (so it never completes).
  std::int64_t at_checkpoint = 0;
};

/// Decides - exactly once per run - whether a subtask should crash now.
/// Thread-safe: every worker asks at every barrier.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec) : spec_(std::move(spec)) {}

  /// True exactly once: for the (`stage`, `subtask`) pair named by the
  /// spec, at barrier `checkpoint_id`. All later calls return false.
  bool ShouldCrash(std::string_view stage, std::int32_t subtask,
                   std::int64_t checkpoint_id) {
    if (spec_.stage.empty()) return false;
    if (stage != spec_.stage || subtask != spec_.subtask ||
        checkpoint_id != spec_.at_checkpoint) {
      return false;
    }
    return !fired_.exchange(true);
  }

  bool fired() const { return fired_.load(); }

 private:
  FaultSpec spec_;
  std::atomic<bool> fired_{false};
};

/// Store decorator that fails the Nth Write (1-based) and forwards
/// everything else; ReadLatest always forwards.
class FailingSnapshotStore : public flow::SnapshotStore {
 public:
  FailingSnapshotStore(flow::SnapshotStore* inner,
                       std::int64_t fail_write_number)
      : inner_(inner), fail_write_number_(fail_write_number) {}

  [[nodiscard]] bool Write(const flow::CheckpointBundle& bundle) override {
    if (writes_.fetch_add(1) + 1 == fail_write_number_) return false;
    return inner_->Write(bundle);
  }

  std::optional<flow::CheckpointBundle> ReadLatest() const override {
    return inner_->ReadLatest();
  }

  std::int64_t writes() const { return writes_.load(); }

 private:
  flow::SnapshotStore* inner_;
  std::int64_t fail_write_number_;
  std::atomic<std::int64_t> writes_{0};
};

}  // namespace comove::core

#endif  // COMOVE_CORE_RECOVERY_H_
