#ifndef COMOVE_FLOW_STAGE_STATS_H_
#define COMOVE_FLOW_STAGE_STATS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

/// \file
/// Pipeline observability: lock-cheap per-stage counters. Every
/// inter-stage Exchange can be tagged with a StageStats, which its Channels
/// update on the hot path with a handful of relaxed atomic increments - and
/// not at all when stats are disabled (null pointer). This mirrors the per-operator metrics Flink
/// deployments lean on to localise backpressure: who is blocked pushing
/// (slow consumer downstream), who is blocked popping (starved by a slow
/// producer upstream), and how deep the queues run.

namespace comove::flow {

namespace internal {

inline void AtomicMaxI64(std::atomic<std::int64_t>& target,
                         std::int64_t value) {
  std::int64_t cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace internal

/// Number of power-of-two batch-size buckets tracked per stage: bucket i
/// counts batches of size [2^i, 2^(i+1)), the last bucket is open-ended.
inline constexpr std::size_t kBatchSizeBuckets = 16;

/// One stage's counters, frozen at collection time. Depth gauges aggregate
/// over every channel of the stage's exchange (an Exchange has one channel
/// per consumer subtask).
struct StageStatsSnapshot {
  std::string stage;                   ///< exchange name, "producer->consumer"
  std::int64_t records_pushed = 0;
  std::int64_t records_popped = 0;
  std::int64_t watermarks_pushed = 0;
  std::int64_t watermarks_popped = 0;
  std::int64_t queue_depth = 0;        ///< current; 0 once drained
  std::int64_t max_queue_depth = 0;
  double push_blocked_ms = 0.0;        ///< backpressure: slow consumer
  double pop_blocked_ms = 0.0;         ///< starvation: slow producer
  /// Checkpoint health: barriers moved through this stage's queues, time
  /// consumers spent holding back already-delivered inputs while waiting
  /// for the slowest producer's barrier (alignment cost), state bytes the
  /// stage contributed to completed checkpoints, and the id of the last
  /// checkpoint this stage took part in (0 when checkpointing is off).
  std::int64_t barriers_pushed = 0;
  std::int64_t barriers_popped = 0;
  double align_blocked_ms = 0.0;
  std::int64_t snapshot_bytes = 0;
  std::int64_t last_checkpoint_id = 0;
  /// Batch amortisation: every producer-side transfer counts as one batch
  /// (a plain Push is a batch of 1), so avg_batch_size is the number of
  /// elements moved per lock round-trip on this stage.
  std::int64_t batches_pushed = 0;
  double avg_batch_size = 0.0;
  std::array<std::int64_t, kBatchSizeBuckets> batch_size_histogram{};
  /// Highest event-time watermark pushed through this stage's queues
  /// (kNoTime until the first watermark; the end-of-stream sentinel is
  /// excluded). The spread of this gauge across stages is the pipeline's
  /// watermark lag: how far event time at the back trails the front.
  Timestamp last_watermark = kNoTime;
  /// Transport-link columns, populated only on the `link:*` rows a
  /// distributed run registers per PeerLink: wire bytes written/read
  /// (frames ride in records_pushed/records_popped, the blocked columns
  /// become time stalled in the socket syscalls) and frames the reader
  /// rejected on a CRC/length mismatch. All zero for in-process stages.
  std::int64_t bytes_pushed = 0;
  std::int64_t bytes_popped = 0;
  std::int64_t crc_rejects = 0;
};

/// One numeric column of the per-stage observability report, shared by the
/// text table (PrintStageStats) and the JSON export (WriteStageStatsJson)
/// so the two surfaces cannot drift apart: every counter either appears in
/// both or in neither. `export_test` diffs the surfaces against this list.
struct StageStatsField {
  const char* json_name;  ///< key in the JSON stages array
  const char* column;     ///< header in the text table
  bool integral;          ///< print as integer (else fixed 2 decimals)
  double (*value)(const StageStatsSnapshot&);
};

/// The canonical field list, in display order. The stage name and the
/// batch-size histogram are carried separately on both surfaces (the
/// histogram's text twin is PrintBatchHistogram).
inline const std::vector<StageStatsField>& StageStatsFields() {
  static const std::vector<StageStatsField> kFields = {
      {"records_pushed", "rec_in", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.records_pushed);
       }},
      {"records_popped", "rec_out", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.records_popped);
       }},
      {"watermarks_pushed", "wm_in", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.watermarks_pushed);
       }},
      {"watermarks_popped", "wm_out", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.watermarks_popped);
       }},
      {"queue_depth", "depth", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.queue_depth);
       }},
      {"max_queue_depth", "max_depth", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.max_queue_depth);
       }},
      {"push_blocked_ms", "push_blk_ms", false,
       [](const StageStatsSnapshot& s) { return s.push_blocked_ms; }},
      {"pop_blocked_ms", "pop_blk_ms", false,
       [](const StageStatsSnapshot& s) { return s.pop_blocked_ms; }},
      {"batches_pushed", "batches", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.batches_pushed);
       }},
      {"avg_batch_size", "avg_batch", false,
       [](const StageStatsSnapshot& s) { return s.avg_batch_size; }},
      {"barriers_pushed", "barr_in", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.barriers_pushed);
       }},
      {"barriers_popped", "barr_out", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.barriers_popped);
       }},
      {"align_blocked_ms", "align_blk_ms", false,
       [](const StageStatsSnapshot& s) { return s.align_blocked_ms; }},
      {"snapshot_bytes", "snap_bytes", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.snapshot_bytes);
       }},
      {"last_checkpoint_id", "last_ckpt", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.last_checkpoint_id);
       }},
      {"last_watermark", "last_wm", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.last_watermark);
       }},
      {"bytes_pushed", "bytes_in", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.bytes_pushed);
       }},
      {"bytes_popped", "bytes_out", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.bytes_popped);
       }},
      {"crc_rejects", "crc_rej", true,
       [](const StageStatsSnapshot& s) {
         return static_cast<double>(s.crc_rejects);
       }},
  };
  return kFields;
}

/// Live counters of one pipeline stage (one Exchange). All updates are
/// relaxed atomics; Channel calls OnPush/OnPop under its own queue lock,
/// so no further synchronisation is needed for correctness - the atomics
/// only make concurrent reads and multi-channel aggregation well-defined.
class StageStats {
 public:
  explicit StageStats(std::string name) : name_(std::move(name)) {}

  StageStats(const StageStats&) = delete;
  StageStats& operator=(const StageStats&) = delete;

  const std::string& name() const { return name_; }

  /// Records one element entering a queue. `blocked_ns` is the time the
  /// producer spent waiting for capacity (backpressure).
  void OnPush(bool is_watermark, std::uint64_t blocked_ns) {
    (is_watermark ? watermarks_pushed_ : records_pushed_)
        .fetch_add(1, std::memory_order_relaxed);
    const std::int64_t depth =
        depth_.fetch_add(1, std::memory_order_relaxed) + 1;
    internal::AtomicMaxI64(max_depth_, depth);
    if (blocked_ns > 0) {
      push_blocked_ns_.fetch_add(blocked_ns, std::memory_order_relaxed);
    }
  }

  /// Records one element leaving a queue. `blocked_ns` is the time the
  /// consumer spent waiting for input (starvation).
  void OnPop(bool is_watermark, std::uint64_t blocked_ns) {
    (is_watermark ? watermarks_popped_ : records_popped_)
        .fetch_add(1, std::memory_order_relaxed);
    depth_.fetch_sub(1, std::memory_order_relaxed);
    if (blocked_ns > 0) {
      pop_blocked_ns_.fetch_add(blocked_ns, std::memory_order_relaxed);
    }
  }

  /// Records `records` + `watermarks` elements entering a queue in one
  /// batched push chunk (no blocked time - see OnPushBlocked).
  void OnPushN(std::int64_t records, std::int64_t watermarks) {
    if (records > 0) {
      records_pushed_.fetch_add(records, std::memory_order_relaxed);
    }
    if (watermarks > 0) {
      watermarks_pushed_.fetch_add(watermarks, std::memory_order_relaxed);
    }
    const std::int64_t depth =
        depth_.fetch_add(records + watermarks, std::memory_order_relaxed) +
        records + watermarks;
    internal::AtomicMaxI64(max_depth_, depth);
  }

  /// Backpressure time spent inside a batched push (PushBatch may block
  /// several times while chunking through a full channel).
  void OnPushBlocked(std::uint64_t blocked_ns) {
    push_blocked_ns_.fetch_add(blocked_ns, std::memory_order_relaxed);
  }

  /// Records `records` + `watermarks` elements leaving a queue in one
  /// batched pop. `blocked_ns` is starvation time, as in OnPop.
  void OnPopN(std::int64_t records, std::int64_t watermarks,
              std::uint64_t blocked_ns) {
    if (records > 0) {
      records_popped_.fetch_add(records, std::memory_order_relaxed);
    }
    if (watermarks > 0) {
      watermarks_popped_.fetch_add(watermarks, std::memory_order_relaxed);
    }
    if (records + watermarks > 0) {
      depth_.fetch_sub(records + watermarks, std::memory_order_relaxed);
    }
    if (blocked_ns > 0) {
      pop_blocked_ns_.fetch_add(blocked_ns, std::memory_order_relaxed);
    }
  }

  /// Records `n` checkpoint barriers entering a queue (barriers occupy
  /// queue slots like any element but are counted apart from data and
  /// watermarks - they are control flow, not payload).
  void OnBarriersPushed(std::int64_t n) {
    if (n <= 0) return;
    barriers_pushed_.fetch_add(n, std::memory_order_relaxed);
    const std::int64_t depth =
        depth_.fetch_add(n, std::memory_order_relaxed) + n;
    internal::AtomicMaxI64(max_depth_, depth);
  }

  /// Records `n` checkpoint barriers leaving a queue.
  void OnBarriersPopped(std::int64_t n) {
    if (n <= 0) return;
    barriers_popped_.fetch_add(n, std::memory_order_relaxed);
    depth_.fetch_sub(n, std::memory_order_relaxed);
  }

  /// Time a consumer spent buffering inputs from already-aligned producers
  /// while waiting for the slowest producer's barrier (the alignment cost
  /// of the Chandy-Lamport cut).
  void OnAlignBlocked(std::uint64_t blocked_ns) {
    align_blocked_ns_.fetch_add(blocked_ns, std::memory_order_relaxed);
  }

  /// Records `bytes` of operator state contributed to checkpoint
  /// `checkpoint_id` (which becomes last_checkpoint_id if newer).
  void OnSnapshot(std::int64_t bytes, std::int64_t checkpoint_id) {
    if (bytes > 0) {
      snapshot_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    }
    internal::AtomicMaxI64(last_checkpoint_id_, checkpoint_id);
  }

  /// Records the event-time value of a watermark entering a queue. The
  /// end-of-stream sentinel (Timestamp max) is excluded so the gauge keeps
  /// reporting real event time; feeding it is push-side so the gauge tracks
  /// how far each stage's *input* frontier has advanced.
  void OnWatermarkValue(Timestamp watermark) {
    if (watermark == std::numeric_limits<Timestamp>::max()) return;
    internal::AtomicMaxI64(last_watermark_,
                           static_cast<std::int64_t>(watermark));
  }

  /// Records one completed producer-side transfer of `size` elements into
  /// the batch-size histogram (a plain Push reports size 1). The histogram
  /// is the amortisation evidence: lock round-trips = batches_pushed while
  /// elements moved = records + watermarks pushed.
  void OnBatchPushed(std::size_t size) {
    batches_pushed_.fetch_add(1, std::memory_order_relaxed);
    batch_hist_[BatchSizeBucket(size)].fetch_add(1,
                                                 std::memory_order_relaxed);
  }

  /// Records one frame written to a transport link: `bytes` on the wire
  /// (header + payload) and the time the writer spent inside the send
  /// syscall (blocked on a full socket buffer). Frames count as
  /// records_pushed; the queue-depth gauge is left alone - a socket has
  /// no observable depth from user space.
  void OnLinkFrameSent(std::int64_t bytes, std::uint64_t blocked_ns) {
    records_pushed_.fetch_add(1, std::memory_order_relaxed);
    bytes_pushed_.fetch_add(bytes, std::memory_order_relaxed);
    if (blocked_ns > 0) {
      push_blocked_ns_.fetch_add(blocked_ns, std::memory_order_relaxed);
    }
  }

  /// Records one frame read off a transport link: `bytes` consumed and
  /// the time the reader spent blocked in the recv syscalls waiting for
  /// the peer (starvation side of the wire).
  void OnLinkFrameReceived(std::int64_t bytes, std::uint64_t blocked_ns) {
    records_popped_.fetch_add(1, std::memory_order_relaxed);
    bytes_popped_.fetch_add(bytes, std::memory_order_relaxed);
    if (blocked_ns > 0) {
      pop_blocked_ns_.fetch_add(blocked_ns, std::memory_order_relaxed);
    }
  }

  /// Records one frame the reader rejected (CRC mismatch, bad length
  /// prefix, or corrupt payload). The link dies with it, so this is a
  /// 0-or-1 gauge in practice - but the row makes the cause visible.
  void OnCrcReject() {
    crc_rejects_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Overwrites every counter with the values of `s`, replacing (not
  /// accumulating) the previous state. This is the merge path for remote
  /// stats: a coordinator registers one row per (worker, stage) and
  /// stamps each periodic snapshot a worker ships over the control
  /// channel, so the MetricsSampler sees remote gauges advance exactly
  /// like local ones. Single-writer per row (the link's reader thread);
  /// concurrent readers see a mix of old and new counters at worst,
  /// which is the same guarantee live local rows give.
  void OverwriteFrom(const StageStatsSnapshot& s) {
    records_pushed_.store(s.records_pushed, std::memory_order_relaxed);
    records_popped_.store(s.records_popped, std::memory_order_relaxed);
    watermarks_pushed_.store(s.watermarks_pushed, std::memory_order_relaxed);
    watermarks_popped_.store(s.watermarks_popped, std::memory_order_relaxed);
    depth_.store(s.queue_depth, std::memory_order_relaxed);
    max_depth_.store(s.max_queue_depth, std::memory_order_relaxed);
    push_blocked_ns_.store(
        static_cast<std::uint64_t>(s.push_blocked_ms * 1e6),
        std::memory_order_relaxed);
    pop_blocked_ns_.store(static_cast<std::uint64_t>(s.pop_blocked_ms * 1e6),
                          std::memory_order_relaxed);
    barriers_pushed_.store(s.barriers_pushed, std::memory_order_relaxed);
    barriers_popped_.store(s.barriers_popped, std::memory_order_relaxed);
    align_blocked_ns_.store(
        static_cast<std::uint64_t>(s.align_blocked_ms * 1e6),
        std::memory_order_relaxed);
    snapshot_bytes_.store(s.snapshot_bytes, std::memory_order_relaxed);
    last_checkpoint_id_.store(s.last_checkpoint_id,
                              std::memory_order_relaxed);
    batches_pushed_.store(s.batches_pushed, std::memory_order_relaxed);
    for (std::size_t i = 0; i < kBatchSizeBuckets; ++i) {
      batch_hist_[i].store(
          static_cast<std::uint64_t>(s.batch_size_histogram[i]),
          std::memory_order_relaxed);
    }
    last_watermark_.store(
        s.last_watermark == kNoTime
            ? std::numeric_limits<std::int64_t>::min()
            : static_cast<std::int64_t>(s.last_watermark),
        std::memory_order_relaxed);
    bytes_pushed_.store(s.bytes_pushed, std::memory_order_relaxed);
    bytes_popped_.store(s.bytes_popped, std::memory_order_relaxed);
    crc_rejects_.store(s.crc_rejects, std::memory_order_relaxed);
  }

  /// Bucket of batch size `n`: floor(log2(n)) clamped to the last bucket;
  /// sizes 0 and 1 share bucket 0.
  static std::size_t BatchSizeBucket(std::size_t n) {
    if (n < 2) return 0;
    const auto b = static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(n)) - 1);
    return b < kBatchSizeBuckets ? b : kBatchSizeBuckets - 1;
  }

  StageStatsSnapshot Snapshot() const {
    StageStatsSnapshot s;
    s.stage = name_;
    s.records_pushed = records_pushed_.load(std::memory_order_relaxed);
    s.records_popped = records_popped_.load(std::memory_order_relaxed);
    s.watermarks_pushed =
        watermarks_pushed_.load(std::memory_order_relaxed);
    s.watermarks_popped =
        watermarks_popped_.load(std::memory_order_relaxed);
    s.queue_depth = depth_.load(std::memory_order_relaxed);
    s.max_queue_depth = max_depth_.load(std::memory_order_relaxed);
    s.push_blocked_ms =
        static_cast<double>(
            push_blocked_ns_.load(std::memory_order_relaxed)) /
        1e6;
    s.pop_blocked_ms =
        static_cast<double>(
            pop_blocked_ns_.load(std::memory_order_relaxed)) /
        1e6;
    s.barriers_pushed = barriers_pushed_.load(std::memory_order_relaxed);
    s.barriers_popped = barriers_popped_.load(std::memory_order_relaxed);
    s.align_blocked_ms =
        static_cast<double>(
            align_blocked_ns_.load(std::memory_order_relaxed)) /
        1e6;
    s.snapshot_bytes = snapshot_bytes_.load(std::memory_order_relaxed);
    s.last_checkpoint_id =
        last_checkpoint_id_.load(std::memory_order_relaxed);
    s.batches_pushed = batches_pushed_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kBatchSizeBuckets; ++i) {
      s.batch_size_histogram[i] =
          static_cast<std::int64_t>(
              batch_hist_[i].load(std::memory_order_relaxed));
    }
    s.avg_batch_size =
        s.batches_pushed > 0
            ? static_cast<double>(s.records_pushed + s.watermarks_pushed) /
                  static_cast<double>(s.batches_pushed)
            : 0.0;
    const std::int64_t wm = last_watermark_.load(std::memory_order_relaxed);
    s.last_watermark = wm == std::numeric_limits<std::int64_t>::min()
                           ? kNoTime
                           : static_cast<Timestamp>(wm);
    s.bytes_pushed = bytes_pushed_.load(std::memory_order_relaxed);
    s.bytes_popped = bytes_popped_.load(std::memory_order_relaxed);
    s.crc_rejects = crc_rejects_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  const std::string name_;
  std::atomic<std::int64_t> records_pushed_{0};
  std::atomic<std::int64_t> records_popped_{0};
  std::atomic<std::int64_t> watermarks_pushed_{0};
  std::atomic<std::int64_t> watermarks_popped_{0};
  std::atomic<std::int64_t> depth_{0};
  std::atomic<std::int64_t> max_depth_{0};
  std::atomic<std::uint64_t> push_blocked_ns_{0};
  std::atomic<std::uint64_t> pop_blocked_ns_{0};
  std::atomic<std::int64_t> barriers_pushed_{0};
  std::atomic<std::int64_t> barriers_popped_{0};
  std::atomic<std::uint64_t> align_blocked_ns_{0};
  std::atomic<std::int64_t> snapshot_bytes_{0};
  std::atomic<std::int64_t> last_checkpoint_id_{0};
  std::atomic<std::int64_t> batches_pushed_{0};
  std::array<std::atomic<std::uint64_t>, kBatchSizeBuckets> batch_hist_{};
  std::atomic<std::int64_t> last_watermark_{
      std::numeric_limits<std::int64_t>::min()};
  std::atomic<std::int64_t> bytes_pushed_{0};
  std::atomic<std::int64_t> bytes_popped_{0};
  std::atomic<std::int64_t> crc_rejects_{0};
};

/// Owns the StageStats of one pipeline run, keyed by stage name. Get()
/// returns a stable reference (stages are never removed), so exchanges can
/// hold raw pointers for the run's duration.
class StageStatsRegistry {
 public:
  StageStats& Get(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& stage : stages_) {
      if (stage->name() == name) return *stage;
    }
    stages_.push_back(std::make_unique<StageStats>(std::string(name)));
    return *stages_.back();
  }

  /// Snapshots every registered stage, in registration (pipeline) order.
  std::vector<StageStatsSnapshot> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<StageStatsSnapshot> out;
    out.reserve(stages_.size());
    for (const auto& stage : stages_) out.push_back(stage->Snapshot());
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<StageStats>> stages_;
};

/// Human-readable per-stage table. A stage with high push_blocked_ms is
/// throttled by a slow consumer downstream (backpressure); high
/// pop_blocked_ms means its consumers starve waiting for the producer.
/// `batches` counts producer-side lock round-trips and `avg_batch` the
/// elements each one moved - the batching amortisation at a glance. The
/// checkpoint columns (`barriers`, `align_blk_ms`, `snap_bytes`,
/// `last_ckpt`) show the barrier traffic, the alignment cost of the
/// consistent cut, and the state volume each stage contributes; all zero
/// when checkpointing is off.
inline void PrintStageStats(const std::vector<StageStatsSnapshot>& stages,
                            std::ostream& out) {
  const std::vector<StageStatsField>& fields = StageStatsFields();
  const auto width = [](const StageStatsField& f) {
    return static_cast<int>(std::strlen(f.column)) + 2;
  };
  out << std::left << std::setw(24) << "stage" << std::right;
  for (const StageStatsField& f : fields) out << std::setw(width(f)) << f.column;
  out << '\n';
  for (const StageStatsSnapshot& s : stages) {
    out << std::left << std::setw(24) << s.stage << std::right;
    for (const StageStatsField& f : fields) {
      const double v = f.value(s);
      if (f.integral) {
        out << std::setw(width(f)) << static_cast<std::int64_t>(v);
      } else {
        out << std::setw(width(f)) << std::fixed << std::setprecision(2)
            << v;
        out.unsetf(std::ios_base::floatfield);
      }
    }
    out << '\n';
  }
}

/// One line per stage with non-empty buckets, e.g.
/// `cluster->enumerate  1:12  32:5  64:118` - 12 transfers moved a
/// single element, 118 moved 64..127. Complements the avg_batch column of
/// PrintStageStats when the distribution matters.
inline void PrintBatchHistogram(
    const std::vector<StageStatsSnapshot>& stages, std::ostream& out) {
  for (const StageStatsSnapshot& s : stages) {
    if (s.batches_pushed == 0) continue;
    out << std::left << std::setw(24) << s.stage << std::right;
    for (std::size_t i = 0; i < kBatchSizeBuckets; ++i) {
      if (s.batch_size_histogram[i] == 0) continue;
      out << "  " << (std::size_t{1} << i) << ':'
          << s.batch_size_histogram[i];
    }
    out << '\n';
  }
}

}  // namespace comove::flow

#endif  // COMOVE_FLOW_STAGE_STATS_H_
