#ifndef COMOVE_FLOW_METRICS_H_
#define COMOVE_FLOW_METRICS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

/// \file
/// Latency/throughput metrics matching the paper's definitions (§7):
/// latency is the response time per snapshot (ingest at the assembler to
/// the moment every final-stage subtask has finalised it), throughput is
/// the number of snapshots processed per second. Beyond the paper's
/// average a run also reports exact p50/p95/p99 - the tail is where
/// backpressure and watermark lag show up first.

namespace comove::flow {

/// Aggregated results of one pipeline run.
struct RunMetrics {
  std::int64_t snapshots = 0;
  double average_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  /// Nearest-rank order statistics over every completed snapshot: the
  /// ceil(q * n)-th smallest latency.
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double throughput_tps = 0.0;  ///< snapshots per second
  double wall_seconds = 0.0;    ///< first ingest to last completion
};

/// The nearest-rank `q`-quantile (q in (0, 1]) of `sorted`, ascending;
/// 0 when empty.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The run's one record of per-snapshot latency. The assembler ingests
/// each snapshot time, in strictly ascending order; each of the
/// `subtasks` final-stage subtasks reports through Update that it has
/// finalised every time <= `through`. A snapshot completes once the
/// minimum of those frontiers reaches it, and its (time, latency) moves
/// from the in-flight FIFO into a flat vector - 16 B per completed
/// snapshot, the exact source of every RunMetrics figure and of the
/// worst-k breakdown. Thread-safe.
class SnapshotLedger {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SnapshotLedger(std::int32_t subtasks)
      : progress_(static_cast<std::size_t>(subtasks),
                  std::numeric_limits<Timestamp>::min()) {
    COMOVE_CHECK(subtasks > 0);
  }

  /// Starts the latency clock for `time`, which must exceed every time
  /// ingested before it.
  void Ingest(Timestamp time) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    COMOVE_CHECK_MSG(ingested_ == 0 || time > last_ingested_,
                     "snapshot %d ingested after %d", time, last_ingested_);
    if (ingested_ == 0) start_ = now;
    in_flight_.emplace_back(time, now);
    last_ingested_ = time;
    ++ingested_;
  }

  /// Reports that `subtask` finalised every time <= `through`. A stale
  /// report never moves the subtask's frontier back. Returns how many
  /// snapshots this call completed.
  std::size_t Update(std::int32_t subtask, Timestamp through) {
    std::lock_guard<std::mutex> lock(mu_);
    Timestamp& p = progress_.at(static_cast<std::size_t>(subtask));
    p = std::max(p, through);
    const Timestamp frontier =
        *std::min_element(progress_.begin(), progress_.end());
    std::size_t done = 0;
    if (!in_flight_.empty() && in_flight_.front().first <= frontier) {
      end_ = Clock::now();
      do {
        const auto& [time, ingest] = in_flight_.front();
        completed_.emplace_back(
            time,
            std::chrono::duration<double, std::milli>(end_ - ingest).count());
        in_flight_.pop_front();
        ++done;
      } while (!in_flight_.empty() && in_flight_.front().first <= frontier);
    }
    return done;
  }

  std::int64_t ingested() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ingested_;
  }

  /// Snapshots ingested but not yet complete.
  std::size_t in_flight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return in_flight_.size();
  }

  /// Every completed (snapshot time, latency ms), in completion order.
  std::vector<std::pair<Timestamp, double>> Latencies() const {
    std::lock_guard<std::mutex> lock(mu_);
    return completed_;
  }

  /// Final aggregation; call after the pipeline has drained.
  RunMetrics Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    RunMetrics m;
    m.snapshots = static_cast<std::int64_t>(completed_.size());
    if (completed_.empty()) return m;
    std::vector<double> sorted;
    sorted.reserve(completed_.size());
    double total_ms = 0.0;
    for (const auto& [time, latency_ms] : completed_) {
      sorted.push_back(latency_ms);
      total_ms += latency_ms;
    }
    std::sort(sorted.begin(), sorted.end());
    m.average_latency_ms = total_ms / static_cast<double>(sorted.size());
    m.max_latency_ms = sorted.back();
    m.p50_latency_ms = NearestRank(sorted, 0.50);
    m.p95_latency_ms = NearestRank(sorted, 0.95);
    m.p99_latency_ms = NearestRank(sorted, 0.99);
    m.wall_seconds = std::chrono::duration<double>(end_ - start_).count();
    m.throughput_tps = m.wall_seconds > 0.0
                           ? static_cast<double>(m.snapshots) / m.wall_seconds
                           : 0.0;
    return m;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Timestamp> progress_;
  std::deque<std::pair<Timestamp, Clock::time_point>> in_flight_;
  std::vector<std::pair<Timestamp, double>> completed_;
  std::int64_t ingested_ = 0;
  Timestamp last_ingested_ = kNoTime;
  Clock::time_point start_{};
  Clock::time_point end_{};
};

}  // namespace comove::flow

#endif  // COMOVE_FLOW_METRICS_H_
