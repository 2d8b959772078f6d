// Flow-layer transfer throughput: how many records per second the bounded
// channels move between stages, swept over producer-side batch size and
// stage parallelism. This isolates the cost the ICPE pipeline pays per
// record for locks and condvars, independent of join/DBSCAN compute - the
// quantity the batched transfer work (Channel::PushBatch, BatchingSender)
// is meant to improve.
//
// Workloads:
//   source_pipe         - 1 producer -> 1 consumer (the source->assembler
//                         edge: one channel, no routing).
//   join_parallel_cells - p producers -> p consumers, hash-routed with
//                         periodic watermark broadcasts: a synthetic
//                         all-to-all shuffle of small fixed-size payloads,
//                         the shape of the pipeline's cluster->enumerate
//                         edge at a far higher element rate. Independent
//                         of the engine; the name is kept so the rows stay
//                         comparable with BENCH_flow_throughput.json.
//
// Output: a human-readable table on stdout and machine-readable JSON (one
// row object per line) for scripts/bench_smoke.sh, default
// BENCH_flow_throughput.json, overridable with --out <path>.
//
// The trace_overhead workload guards the tracing layer's cost on this
// hottest path. It runs the same shuffle three ways, interleaved within
// one process so the comparison is paired rather than against a stored
// file (run-to-run noise on this bench swings several percent, dwarfing
// a 1% budget):
//   ref - a frozen hook-free copy of the pre-tracing sender (the code the
//         production path is allowed to cost at most 1% more than),
//   off - the production sender with tracing compiled in but disabled
//         (null recorder: the branch-only path every untraced run takes),
//   on  - the production sender recording one span per shipped batch.
// scripts/bench_smoke.sh gates off/ref >= 0.99 and on/off >= 0.95.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/grid_object.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "flow/exchange.h"
#include "flow/task_group.h"
#include "flow/trace.h"

namespace comove::bench {
namespace {

/// Shuffle payload: a timestamp plus one grid object, a
/// realistic small-element size for the per-element transfer cost.
struct CellPayload {
  Timestamp time = 0;
  cluster::GridObject object;
};

constexpr std::size_t kChannelCapacity = 128;  // engine default
constexpr std::int64_t kWatermarkEvery = 1024;  // records per producer

struct Row {
  std::string workload;
  int parallelism = 0;
  std::size_t batch = 0;
  std::string mode;  ///< trace_overhead only: "ref" | "off" | "on"
  double records_per_sec = 0.0;
};

/// Frozen hook-free sender: the BatchingSender exactly as it was before
/// the tracing layer touched it. The trace_overhead gate measures the
/// production sender (hooks disabled) against THIS code, so the "<= 1%
/// disabled overhead" budget is a paired within-run comparison. Keep in
/// sync with flow::BatchingSender minus everything trace-related.
class RefSender {
 public:
  RefSender(flow::Exchange<CellPayload>& exchange, std::int32_t producer,
            std::size_t batch_size)
      : exchange_(&exchange),
        producer_(producer),
        batch_size_(batch_size),
        pending_(static_cast<std::size_t>(exchange.consumers())) {}

  void Send(std::size_t partition, CellPayload value) {
    if (batch_size_ <= 1) {
      exchange_->Send(producer_, partition, std::move(value));
      return;
    }
    COMOVE_CHECK(partition < pending_.size());
    std::vector<flow::Element<CellPayload>>& buffer = pending_[partition];
    buffer.push_back(flow::Element<CellPayload>::Data(std::move(value),
                                                      producer_));
    if (buffer.size() >= batch_size_) {
      exchange_->channel(static_cast<std::int32_t>(partition))
          .PushBatch(std::move(buffer));
    }
  }

  void BroadcastWatermark(Timestamp t) {
    FlushAll();
    exchange_->BroadcastWatermark(producer_, t);
  }

  void FlushAll() {
    for (std::size_t c = 0; c < pending_.size(); ++c) {
      if (!pending_[c].empty()) {
        exchange_->channel(static_cast<std::int32_t>(c))
            .PushBatch(std::move(pending_[c]));
      }
    }
  }

  void Close() {
    FlushAll();
    exchange_->CloseProducer(producer_);
  }

 private:
  flow::Exchange<CellPayload>* exchange_;
  std::int32_t producer_;
  std::size_t batch_size_;
  std::vector<std::vector<flow::Element<CellPayload>>> pending_;
};

/// Moves `total` records through a p-producer p-consumer hash-routed
/// exchange and returns the wall-clock seconds. batch <= 1 uses the plain
/// per-element Send/Pop path; otherwise batched sends and PopBatch.
/// `make_sender(exchange, producer)` builds each producer's sender -
/// production BatchingSender (recorder on or off) or the frozen RefSender.
template <typename MakeSender>
double RunShuffleWith(int parallelism, std::size_t batch, std::int64_t total,
                      const MakeSender& make_sender) {
  const auto p = static_cast<std::int32_t>(parallelism);
  const std::int64_t per_producer = total / parallelism;
  flow::Exchange<CellPayload> exchange(p, p, kChannelCapacity);
  flow::TaskGroup tasks;
  Stopwatch watch;
  for (std::int32_t producer = 0; producer < p; ++producer) {
    tasks.Spawn([&exchange, &make_sender, producer, per_producer, batch,
                 parallelism] {
      auto sender = make_sender(exchange, producer);
      CellPayload payload;
      payload.object.id = producer;
      for (std::int64_t i = 0; i < per_producer; ++i) {
        payload.time = i / kWatermarkEvery;
        payload.object.key =
            GridKey{static_cast<std::int32_t>(i & 63), producer};
        sender.Send(static_cast<std::size_t>(i) %
                        static_cast<std::size_t>(parallelism),
                    payload);
        if ((i + 1) % kWatermarkEvery == 0) {
          sender.BroadcastWatermark(payload.time);
        }
      }
      sender.Close();
    });
  }
  std::vector<std::int64_t> received(static_cast<std::size_t>(p), 0);
  for (std::int32_t consumer = 0; consumer < p; ++consumer) {
    tasks.Spawn([&exchange, &received, consumer, batch] {
      auto& channel = exchange.channel(consumer);
      std::int64_t count = 0;
      if (batch <= 1) {
        while (auto element = channel.Pop()) {
          if (element->is_data()) ++count;
        }
      } else {
        std::vector<flow::Element<CellPayload>> popped;
        while (channel.PopBatch(popped, batch) > 0) {
          for (const auto& element : popped) {
            if (element.is_data()) ++count;
          }
        }
      }
      received[static_cast<std::size_t>(consumer)] = count;
    });
  }
  tasks.JoinAll();
  const double seconds = watch.ElapsedMillis() / 1e3;
  std::int64_t delivered = 0;
  for (const std::int64_t c : received) delivered += c;
  if (delivered != per_producer * parallelism) {
    std::cerr << "record loss: " << delivered << " != "
              << per_producer * parallelism << "\n";
    std::abort();
  }
  return seconds;
}

/// The production configuration: BatchingSender, tracing disabled.
double RunShuffle(int parallelism, std::size_t batch, std::int64_t total) {
  return RunShuffleWith(
      parallelism, batch, total,
      [batch](flow::Exchange<CellPayload>& exchange, std::int32_t producer) {
        return flow::BatchingSender<CellPayload>(exchange, producer, batch);
      });
}

/// Best-of-`reps` throughput, so one descheduled run cannot fake a
/// regression in the smoke gate.
Row Measure(const std::string& workload, int parallelism, std::size_t batch,
            std::int64_t total, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double seconds = RunShuffle(parallelism, batch, total);
    best = std::max(best, static_cast<double>(total) / seconds);
  }
  return Row{workload, parallelism, batch, "", best};
}

/// The paired tracing-overhead comparison: ref / off / on measured
/// back-to-back inside each rep (interleaved, so drift hits all three
/// alike). p=4 batch=64 - the engine's defaults on the pipeline's
/// highest-volume exchange.
///
/// Estimation: a 1% gate cannot be read off per-mode aggregate rates -
/// machine load drifts several percent between reps, which any per-mode
/// statistic (max, mean) absorbs as bias. Instead each rep yields PAIRED
/// ratios off/ref and on/off from its three adjacent runs (drift within a
/// rep's ~half-second window is far smaller), and the gate uses the
/// median ratio across reps - robust to the occasional descheduled run.
/// The exported rows encode exactly those medians: ref carries its
/// trimmed-mean rate for drift reporting, and off/on are scaled from it
/// so that downstream rate ratios reproduce the median paired ratios.
std::vector<Row> MeasureTraceOverhead(std::int64_t total, int reps) {
  constexpr int kP = 4;
  constexpr std::size_t kBatch = 64;
  // Percent-level gates need more samples and longer runs than the
  // coarse 20%-gated sweep rows; rotate the in-rep mode order so any
  // position-correlated cost (cold caches after the previous mode's
  // teardown) cannot systematically favour one mode.
  const int overhead_reps = std::max(reps * 3, 9);
  total *= 2;
  const auto run_ref = [total] {
    return RunShuffleWith(
        kP, kBatch, total,
        [](flow::Exchange<CellPayload>& exchange, std::int32_t producer) {
          return RefSender(exchange, producer, kBatch);
        });
  };
  const auto run_off = [total] { return RunShuffle(kP, kBatch, total); };
  const auto run_on = [total] {
    // One recorder per run: spans from a run never spill into the next.
    flow::TraceRecorder recorder;
    return RunShuffleWith(
        kP, kBatch, total,
        [&recorder](flow::Exchange<CellPayload>& exchange,
                    std::int32_t producer) {
          return flow::BatchingSender<CellPayload>(exchange, producer,
                                                   kBatch, &recorder);
        });
  };
  const auto top_half_mean = [](std::vector<double>& rates) {
    std::sort(rates.begin(), rates.end(), std::greater<double>());
    const std::size_t keep = (rates.size() + 1) / 2;
    double sum = 0.0;
    for (std::size_t i = 0; i < keep; ++i) sum += rates[i];
    return sum / static_cast<double>(keep);
  };
  const auto median = [](std::vector<double>& values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  };
  std::vector<double> ref_rates, off_ref_ratios, on_off_ratios;
  for (int r = 0; r < overhead_reps; ++r) {
    double ref_s = 0.0, off_s = 0.0, on_s = 0.0;
    switch (r % 3) {
      case 0: ref_s = run_ref(); off_s = run_off(); on_s = run_on(); break;
      case 1: off_s = run_off(); on_s = run_on(); ref_s = run_ref(); break;
      default: on_s = run_on(); ref_s = run_ref(); off_s = run_off(); break;
    }
    ref_rates.push_back(static_cast<double>(total) / ref_s);
    // Throughput ratios: throughput is inversely proportional to the
    // measured seconds of the same fixed record count.
    off_ref_ratios.push_back(ref_s / off_s);
    on_off_ratios.push_back(off_s / on_s);
  }
  const double ref = top_half_mean(ref_rates);
  const double off = ref * median(off_ref_ratios);
  const double on = off * median(on_off_ratios);
  return {Row{"trace_overhead", kP, kBatch, "ref", ref},
          Row{"trace_overhead", kP, kBatch, "off", off},
          Row{"trace_overhead", kP, kBatch, "on", on}};
}

}  // namespace
}  // namespace comove::bench

int main(int argc, char** argv) {
  using comove::bench::Measure;
  using comove::bench::Row;

  std::string out_path = "BENCH_flow_throughput.json";
  std::int64_t total = 1 << 21;  // records per configuration
  int reps = 5;  // best-of: enough that the peak estimate is stable
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--records" && i + 1 < argc) {
      total = std::stoll(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--out path] [--records n] [--reps n]\n";
      return 2;
    }
  }

  const std::size_t batches[] = {1, 16, 64, 256};
  std::vector<Row> rows;
  for (const std::size_t batch : batches) {
    rows.push_back(Measure("source_pipe", 1, batch, total, reps));
  }
  for (const int parallelism : {1, 4, 8}) {
    for (const std::size_t batch : batches) {
      rows.push_back(
          Measure("join_parallel_cells", parallelism, batch, total, reps));
    }
  }
  for (Row& row : comove::bench::MeasureTraceOverhead(total, reps)) {
    rows.push_back(std::move(row));
  }

  std::printf("%-22s %4s %6s %5s %16s\n", "workload", "p", "batch", "mode",
              "records_per_sec");
  for (const Row& row : rows) {
    std::printf("%-22s %4d %6zu %5s %16.0f\n", row.workload.c_str(),
                row.parallelism, row.batch,
                row.mode.empty() ? "-" : row.mode.c_str(),
                row.records_per_sec);
  }
  // The headline amortisation ratio the change is judged by.
  double base = 0.0, batched = 0.0;
  for (const Row& row : rows) {
    if (row.workload == "join_parallel_cells" && row.parallelism == 4) {
      if (row.batch == 1) base = row.records_per_sec;
      if (row.batch == 64) batched = row.records_per_sec;
    }
  }
  if (base > 0.0) {
    std::printf("join_parallel_cells p=4: batch64/batch1 = %.2fx\n",
                batched / base);
  }
  double ref = 0.0, off = 0.0, on = 0.0;
  for (const Row& row : rows) {
    if (row.workload != "trace_overhead") continue;
    if (row.mode == "ref") ref = row.records_per_sec;
    if (row.mode == "off") off = row.records_per_sec;
    if (row.mode == "on") on = row.records_per_sec;
  }
  if (ref > 0.0 && off > 0.0 && on > 0.0) {
    std::printf("trace_overhead p=4 batch=64: off/ref = %.3f, "
                "on/off = %.3f\n",
                off / ref, on / off);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  for (const Row& row : rows) {
    out << "{\"workload\": \"" << row.workload
        << "\", \"parallelism\": " << row.parallelism
        << ", \"batch\": " << row.batch;
    if (!row.mode.empty()) out << ", \"mode\": \"" << row.mode << "\"";
    out << ", \"records_per_sec\": "
        << static_cast<std::int64_t>(row.records_per_sec) << "}\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
