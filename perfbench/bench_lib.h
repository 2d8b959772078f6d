#ifndef COMOVE_PERFBENCH_BENCH_LIB_H_
#define COMOVE_PERFBENCH_BENCH_LIB_H_

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/frame.h"
#include "common/serde.h"
#include "core/icpe_engine.h"
#include "core/wire_codecs.h"
#include "flow/net/wire.h"
#include "flow/snapshot_assembler.h"
#include "pattern/enumerator.h"
#include "pattern/fixed_bit_enumerator.h"
#include "pattern/partition.h"
#include "trajgen/brinkhoff_generator.h"

/// \file
/// Shared pieces of the end-to-end benchmark: the workload table, the
/// Table-3 pipeline options, the pattern-multiset oracle, and the traced
/// serial composition of the public layer functions (assembler -> join +
/// DBSCAN -> partitioning -> FBA -> collector) whose deduplicated output
/// is the oracle every pipeline run is checked against. The composition
/// also times the socket codecs and SaveState on the same stream.

namespace comove::perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// One named workload. Each run replays `inputs` independent taxi
/// streams, trajgen::GenerateTaxiLike(taxis, duration, seed * 64 + i) for
/// i < inputs, and every figure is the median over all runs of all inputs,
/// so that one input's road network or one chance convoy does not set it.
struct Workload {
  std::string_view name;
  std::int32_t taxis = 0;
  Timestamp duration = 0;
  std::int32_t inputs = 1;
  /// Members of a forced convoy overlaid on every input (0 = none).
  std::int32_t convoy_size = 0;
  Timestamp convoy_ticks = 0;
  /// Source sleep per snapshot time in the traced pass's paced runs: a
  /// fixed constant, never derived from a measured run.
  std::int64_t pace_us = 0;
};

inline constexpr std::int32_t kParallelism = 2;
/// The socket deployment of the traced pass's link run: 2 worker
/// processes, aligned checkpoints every kCheckpointInterval snapshot-times.
/// The serial composition also runs SaveState at this cadence.
inline constexpr std::int32_t kSocketWorkers = 2;
inline constexpr std::int64_t kCheckpointInterval = 100;

inline constexpr Workload kWorkloads[] = {
    {"fleet", 300, 1000, 5, 0, 0, 1000},
    {"convoy", 300, 1000, 1, 18, 24, 2000},
};

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// Table-3 defaults of bench/bench_common.h (eps 0.6% and lg 1.6% of the
/// extent, minPts 4, FBA with (M,K,L,G) = (4,18,3,3)) at p = 2.
inline core::IcpeOptions PipelineOptions(const Rect& extent) {
  const double diameter = extent.Width() + extent.Height();
  core::IcpeOptions options;
  options.enumerator = core::EnumeratorKind::kFBA;
  options.cluster_options.join.eps = diameter * 0.6 / 100.0;
  options.cluster_options.join.grid_cell_width = diameter * 1.6 / 100.0;
  options.cluster_options.dbscan.min_pts = 4;
  options.constraints = PatternConstraints{4, 18, 3, 3};
  options.parallelism = kParallelism;
  return options;
}

/// Moves `size` taxis, spread over the id range, into a convoy for the
/// times [start, start + ticks): on a ring of radius eps/4 (pairwise
/// within eps) whose centre starts 10 eps beyond the top-right corner of
/// `extent` and drifts right by eps/2 per tick. Members report at every
/// tick of the convoy and no other taxi comes within eps of it, so the
/// convoy is one cluster of exactly `size` members on every seed, and all
/// of its subsets of at least M members are patterns. The dataset is
/// rebuilt so that the last_time chains cover the added reports.
inline trajgen::Dataset OverlayConvoy(const trajgen::Dataset& dataset,
                                      const Rect& extent, double eps,
                                      std::int32_t taxis, std::int32_t size,
                                      Timestamp start, Timestamp ticks) {
  const TrajectoryId step = taxis / size;
  auto in_convoy = [&](const GpsRecord& r) {
    return r.time >= start && r.time < start + ticks && r.id % step == 0 &&
           r.id / step < size;
  };
  trajgen::DatasetBuilder builder(dataset.name);
  for (std::int32_t m = 0; m < size; ++m) {
    const double angle = 2.0 * 3.14159265358979 * static_cast<double>(m) /
                         static_cast<double>(size);
    for (Timestamp t = start; t < start + ticks; ++t) {
      const double drift = 0.5 * eps * static_cast<double>(t - start);
      builder.Add(m * step, t,
                  Point{extent.max_x + 10.0 * eps + drift +
                            0.25 * eps * std::cos(angle),
                        extent.max_y + 10.0 * eps +
                            0.25 * eps * std::sin(angle)});
    }
  }
  for (const GpsRecord& r : dataset.records) {
    if (!in_convoy(r)) builder.Add(r.id, r.time, r.location);
  }
  return builder.Finalize(dataset.interval_seconds);
}

/// One generated input and the options it runs with. The options come
/// from the taxi stream's extent before any convoy overlay, so `convoy`
/// clusters its background exactly as `fleet` does.
struct Input {
  trajgen::Dataset dataset;
  core::IcpeOptions options;
};

inline Input GenerateInput(const Workload& w, std::uint64_t seed,
                           std::int32_t index) {
  Input in;
  in.dataset = trajgen::GenerateTaxiLike(
      w.taxis, w.duration, seed * 64 + static_cast<std::uint64_t>(index));
  const Rect extent = in.dataset.ComputeStats().extent;
  in.options = PipelineOptions(extent);
  if (w.convoy_size > 0) {
    in.dataset = OverlayConvoy(
        in.dataset, extent, in.options.cluster_options.join.eps, w.taxis,
        w.convoy_size, (w.duration - w.convoy_ticks) / 2, w.convoy_ticks);
  }
  return in;
}

// --- Oracle ----------------------------------------------------------

/// 64-bit fingerprint of one pattern: its object set AND its witness
/// times, so a run that finds the right groups at the wrong times fails.
inline std::uint64_t HashPattern(const CoMovementPattern& p) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
  };
  mix(p.objects.size());
  for (TrajectoryId id : p.objects) mix(static_cast<std::uint64_t>(id));
  mix(p.times.size());
  for (Timestamp t : p.times) mix(static_cast<std::uint32_t>(t));
  return h;
}

/// The pattern multiset of a run as sorted fingerprints.
inline std::vector<std::uint64_t> Digest(
    const std::vector<CoMovementPattern>& patterns) {
  std::vector<std::uint64_t> out;
  out.reserve(patterns.size());
  for (const CoMovementPattern& p : patterns) out.push_back(HashPattern(p));
  std::sort(out.begin(), out.end());
  return out;
}

/// Size of the symmetric multiset difference of two digests: 0 exactly
/// when the runs agree on every (object set, witness times) pattern.
inline std::int64_t DigestMismatches(const std::vector<std::uint64_t>& want,
                                     const std::vector<std::uint64_t>& got) {
  std::int64_t mismatches = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < want.size() || j < got.size()) {
    if (j == got.size() || (i < want.size() && want[i] < got[j])) {
      ++mismatches;
      ++i;
    } else if (i == want.size() || got[j] < want[i]) {
      ++mismatches;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return mismatches;
}

/// Counts attempted and failed runs against the oracle digests of their
/// inputs. Each distinct digest is kept (with its run count) until the
/// oracles exist, because the serial composition runs after the peak-RSS
/// reading; repeated identical results cost no extra memory.
class RunLedger {
 public:
  void Record(const core::IcpeResult& result, std::size_t input) {
    ++attempted_;
    if (result.crashed || result.snapshot_count == 0) {
      ++crashed_;
      std::cerr << "run " << attempted_ << " failed: "
                << (result.crashed ? "crashed" : "no snapshots") << "\n";
      return;
    }
    std::vector<std::uint64_t> digest = Digest(result.patterns);
    for (Kept& kept : kept_) {
      if (kept.input == input && kept.digest == digest) {
        ++kept.runs;
        return;
      }
    }
    kept_.push_back(Kept{input, std::move(digest), 1});
  }

  /// Compares every kept digest with its input's oracle; returns the
  /// number of failed runs.
  std::int64_t Check(const std::vector<std::vector<std::uint64_t>>& oracles) {
    std::int64_t failed = crashed_;
    for (const Kept& kept : kept_) {
      const std::int64_t mismatches =
          DigestMismatches(oracles[kept.input], kept.digest);
      if (mismatches != 0) {
        failed += kept.runs;
        std::cerr << kept.runs << " run(s) on input " << kept.input
                  << " disagree with the oracle on " << mismatches
                  << " patterns (oracle " << oracles[kept.input].size()
                  << ", run " << kept.digest.size() << ")\n";
      }
    }
    return failed;
  }

  std::int64_t attempted() const { return attempted_; }

 private:
  struct Kept {
    std::size_t input = 0;
    std::vector<std::uint64_t> digest;
    std::int64_t runs = 0;
  };
  std::int64_t attempted_ = 0;
  std::int64_t crashed_ = 0;
  std::vector<Kept> kept_;
};

// --- Traced serial composition -----------------------------------------

/// Per-layer self times of the serial composition, in nanoseconds. The
/// collector runs inside the enumerator's sink, so `enumerate_ns` is the
/// enumerator calls minus the collector time nested in them. `checkpoint`
/// and the codec times are side work on the same stream, not part of the
/// computation.
struct LayerNs {
  std::int64_t assemble = 0;
  std::int64_t join = 0;
  std::int64_t dbscan = 0;
  std::int64_t partition = 0;
  std::int64_t enumerate = 0;
  std::int64_t collect = 0;
  std::int64_t checkpoint = 0;
  std::int64_t encode = 0;
  std::int64_t decode = 0;

  std::int64_t Compute() const {
    return assemble + join + dbscan + partition + enumerate + collect;
  }
};

struct SerialRun {
  std::vector<CoMovementPattern> patterns;  ///< the oracle
  LayerNs ns;
  std::int64_t wall_ns = 0;
  std::int64_t snapshots = 0;
  std::int64_t records = 0;
  std::int64_t clusters = 0;
  std::int64_t cluster_members = 0;
  std::int64_t emitted = 0;
  std::int64_t checkpoints = 0;
  std::int64_t checkpoint_bytes = 0;
  std::int64_t wire_bytes = 0;
  bool codecs_ok = true;  ///< every encoded batch decoded back whole
  pattern::EnumerationStats enumeration;
};

/// Encodes `batch` as the socket transport does (WriteElementBatch +
/// AppendFrame) and decodes it back (DecodeFrame + ReadElementBatch),
/// adding the times and the frame size to `run`.
template <typename Codec, typename T>
void TimeBatch(const std::vector<flow::Element<T>>& batch, SerialRun* run) {
  Clock::time_point t0 = Clock::now();
  std::string body;
  BinaryWriter writer(&body);
  flow::net::WriteElementBatch<Codec>(&writer, batch);
  std::string frame;
  AppendFrame(&frame, body);
  run->ns.encode += NsSince(t0);
  run->wire_bytes += static_cast<std::int64_t>(frame.size());

  t0 = Clock::now();
  std::string_view payload;
  bool ok = DecodeFrame(frame, &payload) == frame.size();
  BinaryReader reader(payload);
  std::vector<flow::Element<T>> decoded;
  ok = ok && flow::net::ReadElementBatch<Codec>(&reader, &decoded) &&
       decoded.size() == batch.size();
  run->ns.decode += NsSince(t0);
  run->codecs_ok = run->codecs_ok && ok;
}

/// The wire traffic of one snapshot: the snapshot batch (data +
/// watermark) and its partitions in exchange-sized batches.
inline void TimeCodecs(const Snapshot& snapshot,
                       const std::vector<pattern::Partition>& parts,
                       std::size_t batch_size, SerialRun* run) {
  std::vector<flow::Element<Snapshot>> snaps;
  snaps.push_back(flow::Element<Snapshot>::Data(snapshot, 0));
  snaps.push_back(flow::Element<Snapshot>::Watermark(snapshot.time, 0));
  TimeBatch<core::SnapshotCodec>(snaps, run);
  for (std::size_t i = 0; i < parts.size(); i += batch_size) {
    std::vector<flow::Element<pattern::Partition>> batch;
    for (std::size_t j = i; j < std::min(parts.size(), i + batch_size); ++j) {
      batch.push_back(flow::Element<pattern::Partition>::Data(parts[j], 0));
    }
    TimeBatch<core::PartitionCodec>(batch, run);
  }
}

/// Replays `dataset` in record order through the public layer functions,
/// one call at a time on this thread, timing each layer. Record order and
/// birth-bound watermarks follow the engine's ordered source. Every
/// kCheckpointInterval snapshot times it saves the assembler's and the
/// enumerator's state, and it round-trips each snapshot and its
/// partitions through the socket codecs.
inline SerialRun RunSerial(const trajgen::Dataset& dataset,
                           const core::IcpeOptions& options) {
  SerialRun run;
  pattern::PatternCollector collector;
  pattern::FixedBitEnumerator enumerator(
      options.constraints, [&](const CoMovementPattern& p) {
        const Clock::time_point t0 = Clock::now();
        collector.Add(p);
        run.ns.collect += NsSince(t0);
        ++run.emitted;
      });
  flow::SnapshotAssembler assembler;
  cluster::ClusterScratch scratch;
  std::vector<Snapshot> ready;

  auto process = [&](Snapshot& snapshot) {
    ++run.snapshots;
    cluster::ClusterPhaseNs phases;
    const ClusterSnapshot clustered = cluster::ClusterSnapshotWith(
        options.clustering, snapshot, options.cluster_options, scratch,
        &phases);
    run.ns.join += static_cast<std::int64_t>(phases.join_ns);
    run.ns.dbscan += static_cast<std::int64_t>(phases.dbscan_ns);
    for (const Cluster& c : clustered.clusters) {
      ++run.clusters;
      run.cluster_members += static_cast<std::int64_t>(c.members.size());
    }
    Clock::time_point t0 = Clock::now();
    std::vector<pattern::Partition> parts =
        pattern::MakePartitions(clustered, options.constraints);
    run.ns.partition += NsSince(t0);
    TimeCodecs(snapshot, parts, options.exchange_batch_size, &run);
    const std::int64_t collect_before = run.ns.collect;
    t0 = Clock::now();
    enumerator.OnPartitions(snapshot.time, std::move(parts));
    run.ns.enumerate += NsSince(t0) - (run.ns.collect - collect_before);
  };
  auto drain = [&] {
    for (Snapshot& s : ready) process(s);
    ready.clear();
  };
  auto assemble = [&](std::vector<Snapshot> emitted) {
    for (Snapshot& s : emitted) ready.push_back(std::move(s));
  };
  auto save_state = [&] {
    const Clock::time_point t0 = Clock::now();
    std::string state;
    BinaryWriter writer(&state);
    assembler.SaveState(&writer);
    enumerator.SaveState(&writer);
    run.ns.checkpoint += NsSince(t0);
    run.checkpoint_bytes += static_cast<std::int64_t>(state.size());
    ++run.checkpoints;
  };

  const Clock::time_point start = Clock::now();
  std::int64_t since_checkpoint = 0;
  const std::vector<GpsRecord>& records = dataset.records;
  std::size_t i = 0;
  while (i < records.size()) {
    const Timestamp t = records[i].time;
    if (++since_checkpoint >= kCheckpointInterval) {
      since_checkpoint = 0;
      save_state();
    }
    // One assembler span per snapshot time: the birth-bound watermark and
    // every record of time t.
    const Clock::time_point t0 = Clock::now();
    assemble(assembler.AdvanceBirthBound(t - 1));
    for (; i < records.size() && records[i].time == t; ++i) {
      assemble(assembler.OnRecord(records[i]));
      ++run.records;
    }
    run.ns.assemble += NsSince(t0);
    drain();
  }
  Clock::time_point t0 = Clock::now();
  if (!records.empty()) {
    assemble(assembler.AdvanceBirthBound(records.back().time));
  }
  assemble(assembler.Finish());
  run.ns.assemble += NsSince(t0);
  drain();
  const std::int64_t collect_before = run.ns.collect;
  t0 = Clock::now();
  enumerator.Finish();
  run.ns.enumerate += NsSince(t0) - (run.ns.collect - collect_before);
  t0 = Clock::now();
  run.patterns = collector.Patterns();
  run.ns.collect += NsSince(t0);
  run.wall_ns = NsSince(start);
  run.enumeration = enumerator.enumeration_stats();
  return run;
}

// --- Process accounting --------------------------------------------------

/// A field of /proc/self/status ("VmRSS:", "VmHWM:") in MB.
inline double StatusMb(const char* field) {
  const std::size_t length = std::strlen(field);
  double kb = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, field, length) == 0) kb = std::atof(line + length);
    }
    std::fclose(f);
  }
  return kb / 1024.0;
}

/// Starts a per-run peak-RSS window: hands freed heap back to the kernel,
/// resets this process's high-water mark (VmHWM) to its current RSS and
/// returns that RSS, the baseline the run's peak is measured above.
inline double ResetPeakRss() {
  ::malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
  return StatusMb("VmRSS:");
}

/// How far this process's RSS rose above `baseline` (from ResetPeakRss)
/// at its peak since then, in MB: the run's own memory, without the
/// inputs and code that were resident before it started.
inline double PeakRssAboveMb(double baseline) {
  return StatusMb("VmHWM:") - baseline;
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace comove::perfbench

#endif  // COMOVE_PERFBENCH_BENCH_LIB_H_
