// End-to-end benchmark driver of the ICPE pipeline.
//
//   comove_perfbench e2e   --workload W --seed N --seconds S
//   comove_perfbench trace --workload W --seed N --seconds S
//
// `e2e` times whole full-speed core::RunIcpe runs with tracing off
// (throughput, peak RSS). `trace` drives the public layer functions one
// call at a time (see bench_lib.h) and adds the engine's own counters from
// one stats-collecting run in process and one over sockets
// (core::RunIcpeDistributed), and the latency of one paced run per
// input. Both check
// every pipeline run's pattern multiset against the serial composition's
// and print, as the last stdout line, one JSON object with the keys
// correct, attempted, failed and metrics. perfbench/run.py builds this
// binary and calls it.

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_lib.h"
#include "core/distributed.h"
#include "flow/checkpoint/snapshot_store.h"

namespace comove::perfbench {
namespace {

/// Dataset generations per run; setup_s is their median.
constexpr int kSetupReps = 9;
/// Rounds of `e2e` run even when --seconds is already spent; a round is
/// one full-speed run per input.
constexpr std::size_t kMinRounds = 2;
/// Full-speed runs of the traced pass, the base of its speedup figure.
constexpr int kMinFullSpeedRuns = 3;

struct Args {
  std::string mode;
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the contract's result object as one line.
void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// The workload's inputs with their pipeline options.
struct Inputs {
  std::vector<trajgen::Dataset> datasets;
  std::vector<core::IcpeOptions> options;
  double setup_s = 0.0;  ///< median generation time of one input

  std::size_t size() const { return datasets.size(); }
};

/// Generates every input of the workload, timing each generation; with
/// fewer than kSetupReps inputs the first one is generated again, so
/// setup_s is always a median of several set-ups.
Inputs Setup(const Args& args) {
  const Workload& w = *args.workload;
  Inputs in;
  std::vector<double> seconds;
  const std::int32_t rounds = std::max(w.inputs, kSetupReps);
  for (std::int32_t i = 0; i < rounds; ++i) {
    const std::int32_t index = i < w.inputs ? i : 0;
    const Clock::time_point t0 = Clock::now();
    Input input = GenerateInput(w, args.seed, index);
    seconds.push_back(static_cast<double>(NsSince(t0)) * 1e-9);
    if (i < w.inputs) {
      in.datasets.push_back(std::move(input.dataset));
      in.options.push_back(input.options);
    }
  }
  in.setup_s = Median(seconds);
  return in;
}

/// Lists every run's value per input on stderr, for reading the spread.
void PrintRuns(const char* metric,
               const std::vector<std::vector<double>>& per_input) {
  std::cerr << metric << ":";
  for (const auto& values : per_input) {
    std::cerr << " [";
    for (double v : values) std::cerr << " " << v;
    std::cerr << " ]";
  }
  std::cerr << "\n";
}

/// Median over every run of every input.
double PooledMedian(const std::vector<std::vector<double>>& per_input) {
  std::vector<double> all;
  for (const auto& values : per_input) {
    all.insert(all.end(), values.begin(), values.end());
  }
  return Median(all);
}

void PrintContext(const Args& args, const Inputs& in,
                  const std::vector<std::vector<std::uint64_t>>& oracles) {
  std::int64_t records = 0;
  std::int64_t snapshots = 0;
  std::size_t patterns = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const trajgen::DatasetStats stats = in.datasets[i].ComputeStats();
    records += stats.locations;
    snapshots += stats.snapshots;
    patterns += oracles[i].size();
  }
  std::cout << "{\"workload\": \"" << args.workload->name
            << "\", \"seed\": " << args.seed
            << ", \"inputs\": " << in.size() << ", \"records\": " << records
            << ", \"snapshots\": " << snapshots
            << ", \"oracle_patterns\": " << patterns << "}" << std::endl;
}

/// How late a paced replay ran: (wall - snapshots x pace) over
/// (snapshots x pace), in percent.
double PaceLagPct(const flow::RunMetrics& m, std::int64_t pace_us) {
  const double nominal_s = static_cast<double>(m.snapshots) *
                           static_cast<double>(pace_us) * 1e-6;
  return (m.wall_seconds - nominal_s) / nominal_s * 100.0;
}

/// Mean time a snapshot of a paced run spends waiting for the FBA window
/// of `eta` ticks to fill, from the run's own source intervals: snapshot t
/// is decided once tick t + eta - 1 has been fed, i.e. w = eta - 1
/// intervals after its emit, and the last w snapshots are decided at the
/// end of the stream. Summed over all n snapshots, every source interval
/// counts w times except the first w - 1, which count 1..w - 1 times, so
/// the sum is w * span - w(w - 1)/2 * interval. The engine's latency
/// clock runs from the first emit to the last decision (`wall_seconds`).
double WindowWaitMs(const flow::RunMetrics& m, std::int32_t eta) {
  const auto n = static_cast<double>(m.snapshots);
  const auto w = static_cast<double>(eta - 1);
  const double span_ms = m.wall_seconds * 1e3;
  const double interval_ms = span_ms / (n - 1.0);
  return (w * span_ms - w * (w - 1.0) / 2.0 * interval_ms) / n;
}

/// One untimed full-speed run per input, checked like every other run, so
/// that the allocator's per-thread arenas grow to their working size
/// before anything is timed.
void WarmUp(const Inputs& in, RunLedger* ledger) {
  for (std::size_t i = 0; i < in.size(); ++i) {
    ledger->Record(core::RunIcpe(in.datasets[i], in.options[i]), i);
  }
}

std::vector<std::vector<std::uint64_t>> Oracles(const Inputs& in) {
  std::vector<std::vector<std::uint64_t>> oracles;
  for (std::size_t i = 0; i < in.size(); ++i) {
    oracles.push_back(
        Digest(RunSerial(in.datasets[i], in.options[i]).patterns));
  }
  return oracles;
}

int RunE2e(const Args& args) {
  const Inputs in = Setup(args);
  const std::size_t k = in.size();

  RunLedger ledger;
  WarmUp(in, &ledger);

  // Runs go round robin over the inputs, so that a slow spell of the
  // machine hits every input alike.
  std::vector<std::vector<double>> throughput(k);
  std::vector<std::vector<double>> rss_mb(k);
  const Clock::time_point start = Clock::now();
  for (std::size_t step = 0;
       step < kMinRounds * k ||
       static_cast<double>(NsSince(start)) * 1e-9 < args.seconds;
       ++step) {
    const std::size_t i = step % k;
    const double baseline_mb = ResetPeakRss();
    const core::IcpeResult result =
        core::RunIcpe(in.datasets[i], in.options[i]);
    rss_mb[i].push_back(PeakRssAboveMb(baseline_mb));
    ledger.Record(result, i);
    throughput[i].push_back(result.snapshots.throughput_tps);
  }
  PrintRuns("throughput_sps", throughput);
  PrintRuns("peak_rss_mb", rss_mb);

  const auto oracles = Oracles(in);
  const std::int64_t failed = ledger.Check(oracles);
  PrintContext(args, in, oracles);
  PrintResult(failed == 0, ledger.attempted(), failed,
              {{"throughput_sps", PooledMedian(throughput), "snapshots/s"},
               {"setup_s", in.setup_s, "s"},
               {"peak_rss_mb", PooledMedian(rss_mb), "MB"}});
  return 0;
}

/// Sums a stage-stats column over every row of an edge, in every process
/// ("w<i>:" prefixed rows included).
double SumEdge(const std::vector<flow::StageStatsSnapshot>& rows,
               std::string_view edge, double flow::StageStatsSnapshot::*col) {
  double sum = 0.0;
  for (const auto& row : rows) {
    const std::string_view stage = row.stage;
    if (stage.size() >= edge.size() &&
        stage.substr(stage.size() - edge.size()) == edge) {
      sum += row.*col;
    }
  }
  return sum;
}

struct LinkTotals {
  double send_blocked_ms = 0.0;
  double recv_blocked_ms = 0.0;
  double frames = 0.0;
};

LinkTotals SumLinks(const std::vector<flow::StageStatsSnapshot>& rows) {
  LinkTotals totals;
  for (const auto& row : rows) {
    if (row.stage.find("link:") == std::string::npos) continue;
    totals.send_blocked_ms += row.push_blocked_ms;
    totals.recv_blocked_ms += row.pop_blocked_ms;
    totals.frames += static_cast<double>(row.records_pushed);
  }
  return totals;
}

int RunTrace(const Args& args) {
  const Inputs in = Setup(args);
  const std::size_t k = in.size();

  // Serial composition of every input: the oracles plus the layer totals,
  // pooled over all inputs' snapshots.
  std::vector<std::vector<std::uint64_t>> oracles;
  LayerNs ns;
  std::int64_t snapshot_count = 0;
  std::int64_t records = 0;
  std::int64_t clusters = 0;
  std::int64_t members = 0;
  std::int64_t emitted = 0;
  std::int64_t distinct = 0;
  std::int64_t checkpoints = 0;
  std::int64_t checkpoint_bytes = 0;
  std::int64_t wire_bytes = 0;
  bool codecs_ok = true;
  pattern::EnumerationStats es;
  std::vector<double> serial_sps;
  for (std::size_t i = 0; i < k; ++i) {
    const SerialRun serial = RunSerial(in.datasets[i], in.options[i]);
    oracles.push_back(Digest(serial.patterns));
    serial_sps.push_back(static_cast<double>(serial.snapshots) /
                         (static_cast<double>(serial.ns.Compute()) * 1e-9));
    ns.assemble += serial.ns.assemble;
    ns.join += serial.ns.join;
    ns.dbscan += serial.ns.dbscan;
    ns.partition += serial.ns.partition;
    ns.enumerate += serial.ns.enumerate;
    ns.collect += serial.ns.collect;
    ns.checkpoint += serial.ns.checkpoint;
    ns.encode += serial.ns.encode;
    ns.decode += serial.ns.decode;
    snapshot_count += serial.snapshots;
    records += serial.records;
    clusters += serial.clusters;
    members += serial.cluster_members;
    emitted += serial.emitted;
    distinct += static_cast<std::int64_t>(serial.patterns.size());
    checkpoints += serial.checkpoints;
    checkpoint_bytes += serial.checkpoint_bytes;
    es.apriori_nodes += serial.enumeration.apriori_nodes;
    es.apriori_pruned += serial.enumeration.apriori_pruned;
    es.candidates_peak += serial.enumeration.candidates_peak;
    wire_bytes += serial.wire_bytes;
    codecs_ok = codecs_ok && serial.codecs_ok;
  }
  const auto snapshots = static_cast<double>(snapshot_count);
  const auto per_input = [&](std::int64_t total) {
    return static_cast<double>(total) / static_cast<double>(k);
  };
  const auto us_per_snapshot = [&](std::int64_t ns_total) {
    return static_cast<double>(ns_total) * 1e-3 / snapshots;
  };
  // Like throughput_sps, a median over inputs, so that an input with a
  // chance convoy does not skew the speedup.
  const double median_serial_sps = Median(serial_sps);

  // Untimed pipeline runs, as in the e2e pass: the base of the speedup
  // and of the tracing overhead.
  RunLedger ledger;
  WarmUp(in, &ledger);
  const Clock::time_point start = Clock::now();
  std::vector<std::vector<double>> throughput(k);
  for (int rep = 0; rep < kMinFullSpeedRuns ||
                    static_cast<double>(NsSince(start)) * 1e-9 < args.seconds;
       ++rep) {
    for (std::size_t i = 0; i < k; ++i) {
      const core::IcpeResult result =
          core::RunIcpe(in.datasets[i], in.options[i]);
      ledger.Record(result, i);
      throughput[i].push_back(result.snapshots.throughput_tps);
    }
  }

  // One stats-collecting run on the first input, and one in the socket
  // deployment for the link counters: over loopback TCP across
  // kSocketWorkers worker processes, with aligned checkpoints into a
  // MemorySnapshotStore so that state blobs share the links with data.
  core::IcpeOptions stats_options = in.options[0];
  stats_options.collect_stats = true;
  const core::IcpeResult stats_run =
      core::RunIcpe(in.datasets[0], stats_options);
  ledger.Record(stats_run, 0);
  const std::vector<flow::StageStatsSnapshot>& rows = stats_run.stage_stats;
  flow::MemorySnapshotStore store;
  core::IcpeOptions socket_options = stats_options;
  socket_options.checkpoint_interval = kCheckpointInterval;
  socket_options.snapshot_store = &store;
  core::DistributedOptions dist;
  dist.workers = kSocketWorkers;
  // The unix transport would place socket files outside the benchmark's
  // working tree.
  dist.transport = "tcp";
  const core::IcpeResult socket_run =
      core::RunIcpeDistributed(in.datasets[0], socket_options, dist);
  ledger.Record(socket_run, 0);
  const LinkTotals links = SumLinks(socket_run.stage_stats);
  // One paced run per input for the latency figures.
  std::vector<double> beyond_window;
  std::vector<double> p99;
  std::vector<double> pace_lag;
  for (std::size_t i = 0; i < k; ++i) {
    core::IcpeOptions paced = in.options[i];
    paced.replay_delay_us = args.workload->pace_us;
    const core::IcpeResult result = core::RunIcpe(in.datasets[i], paced);
    ledger.Record(result, i);
    beyond_window.push_back(
        result.snapshots.average_latency_ms -
        WindowWaitMs(result.snapshots, paced.constraints.Eta()));
    p99.push_back(result.snapshots.p99_latency_ms);
    pace_lag.push_back(PaceLagPct(result.snapshots, paced.replay_delay_us));
  }
  const double untimed_first_sps = Median(throughput[0]);

  const std::int64_t failed = ledger.Check(oracles);
  using S = flow::StageStatsSnapshot;
  std::vector<Metric> metrics = {
      {"trajgen.generate_s", in.setup_s, "s"},
      {"flow.assemble_us_per_snapshot", us_per_snapshot(ns.assemble), "us"},
      {"flow.records_per_snapshot", static_cast<double>(records) / snapshots,
       "count"},
      {"cluster.join_us_per_snapshot", us_per_snapshot(ns.join), "us"},
      {"cluster.dbscan_us_per_snapshot", us_per_snapshot(ns.dbscan), "us"},
      {"cluster.clusters_per_snapshot",
       static_cast<double>(clusters) / snapshots, "count"},
      {"cluster.avg_cluster_size",
       clusters > 0 ? static_cast<double>(members) /
                          static_cast<double>(clusters)
                    : 0.0,
       "count"},
      {"pattern.partition_us_per_snapshot", us_per_snapshot(ns.partition),
       "us"},
      {"pattern.enumerate_us_per_snapshot", us_per_snapshot(ns.enumerate),
       "us"},
      {"pattern.collect_us_per_snapshot", us_per_snapshot(ns.collect), "us"},
      {"pattern.apriori_nodes", per_input(es.apriori_nodes), "count"},
      {"pattern.apriori_pruned_share",
       es.apriori_nodes > 0 ? static_cast<double>(es.apriori_pruned) /
                                  static_cast<double>(es.apriori_nodes)
                            : 0.0,
       "ratio"},
      {"pattern.candidates_peak", per_input(es.candidates_peak), "count"},
      {"pattern.emitted", per_input(emitted), "count"},
      {"pattern.distinct", per_input(distinct), "count"},
      {"pattern.distinct_per_emitted",
       emitted > 0 ? static_cast<double>(distinct) /
                         static_cast<double>(emitted)
                   : 0.0,
       "ratio"},
      {"net.encode_us_per_snapshot", us_per_snapshot(ns.encode), "us"},
      {"net.decode_us_per_snapshot", us_per_snapshot(ns.decode), "us"},
      {"net.bytes_per_snapshot", static_cast<double>(wire_bytes) / snapshots,
       "B"},
      {"checkpoint.save_us",
       static_cast<double>(ns.checkpoint) * 1e-3 /
           static_cast<double>(std::max<std::int64_t>(1, checkpoints)),
       "us"},
      {"checkpoint.bytes",
       static_cast<double>(checkpoint_bytes) /
           static_cast<double>(std::max<std::int64_t>(1, checkpoints)),
       "B"},
      {"core.serial_sps", median_serial_sps, "snapshots/s"},
      {"core.speedup_over_serial", PooledMedian(throughput) / median_serial_sps,
       "ratio"},
  };
  // The assembler never blocks on the snapshot edge of `fleet` (its
  // backpressure reads exactly 0 there), so that edge reports starvation
  // only.
  for (const auto& [edge, name, backpressure] :
       {std::tuple<std::string_view, std::string_view, bool>{
            "source->assembler", "source_assembler", true},
        {"assembler->cluster", "assembler_cluster", false},
        {"cluster->enumerate", "cluster_enumerate", true}}) {
    if (backpressure) {
      metrics.push_back({"flow.backpressure_ms." + std::string(name),
                         SumEdge(rows, edge, &S::push_blocked_ms), "ms"});
    }
    metrics.push_back({"flow.starvation_ms." + std::string(name),
                       SumEdge(rows, edge, &S::pop_blocked_ms), "ms"});
  }
  metrics.push_back({"net.link_send_blocked_ms", links.send_blocked_ms, "ms"});
  metrics.push_back({"net.link_recv_blocked_ms", links.recv_blocked_ms, "ms"});
  metrics.push_back({"net.link_frames", links.frames, "count"});
  metrics.push_back(
      {"flow.latency_beyond_window_ms", Median(beyond_window), "ms"});
  metrics.push_back({"flow.latency_p99_ms", Median(p99), "ms"});
  metrics.push_back({"flow.pace_lag_pct", Median(pace_lag), "%"});
  metrics.push_back({"trace_overhead_pct",
                     (untimed_first_sps - stats_run.snapshots.throughput_tps) /
                         untimed_first_sps * 100.0,
                     "%"});

  if (!codecs_ok) std::cerr << "codec round trip failed\n";
  PrintContext(args, in, oracles);
  PrintResult(failed == 0 && codecs_ok, ledger.attempted(), failed, metrics);
  return 0;
}

int Usage() {
  std::cerr << "usage: comove_perfbench e2e|trace --workload NAME --seed N "
               "--seconds S\n";
  return 2;
}

}  // namespace
}  // namespace comove::perfbench

int main(int argc, char** argv) {
  if (auto code = comove::core::MaybeNetWorker(argc, argv)) return *code;
  using namespace comove::perfbench;
  if (argc < 2) return Usage();
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = FindWorkload(value);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else {
      return Usage();
    }
  }
  if (args.workload == nullptr || args.seconds <= 0.0) return Usage();
  if (args.mode == "e2e") return RunE2e(args);
  if (args.mode == "trace") return RunTrace(args);
  return Usage();
}
