// Per-cell join kernel microbenchmark: the flat plane-sweep kernel with
// SIMD auto-dispatch against its own scalar reference path, on the
// isolated RangeJoinRJC hot path - no pipeline, no DBSCAN, so the number
// measured is exactly the compute the SIMD refinement changes.
//
// Workload: one snapshot of uniform random points over a 16x16 grid of
// cells (cell width 1.0), swept over
//   opc      - objects per cell {16, 64, 256}, i.e. cell population
//   eps_rel  - eps as a fraction of the cell width {0.125, 0.375, 0.75};
//              0.375 matches the paper's Table 3 defaults
//              (eps 0.6% / lg 1.6% of the extent).
// Both levels run with a reused JoinScratch (the engine's streaming
// pattern) and emit identical pair sets, so pairs/s compares pure kernel
// speed.
//
// Output: a table on stdout and JSON (one row object per line) for
// scripts/bench_smoke.sh, default BENCH_join_kernel.json, overridable
// with --out <path>.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/join_kernel.h"
#include "cluster/range_join.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/stopwatch.h"

namespace comove::bench {
namespace {

constexpr std::int32_t kCellsPerSide = 16;
constexpr double kCellWidth = 1.0;

struct Row {
  std::string kernel;
  double eps_rel = 0.0;
  int opc = 0;
  std::int64_t pairs = 0;       ///< pairs per join (identical across levels)
  double pairs_per_sec = 0.0;
};

Snapshot UniformSnapshot(std::uint64_t seed, int opc) {
  Rng rng(seed);
  const double extent = kCellsPerSide * kCellWidth;
  const int n = opc * kCellsPerSide * kCellsPerSide;
  Snapshot s;
  s.time = 0;
  for (TrajectoryId id = 0; id < n; ++id) {
    s.entries.push_back(
        {id, Point{rng.Uniform(0, extent), rng.Uniform(0, extent)}});
  }
  return s;
}

/// Joins `snapshot` repeatedly until `min_ms` of wall clock has elapsed
/// and returns pairs/s for this rep. The scratch persists across
/// iterations, matching the engine's per-worker reuse.
double TimeJoins(const Snapshot& snapshot, const cluster::RangeJoinOptions&
                     options, double min_ms, std::int64_t& pairs_out) {
  cluster::JoinScratch scratch;
  std::int64_t joins = 0;
  std::int64_t pairs = 0;
  Stopwatch watch;
  do {
    pairs = static_cast<std::int64_t>(
        RangeJoinRJC(snapshot, options, {}, scratch).size());
    ++joins;
  } while (watch.ElapsedMillis() < min_ms);
  pairs_out = pairs;
  const double seconds = watch.ElapsedMillis() / 1e3;
  return static_cast<double>(pairs * joins) / seconds;
}

/// Best-of-`reps`, so one descheduled run cannot fake a regression in the
/// smoke gate. `name` selects the configuration: "sweep" (best available
/// SIMD level, the engine default) or "sweep_scalar" (pinned to the
/// scalar reference path - the SIMD speedup is sweep / sweep_scalar).
Row Measure(const std::string& name, double eps_rel, int opc, double min_ms,
            int reps) {
  const Snapshot snapshot = UniformSnapshot(/*seed=*/7, opc);
  cluster::RangeJoinOptions options{.grid_cell_width = kCellWidth,
                                    .eps = eps_rel * kCellWidth};
  if (name == "sweep_scalar") options.simd = SimdLevel::kScalar;
  Row row{name, eps_rel, opc, 0, 0.0};
  for (int r = 0; r < reps; ++r) {
    std::int64_t pairs = 0;
    row.pairs_per_sec =
        std::max(row.pairs_per_sec, TimeJoins(snapshot, options, min_ms,
                                              pairs));
    row.pairs = pairs;
  }
  return row;
}

}  // namespace
}  // namespace comove::bench

int main(int argc, char** argv) {
  using comove::bench::Measure;
  using comove::bench::Row;

  std::string out_path = "BENCH_join_kernel.json";
  double min_ms = 100.0;  // measured wall clock per (config, kernel, rep)
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--min-ms" && i + 1 < argc) {
      min_ms = std::stod(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--out path] [--min-ms t] [--reps n]\n";
      return 2;
    }
  }

  std::printf("simd: %s kernels (cpu avx2=%s)\n",
              comove::SimdLevelName(
                  comove::cluster::ResolveSimdLevel(comove::SimdLevel::kAvx2)),
              comove::GetCpuFeatures().avx2 ? "yes" : "no");

  std::vector<Row> rows;
  for (const double eps_rel : {0.125, 0.375, 0.75}) {
    for (const int opc : {16, 64, 256}) {
      for (const char* kernel : {"sweep", "sweep_scalar"}) {
        rows.push_back(Measure(kernel, eps_rel, opc, min_ms, reps));
      }
    }
  }

  std::printf("%-12s %8s %5s %12s %15s\n", "kernel", "eps_rel", "opc", "pairs",
              "pairs_per_sec");
  for (const Row& row : rows) {
    std::printf("%-12s %8.3f %5d %12lld %15.0f\n", row.kernel.c_str(),
                row.eps_rel, row.opc, static_cast<long long>(row.pairs),
                row.pairs_per_sec);
  }
  // Headline at the Table 3 default geometry: sweep over its own scalar
  // path (the SIMD win).
  double sweep = 0.0, sweep_scalar = 0.0;
  for (const Row& row : rows) {
    if (row.eps_rel == 0.375 && row.opc == 64) {
      if (row.kernel == "sweep") sweep = row.pairs_per_sec;
      if (row.kernel == "sweep_scalar") sweep_scalar = row.pairs_per_sec;
    }
  }
  if (sweep_scalar > 0.0) {
    std::printf("default row (eps_rel=0.375 opc=64): sweep/scalar = %.2fx\n",
                sweep / sweep_scalar);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  for (const Row& row : rows) {
    out << "{\"workload\": \"join_kernel\", \"kernel\": \"" << row.kernel
        << "\", \"eps_rel\": " << row.eps_rel << ", \"opc\": " << row.opc
        << ", \"pairs\": " << row.pairs << ", \"pairs_per_sec\": "
        << static_cast<std::int64_t>(row.pairs_per_sec) << "}\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
