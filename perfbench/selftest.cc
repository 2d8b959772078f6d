// Self-test of the benchmark's own logic (run: python3 perfbench/run.py
// --selftest). It checks that
//   - the oracle comparer accepts a pipeline run's patterns and rejects
//     every kind of perturbed pattern set, and the ledger counts such a
//     run as failed;
//   - the per-layer self times of the serial composition sum to no more
//     than its wall time;
//   - the forced convoy of the `convoy` workload yields exactly its
//     subsets of at least M members as patterns.
// Exits 0 when every check passes.

#include <cstdio>
#include <set>

#include "bench_lib.h"

namespace comove::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

/// A short taxi input with a small forced convoy.
Workload SmallWorkload() {
  Workload w;
  w.name = "selftest";
  w.taxis = 120;
  w.duration = 200;
  w.convoy_size = 6;
  w.convoy_ticks = 24;
  return w;
}

void TestOracle(const Input& in) {
  const SerialRun serial = RunSerial(in.dataset, in.options);
  const std::vector<std::uint64_t> oracle = Digest(serial.patterns);
  const core::IcpeResult run = core::RunIcpe(in.dataset, in.options);
  Expect(!run.patterns.empty(), "pipeline run finds patterns");
  Expect(DigestMismatches(oracle, Digest(run.patterns)) == 0,
         "pipeline run matches the serial oracle");

  auto rejects = [&](std::vector<CoMovementPattern> patterns) {
    return DigestMismatches(oracle, Digest(patterns)) != 0;
  };
  std::vector<CoMovementPattern> p = run.patterns;
  p.pop_back();
  Expect(rejects(p), "rejects a dropped pattern");
  p = run.patterns;
  p.push_back(p.front());
  Expect(rejects(p), "rejects a duplicated pattern");
  p = run.patterns;
  p.front().times.back() += 1;
  Expect(rejects(p), "rejects a shifted witness time");
  p = run.patterns;
  p.front().times.pop_back();
  Expect(rejects(p), "rejects a shortened witness sequence");
  p = run.patterns;
  p.front().objects.back() += 1;
  Expect(rejects(p), "rejects a changed object set");

  RunLedger ledger;
  ledger.Record(run, 0);
  core::IcpeResult perturbed = run;
  perturbed.patterns.front().times.back() += 1;
  ledger.Record(perturbed, 0);
  core::IcpeResult crashed = run;
  crashed.crashed = true;
  ledger.Record(crashed, 0);
  Expect(ledger.attempted() == 3 && ledger.Check({oracle}) == 2,
         "ledger fails the perturbed and the crashed run, passes the good one");
}

void TestSelfTimes(const Input& in) {
  const SerialRun serial = RunSerial(in.dataset, in.options);
  const LayerNs& ns = serial.ns;
  Expect(ns.assemble > 0 && ns.join > 0 && ns.dbscan > 0 &&
             ns.partition > 0 && ns.enumerate > 0 && ns.collect > 0 &&
             ns.checkpoint > 0 && ns.encode > 0 && ns.decode > 0,
         "every layer records time");
  Expect(ns.Compute() + ns.checkpoint + ns.encode + ns.decode <=
             serial.wall_ns,
         "layer self times sum to no more than the wall time");
  Expect(serial.checkpoints == serial.snapshots / kCheckpointInterval &&
             serial.checkpoint_bytes > 0,
         "state is saved every checkpoint interval");
  Expect(serial.codecs_ok && serial.wire_bytes > 0,
         "every snapshot and partition batch round-trips the codecs");
}

void TestConvoy(const Workload& w, const Input& in) {
  const SerialRun serial = RunSerial(in.dataset, in.options);
  const TrajectoryId step = w.taxis / w.convoy_size;
  std::set<TrajectoryId> convoy;
  for (std::int32_t m = 0; m < w.convoy_size; ++m) convoy.insert(m * step);
  std::int64_t convoy_patterns = 0;
  for (const CoMovementPattern& p : serial.patterns) {
    bool inside = true;
    for (TrajectoryId id : p.objects) inside = inside && convoy.count(id) > 0;
    convoy_patterns += inside ? 1 : 0;
  }
  // Subsets of 6 members with at least M = 4: C(6,4) + C(6,5) + C(6,6).
  Expect(convoy_patterns == 15 + 6 + 1,
         "forced convoy yields exactly its subsets of >= M members");
}

}  // namespace
}  // namespace comove::perfbench

int main() {
  using namespace comove::perfbench;
  const Workload w = SmallWorkload();
  const Input in = GenerateInput(w, /*seed=*/7, 0);
  TestOracle(in);
  TestSelfTimes(in);
  TestConvoy(w, in);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
