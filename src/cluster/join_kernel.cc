#include "cluster/join_kernel.h"

#include <algorithm>
#include <cstring>

#include "cluster/simd_kernels.h"

namespace comove::cluster {

bool SimdKernelsAvailable() {
  return simd::Avx2CompiledIn() && GetCpuFeatures().avx2;
}

SimdLevel ResolveSimdLevel(SimdLevel requested) {
  if (requested == SimdLevel::kScalar) return SimdLevel::kScalar;
  return SimdKernelsAvailable() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

#if !defined(COMOVE_HAVE_AVX2_KERNELS)
// Stubs for builds without the AVX2 TU (COMOVE_DISABLE_AVX2, non-x86, or
// a compiler without -mavx2). ResolveSimdLevel never returns kAvx2 then,
// so the kernel entry points are unreachable.
namespace simd {
bool Avx2CompiledIn() { return false; }
void SweepDataDataAvx2(const ColumnsView&, double, bool, std::uint32_t*,
                       PairSink&) {
  COMOVE_CHECK(false);
}
void SweepQueryDataAvx2(const ColumnsView&, const ColumnsView&, double, bool,
                        bool, std::uint32_t*, PairSink&) {
  COMOVE_CHECK(false);
}
void PackWideHistogramsAvx2(const NeighborPair*, std::size_t,
                            std::uint64_t*, std::uint32_t*) {
  COMOVE_CHECK(false);
}
}  // namespace simd
#endif  // !COMOVE_HAVE_AVX2_KERNELS

namespace {

/// Gathers the objects of one role into y-sorted SoA columns: (y, x, id)
/// records are copied out contiguously, sorted, then scattered into the
/// flat arrays. Sorting the compact records (instead of indices into the
/// GridObject vector) keeps every comparison inside memory the sort is
/// already streaming. The comparator looks at y alone: the sweeps only
/// need the window invariant (y ascending), and the emitted pair SET is
/// invariant under tie order - the data-data sweep pairs positions i < j
/// whatever the tie permutation, the query-data sweep filters by
/// coordinate predicates, and downstream SortUniquePairs canonicalises
/// the order - so breaking ties by x and id would buy nothing and cost
/// two extra compares per comparison.
void BuildSortedColumns(const std::vector<GridObject>& objects,
                        bool want_query, Arena& arena,
                        ArenaVector<SweepSortRec>& recs,
                        ArenaVector<double>& x, ArenaVector<double>& y,
                        ArenaVector<TrajectoryId>& id) {
  recs.Clear();
  recs.Reserve(arena, objects.size());
  for (const GridObject& o : objects) {
    if (o.is_query == want_query) {
      recs.PushBack(SweepSortRec{o.location.y, o.location.x, o.id});
    }
  }
  std::sort(recs.begin(), recs.end(),
            [](const SweepSortRec& a, const SweepSortRec& b) {
              return a.y < b.y;
            });
  x.Clear();
  y.Clear();
  id.Clear();
  x.Reserve(arena, recs.size());
  y.Reserve(arena, recs.size());
  id.Reserve(arena, recs.size());
  for (const SweepSortRec& rec : recs) {
    x.PushBack(rec.x);
    y.PushBack(rec.y);
    id.PushBack(rec.id);
  }
}

/// PairSink staging capacity: 2048 pairs (32 KiB) stays cache-resident
/// while amortising the flush indirection to nothing.
constexpr std::size_t kPairSinkPairs = 2048;

void FlushPairsToVector(void* ctx, const NeighborPair* buf, std::size_t n) {
  auto* out = static_cast<std::vector<NeighborPair>*>(ctx);
  out->insert(out->end(), buf, buf + n);
}

/// The scalar reference sweeps. Both run the ascending two-pointer window
/// form (the window start `lo` only advances because the y columns are
/// sorted and the window bound is monotone in the outer index) - the same
/// shape the AVX2 kernels chunk into 4-wide lanes, so the two paths visit
/// candidates in the same order with the same filter chain.
void ScalarSweep(const SweepCell& s, double eps, DistanceMetric metric,
                 bool use_lemma2, std::vector<NeighborPair>& out) {
  const double* dx = s.data_x.data();
  const double* dy = s.data_y.data();
  const TrajectoryId* did = s.data_id.data();
  const std::size_t nd = s.data_id.size();
  const std::size_t nq = s.query_id.size();

  // Data-data sweep. Pairing each object only with sorted predecessors is
  // the sweep analogue of Lemma 2's query-before-insert: every pair shows
  // up exactly once. The window bound (y >= o.y - eps) and the x band use
  // the arithmetic of Rect::RangeRegion/Contains, followed by the same
  // WithinDistance refinement, so the candidate filter chain matches a
  // closed-rect R-tree probe's.
  std::size_t dlo = 0;
  for (std::size_t j = 1; j < nd; ++j) {
    const Point pj{dx[j], dy[j]};
    const double min_y = pj.y - eps;
    while (dlo < j && dy[dlo] < min_y) ++dlo;
    const double min_x = pj.x - eps;
    const double max_x = pj.x + eps;
    for (std::size_t i = dlo; i < j; ++i) {
      if (dx[i] < min_x || dx[i] > max_x) continue;
      if (!WithinDistance(metric, pj, Point{dx[i], dy[i]}, eps)) continue;
      out.push_back(CanonicalPair(did[i], did[j]));
    }
  }

  if (nd == 0) return;

  // Query-data sweep. Queries ascend in y, so the window start `lo` only
  // ever advances - a classic merge between the two sorted columns.
  std::size_t lo = 0;
  for (std::size_t q = 0; q < nq; ++q) {
    const Point pq{s.query_x[q], s.query_y[q]};
    const TrajectoryId qid = s.query_id[q];
    const double max_y = pq.y + eps;
    const double min_x = pq.x - eps;
    const double max_x = pq.x + eps;
    if (use_lemma2) {
      // Lemma 1: only data at y >= q.y can be in q's upper half-space.
      while (lo < nd && dy[lo] < pq.y) ++lo;
      for (std::size_t k = lo; k < nd && dy[k] <= max_y; ++k) {
        if (dx[k] < min_x || dx[k] > max_x) continue;
        const Point pd{dx[k], dy[k]};
        if (!InUpperHalf(pq, qid, pd, did[k])) continue;
        if (!WithinDistance(metric, pq, pd, eps)) continue;
        out.push_back(CanonicalPair(qid, did[k]));
      }
    } else {
      // SRJ scheme: the full range region, duplicates removed at sync.
      const double min_y = pq.y - eps;
      while (lo < nd && dy[lo] < min_y) ++lo;
      for (std::size_t k = lo; k < nd && dy[k] <= max_y; ++k) {
        if (dx[k] < min_x || dx[k] > max_x) continue;
        const Point pd{dx[k], dy[k]};
        if (!WithinDistance(metric, pq, pd, eps)) continue;
        out.push_back(CanonicalPair(qid, did[k]));
      }
    }
  }
}

void Avx2Sweep(SweepCell& s, double eps, DistanceMetric metric,
               bool use_lemma2, std::vector<NeighborPair>& out) {
  const std::size_t nd = s.data_id.size();
  // A window never exceeds the data column; the compress store writes
  // whole 4-lane groups, so give the survivor buffer 4 slack slots.
  s.cand.Reserve(s.arena, nd + 4);
  s.pair_buf.Reserve(s.arena, kPairSinkPairs);
  simd::PairSink sink{s.pair_buf.data(), 0, kPairSinkPairs, &out,
                      &FlushPairsToVector};
  const simd::ColumnsView d{s.data_x.data(), s.data_y.data(),
                            s.data_id.data(), nd};
  const simd::ColumnsView q{s.query_x.data(), s.query_y.data(),
                            s.query_id.data(), s.query_id.size()};
  const bool l1 = metric == DistanceMetric::kL1;
  simd::SweepDataDataAvx2(d, eps, l1, s.cand.data(), sink);
  simd::SweepQueryDataAvx2(d, q, eps, l1, use_lemma2, s.cand.data(), sink);
  if (sink.size != 0) sink.flush(sink.ctx, sink.buf, sink.size);
}

}  // namespace

void SweepCellJoin(const std::vector<GridObject>& cell_objects, double eps,
                   DistanceMetric metric, bool use_lemma2, SimdLevel simd,
                   SweepCell& scratch, std::vector<NeighborPair>& out) {
  BuildSortedColumns(cell_objects, /*want_query=*/false, scratch.arena,
                     scratch.sort_recs, scratch.data_x, scratch.data_y,
                     scratch.data_id);
  BuildSortedColumns(cell_objects, /*want_query=*/true, scratch.arena,
                     scratch.sort_recs, scratch.query_x, scratch.query_y,
                     scratch.query_id);
  if (ResolveSimdLevel(simd) == SimdLevel::kAvx2) {
    Avx2Sweep(scratch, eps, metric, use_lemma2, out);
  } else {
    ScalarSweep(scratch, eps, metric, use_lemma2, out);
  }
}

namespace {

/// Below this, comparison sort wins over the radix passes' fixed cost
/// (histogram memory touches dominate tiny inputs).
constexpr std::size_t kRadixMinPairs = 4096;
constexpr std::size_t kRadixBuckets = 1u << 16;
constexpr unsigned kNarrowBits = 11;
constexpr std::size_t kNarrowBuckets = std::size_t{1} << kNarrowBits;

/// Lexicographic (a, b) order as one unsigned 64-bit key; order-preserving
/// only when both ids are non-negative AND fit in 32 bits (callers check).
/// The casts below truncate wider ids, which would silently scramble the
/// radix order, so SortUniquePairs gates on the id range first.
inline std::uint64_t PackedKey(const NeighborPair& p) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.a)) << 32) |
         static_cast<std::uint32_t>(p.b);
}

/// The narrow-tier key (both ids < 2^16, the common case): 32 bits,
/// sorted in three 11-bit passes whose 2 KiB-entry count tables stay L1
/// resident - measurably faster than two 2^16-bucket passes, whose 64K
/// scatter streams thrash the TLB.
inline std::uint32_t PackedKey32(const NeighborPair& p) {
  return (static_cast<std::uint32_t>(p.a) << 16) |
         static_cast<std::uint32_t>(p.b);
}

/// Packs every pair into its radix key and accumulates all digit
/// histograms in the same pass (the keys are stored anyway, so the pack
/// write is free work for the scatter passes that follow). The wide
/// variant has an AVX2 twin in join_kernel_avx2.cc; the narrow tier stays
/// scalar on purpose - its three 8 KiB count tables are L1-resident and
/// the packed key is two ALU ops, so SIMD packing costs more in lane
/// extraction than it saves (measured).
void PackWideHistograms(const NeighborPair* pairs, std::size_t n,
                        std::uint64_t* keys, std::uint32_t* counts) {
  std::uint32_t* c0 = counts;
  std::uint32_t* c1 = counts + kRadixBuckets;
  std::uint32_t* c2 = counts + 2 * kRadixBuckets;
  std::uint32_t* c3 = counts + 3 * kRadixBuckets;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = PackedKey(pairs[i]);
    keys[i] = key;
    ++c0[key & 0xFFFF];
    ++c1[(key >> 16) & 0xFFFF];
    ++c2[(key >> 32) & 0xFFFF];
    ++c3[key >> 48];
  }
}

void PackNarrowHistograms(const NeighborPair* pairs, std::size_t n,
                          std::uint32_t* keys, std::uint32_t* counts) {
  std::uint32_t* c0 = counts;
  std::uint32_t* c1 = counts + kNarrowBuckets;
  std::uint32_t* c2 = counts + 2 * kNarrowBuckets;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t key = PackedKey32(pairs[i]);
    keys[i] = key;
    ++c0[key & (kNarrowBuckets - 1)];
    ++c1[(key >> kNarrowBits) & (kNarrowBuckets - 1)];
    ++c2[key >> (2 * kNarrowBits)];
  }
}

/// The LSD pass loop shared by both tiers, over the packed keys alone
/// (4 or 8 bytes each instead of the 16-byte pairs - a third of the
/// scatter traffic). Each pass is a stable counting sort on one digit, so
/// the final order is exactly the lexicographic pair order the comparison
/// sort produces. A pass whose digit is constant is the identity
/// permutation and is skipped (digits are permutation-invariant, so the
/// histogram stays valid no matter which buffer currently holds the
/// keys). Returns the buffer the sorted keys ended up in.
template <unsigned kDigitBits, int kPasses, typename Key>
Key* RunRadixPasses(Key* src, Key* dst, std::size_t n,
                    std::uint32_t* counts) {
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr Key kDigitMask = static_cast<Key>(kBuckets - 1);
  for (int pass = 0; pass < kPasses; ++pass) {
    std::uint32_t* cursor = counts + pass * kBuckets;
    const unsigned shift = kDigitBits * static_cast<unsigned>(pass);
    if (cursor[(src[0] >> shift) & kDigitMask] == n) continue;
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t count = cursor[b];
      cursor[b] = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[cursor[(src[i] >> shift) & kDigitMask]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

}  // namespace

void SortUniquePairs(std::vector<NeighborPair>& pairs,
                     PairSortScratch& scratch, SimdLevel simd) {
  // OR-fold of every id: a negative id sets the sign bit, an id above
  // 2^32 sets a bit in [32, 63) - either disqualifies the packed key
  // (PackedKey truncates each id to 32 bits). It also selects the tier:
  // ids all below 2^16 take the narrow 32-bit-key path.
  TrajectoryId any = 0;
  if (pairs.size() >= kRadixMinPairs) {
    for (const NeighborPair& p : pairs) any |= p.a | p.b;
  }
  SortUniquePairs(pairs, any, scratch, simd);
}

void SortUniquePairs(std::vector<NeighborPair>& pairs, TrajectoryId id_fold,
                     PairSortScratch& scratch, SimdLevel simd) {
  const std::size_t n = pairs.size();
  const TrajectoryId any = id_fold;
  const bool radixable =
      n >= kRadixMinPairs && any >= 0 && (any >> 32) == 0;
  if (!radixable) {
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    return;
  }
  if ((any >> 16) == 0) {
    // Narrow tier: 32-bit keys, three 11-bit digits.
    auto& counts = scratch.counts;
    if (counts.size() < 3 * kNarrowBuckets) counts.resize(3 * kNarrowBuckets);
    std::memset(counts.data(), 0, 3 * kNarrowBuckets * sizeof(std::uint32_t));
    scratch.keys32.resize(n);
    scratch.keys32_tmp.resize(n);
    PackNarrowHistograms(pairs.data(), n, scratch.keys32.data(),
                         counts.data());
    const std::uint32_t* sorted = RunRadixPasses<kNarrowBits, 3>(
        scratch.keys32.data(), scratch.keys32_tmp.data(), n, counts.data());
    // Unpack the sorted keys back into pairs, dropping duplicates in the
    // same pass (equal pairs pack to equal keys, now adjacent).
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t key = sorted[i];
      if (i != 0 && key == sorted[i - 1]) continue;
      pairs[m++] = NeighborPair{static_cast<TrajectoryId>(key >> 16),
                                static_cast<TrajectoryId>(key & 0xFFFF)};
    }
    pairs.resize(m);
    return;
  }
  // Wide tier: 64-bit keys, four 16-bit digits.
  const bool avx2 = ResolveSimdLevel(simd) == SimdLevel::kAvx2;
  auto& counts = scratch.counts;
  if (counts.size() < 4 * kRadixBuckets) counts.resize(4 * kRadixBuckets);
  std::memset(counts.data(), 0, 4 * kRadixBuckets * sizeof(std::uint32_t));
  scratch.keys64.resize(n);
  scratch.keys64_tmp.resize(n);
  if (avx2) {
    simd::PackWideHistogramsAvx2(pairs.data(), n, scratch.keys64.data(),
                                 counts.data());
  } else {
    PackWideHistograms(pairs.data(), n, scratch.keys64.data(), counts.data());
  }
  const std::uint64_t* sorted = RunRadixPasses<16, 4>(
      scratch.keys64.data(), scratch.keys64_tmp.data(), n, counts.data());
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = sorted[i];
    if (i != 0 && key == sorted[i - 1]) continue;
    pairs[m++] = NeighborPair{static_cast<TrajectoryId>(key >> 32),
                              static_cast<TrajectoryId>(key & 0xFFFFFFFF)};
  }
  pairs.resize(m);
}

void SortUniquePairs(std::vector<NeighborPair>& pairs) {
  PairSortScratch scratch;
  SortUniquePairs(pairs, scratch, SimdLevel::kAvx2);
}

}  // namespace comove::cluster
