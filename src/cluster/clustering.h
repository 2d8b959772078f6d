#ifndef COMOVE_CLUSTER_CLUSTERING_H_
#define COMOVE_CLUSTER_CLUSTERING_H_

#include <cstdint>

#include "cluster/dbscan.h"
#include "cluster/range_join.h"
#include "common/types.h"

/// \file
/// Snapshot clustering facade: one entry point covering the paper's three
/// compared methods (RJC - ours; SRJ and GDC - adapted baselines, §7.1).

namespace comove::cluster {

/// Which clustering method to run.
enum class ClusteringMethod {
  kRJC,  ///< GR-index range join with Lemmas 1+2, then DBSCAN (ours)
  kSRJ,  ///< full-replication GR-index join [36], then DBSCAN
  kGDC,  ///< eps/2-grid neighbour search [14], then DBSCAN
};

/// Printable method name ("RJC", "SRJ", "GDC").
const char* ClusteringMethodName(ClusteringMethod method);

/// Combined knobs for snapshot clustering.
struct ClusteringOptions {
  RangeJoinOptions join;    ///< lg, eps, metric, SIMD level (GDC: eps)
  DbscanOptions dbscan;     ///< minPts
};

/// Working memory of the whole per-snapshot clustering path: the range
/// join's buffers plus DBSCAN's interning/CSR buffers, kept side by side
/// so one worker reuses every allocation of the snapshot pipeline. Owned
/// by one worker thread; not thread-safe.
struct ClusterScratch {
  JoinScratch join;
  DbscanScratch dbscan;
};

/// Clusters one snapshot with the chosen method. All methods produce
/// identical clusters (they only differ in cost); tests assert this.
ClusterSnapshot ClusterSnapshotWith(ClusteringMethod method,
                                    const Snapshot& snapshot,
                                    const ClusteringOptions& options);

/// ClusterSnapshotWith reusing `scratch` for the join's and DBSCAN's
/// working memory across snapshots (the streaming hot path; see
/// ClusterScratch). GDC has no join stage and uses only the DBSCAN part.
ClusterSnapshot ClusterSnapshotWith(ClusteringMethod method,
                                    const Snapshot& snapshot,
                                    const ClusteringOptions& options,
                                    ClusterScratch& scratch);

/// Wall time of the two phases of one ClusterSnapshotWith call, so a
/// tracer can attribute a snapshot's clustering cost to the neighbour
/// search (range join / grid query) vs the DBSCAN pass separately.
struct ClusterPhaseNs {
  std::uint64_t join_ns = 0;    ///< neighbour-pair production
  std::uint64_t dbscan_ns = 0;  ///< DBSCAN over the pairs
};

/// ClusterSnapshotWith that additionally reports per-phase wall time into
/// `phases` when non-null (null is exactly the untimed overload: the
/// clock is never read).
ClusterSnapshot ClusterSnapshotWith(ClusteringMethod method,
                                    const Snapshot& snapshot,
                                    const ClusteringOptions& options,
                                    ClusterScratch& scratch,
                                    ClusterPhaseNs* phases);

}  // namespace comove::cluster

#endif  // COMOVE_CLUSTER_CLUSTERING_H_
