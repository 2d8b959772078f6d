#include "core/distributed.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/serde.h"
#include "core/stage_workers.h"
#include "core/state_serde.h"
#include "core/wire_codecs.h"
#include "core/worker_fleet.h"
#include "flow/net/peer_link.h"
#include "flow/net/socket.h"
#include "flow/net/socket_transport.h"
#include "flow/net/wire.h"
#include "flow/task_group.h"
#include "flow/trace.h"

extern char** environ;

namespace comove::core {
namespace {

using flow::net::Accept;
using flow::net::Connect;
using flow::net::Listen;
using flow::net::Listener;
using flow::net::MsgType;
using flow::net::PeerLink;
using flow::net::SocketTransport;

/// Control frame tags, all above MsgType::kFirstControl so they share the
/// data links without colliding with kElements/kCloseProducer.
enum CtrlTag : std::uint8_t {
  kTagHello = 16,      ///< worker -> coord: u32 index, string listen_addr
  kTagConfig = 17,     ///< coord -> worker: the full WorkerSetup blob
  kTagAck = 18,        ///< worker -> coord: checkpoint state ack
  kTagProgress = 19,   ///< worker -> coord: subtask finalized through t
  kTagResult = 20,     ///< worker -> coord: final run counters
  kTagPeerHello = 21,  ///< worker -> worker: u32 index (mesh handshake)
  kTagStats = 22,      ///< worker -> coord: stage-stats snapshots
  kTagTrace = 23,      ///< worker -> coord: trace events + clock anchors
  kTagPatterns = 24,   ///< worker -> coord: u64 subtask + one fold chunk
};

constexpr std::uint8_t kSnapshotEdge = 0;   ///< assembler -> cluster
constexpr std::uint8_t kPartitionEdge = 1;  ///< cluster -> enumerate
constexpr std::uint32_t kConfigVersion = 5;
/// Budget for every blocking handshake step (connect, HELLO, CONFIG), on
/// the coordinator and in the workers alike.
constexpr std::int64_t kWorkerHandshakeTimeoutMs = 15000;
/// Cadence of periodic worker STATS frames when no sampler interval is
/// set; with a sampler, the worker ships at the sampler's own cadence so
/// the coordinator-side series sees remote rows advance between ticks.
constexpr std::int64_t kDefaultStatsShipIntervalMs = 100;

/// Contiguous subtask range [lo, hi) of worker `w` out of `count`.
std::pair<std::int32_t, std::int32_t> SubtaskRange(std::int32_t parallelism,
                                                   std::int32_t count,
                                                   std::int32_t w) {
  const auto lo = static_cast<std::int32_t>(
      static_cast<std::int64_t>(w) * parallelism / count);
  const auto hi = static_cast<std::int32_t>(
      static_cast<std::int64_t>(w + 1) * parallelism / count);
  return {lo, hi};
}

std::string CoordinatorAddress(const std::string& transport) {
  if (transport == "tcp") return "tcp:127.0.0.1:0";
  // Unique per (pid, run) so parallel tests never collide on a path.
  static std::atomic<std::uint64_t> seq{0};
  return "unix:/tmp/comove-net-" + std::to_string(::getpid()) + "-" +
         std::to_string(seq.fetch_add(1)) + ".sock";
}

std::string WorkerListenAddress(const std::string& coord_address,
                                std::int32_t index) {
  if (coord_address.rfind("unix:", 0) == 0) {
    return coord_address + ".w" + std::to_string(index);
  }
  return "tcp:127.0.0.1:0";
}

void UnlinkIfUnix(const std::string& address) {
  if (address.rfind("unix:", 0) == 0) ::unlink(address.c_str() + 5);
}

/// Everything a worker process needs to run its subtask range,
/// reconstructed bit-for-bit from the CONFIG frame.
struct WorkerSetup {
  std::int32_t worker_count = 0;
  std::int32_t worker_index = 0;
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  std::vector<std::string> peer_addresses;
  IcpeOptions options;
  bool checkpointing = false;
  std::int64_t restored_id = 0;
  std::map<std::pair<std::string, std::int32_t>, std::string> restored;
  /// Observability: whether to keep a worker-side stats registry / trace
  /// recorder and ship them back over the control link.
  bool collect_stats = false;
  bool trace = false;
  std::int64_t stats_interval_ms = kDefaultStatsShipIntervalMs;
  /// Coordinator trace clock (TraceRecorder::NowNs) at CONFIG-encode
  /// time; paired with the worker clock at CONFIG-decode time it aligns
  /// the two timelines to within the one-way CONFIG latency.
  std::uint64_t coord_trace_now = 0;
};

void EncodeConfig(BinaryWriter* w, const WorkerSetup& s) {
  w->WriteU8(kTagConfig);
  w->WriteU32(kConfigVersion);
  w->WriteI32(s.worker_count);
  w->WriteI32(s.worker_index);
  w->WriteI32(s.options.parallelism);
  w->WriteI32(s.lo);
  w->WriteI32(s.hi);
  w->WriteU64(s.peer_addresses.size());
  for (const std::string& addr : s.peer_addresses) w->WriteString(addr);
  w->WriteU64(s.options.channel_capacity);
  w->WriteU64(s.options.exchange_batch_size);
  w->WriteU8(static_cast<std::uint8_t>(s.options.clustering));
  const cluster::RangeJoinOptions& join = s.options.cluster_options.join;
  w->WriteDouble(join.grid_cell_width);
  w->WriteDouble(join.eps);
  w->WriteU8(static_cast<std::uint8_t>(join.metric));
  w->WriteU8(static_cast<std::uint8_t>(join.simd));
  w->WriteI32(s.options.cluster_options.dbscan.min_pts);
  w->WriteU8(static_cast<std::uint8_t>(s.options.enumerator));
  w->WriteI32(s.options.constraints.m);
  w->WriteI32(s.options.constraints.k);
  w->WriteI32(s.options.constraints.l);
  w->WriteI32(s.options.constraints.g);
  w->WriteBool(s.checkpointing);
  w->WriteI64(s.restored_id);
  w->WriteString(s.options.fault.stage);
  w->WriteI32(s.options.fault.subtask);
  w->WriteI64(s.options.fault.at_checkpoint);
  w->WriteU64(s.restored.size());
  for (const auto& [key, bytes] : s.restored) {
    w->WriteString(key.first);
    w->WriteI32(key.second);
    w->WriteString(bytes);
  }
  w->WriteBool(s.collect_stats);
  w->WriteBool(s.trace);
  w->WriteI64(s.stats_interval_ms);
  w->WriteU64(s.coord_trace_now);
}

/// Decodes a CONFIG body (reader positioned after the tag). Returns false
/// on corruption or out-of-range values.
bool DecodeConfig(BinaryReader* r, WorkerSetup* s) {
  if (r->ReadU32() != kConfigVersion) return false;
  s->worker_count = r->ReadI32();
  s->worker_index = r->ReadI32();
  s->options.parallelism = r->ReadI32();
  s->lo = r->ReadI32();
  s->hi = r->ReadI32();
  const std::uint64_t peers = r->ReadU64();
  if (!r->ok() || peers != static_cast<std::uint64_t>(s->worker_count)) {
    return false;
  }
  for (std::uint64_t i = 0; i < peers; ++i) {
    s->peer_addresses.push_back(r->ReadString());
  }
  s->options.channel_capacity = static_cast<std::size_t>(r->ReadU64());
  s->options.exchange_batch_size = static_cast<std::size_t>(r->ReadU64());
  const std::uint8_t clustering = r->ReadU8();
  if (clustering > 2) return false;
  s->options.clustering = static_cast<cluster::ClusteringMethod>(clustering);
  cluster::RangeJoinOptions& join = s->options.cluster_options.join;
  join.grid_cell_width = r->ReadDouble();
  join.eps = r->ReadDouble();
  const std::uint8_t metric = r->ReadU8();
  const std::uint8_t simd = r->ReadU8();
  if (metric > 1 || simd > 1) return false;
  join.metric = static_cast<DistanceMetric>(metric);
  join.simd = static_cast<SimdLevel>(simd);
  s->options.cluster_options.dbscan.min_pts = r->ReadI32();
  const std::uint8_t enumerator = r->ReadU8();
  if (enumerator > static_cast<std::uint8_t>(EnumeratorKind::kNone)) {
    return false;
  }
  s->options.enumerator = static_cast<EnumeratorKind>(enumerator);
  PatternConstraints& c = s->options.constraints;
  c.m = r->ReadI32();
  c.k = r->ReadI32();
  c.l = r->ReadI32();
  c.g = r->ReadI32();
  if (!r->ok() || !c.IsValid()) return false;
  s->checkpointing = r->ReadBool();
  s->restored_id = r->ReadI64();
  s->options.fault.stage = r->ReadString();
  s->options.fault.subtask = r->ReadI32();
  s->options.fault.at_checkpoint = r->ReadI64();
  const std::uint64_t states = r->ReadU64();
  if (!r->ok() || states > r->remaining()) return false;
  for (std::uint64_t i = 0; i < states; ++i) {
    std::string op = r->ReadString();
    const std::int32_t subtask = r->ReadI32();
    std::string bytes = r->ReadString();
    s->restored[{std::move(op), subtask}] = std::move(bytes);
  }
  s->collect_stats = r->ReadBool();
  s->trace = r->ReadBool();
  s->stats_interval_ms = r->ReadI64();
  s->coord_trace_now = r->ReadU64();
  if (!r->ok() || !r->AtEnd()) return false;
  return s->worker_count > 0 && s->worker_index >= 0 &&
         s->worker_index < s->worker_count && s->options.parallelism > 0 &&
         s->lo >= 0 && s->lo <= s->hi &&
         s->hi <= s->options.parallelism;
}

/// The 13 run counters in their fixed wire order (= declaration order).
std::array<std::atomic<std::int64_t>*, 13> CounterFields(
    PipelineCounters* c) {
  return {&c->cluster_count,       &c->cluster_member_sum,
          &c->cluster_ns,          &c->cluster_calls,
          &c->enum_ns,             &c->enum_calls,
          &c->arena_bytes,         &c->arena_allocations,
          &c->enum_strings_opened, &c->enum_strings_closed,
          &c->enum_candidates_peak, &c->enum_apriori_nodes,
          &c->enum_apriori_pruned};
}

void EncodeResult(BinaryWriter* w, PipelineCounters* counters) {
  w->WriteU8(kTagResult);
  for (std::atomic<std::int64_t>* field : CounterFields(counters)) {
    w->WriteI64(field->load(std::memory_order_relaxed));
  }
}

/// Folds one worker's RESULT body (reader past the tag) into the
/// coordinator's run counters. Thread-safe against concurrent results.
bool FoldResult(BinaryReader* r, StageResults* results) {
  for (std::atomic<std::int64_t>* field : CounterFields(&results->counters)) {
    field->fetch_add(r->ReadI64(), std::memory_order_relaxed);
  }
  return r->ok() && r->AtEnd();
}

/// Ships the pattern folds of subtasks [lo, hi) as PATTERNS frames, each
/// tagged with its subtask. A chunk closes once it reaches
/// kResultChunkBytes, so no frame comes near the frame limit however
/// large a fold grows.
void ShipPatterns(PeerLink* coord,
                  const std::vector<pattern::PatternCollector>& folds,
                  std::int32_t lo, std::int32_t hi) {
  std::string payload;
  BinaryWriter writer(&payload);
  for (std::int32_t s = lo; s < hi; ++s) {
    std::size_t pending = 0;
    for (const auto& [objects, pat] :
         folds[static_cast<std::size_t>(s)].entries()) {
      if (pending == 0) {
        payload.clear();
        writer.WriteU8(kTagPatterns);
        writer.WriteU64(static_cast<std::uint64_t>(s));
      }
      WritePattern(&writer, pat);
      ++pending;
      if (payload.size() >= kResultChunkBytes) {
        coord->SendFrame(payload);
        pending = 0;
      }
    }
    if (pending > 0) coord->SendFrame(payload);
  }
}

/// Folds one PATTERNS chunk (reader past the tag) into the fold of its
/// subtask, which must lie in [lo, hi) - the range of the sending worker.
/// Only that worker's link reader writes those folds, so no lock is
/// needed.
bool FoldPatterns(BinaryReader* r, std::int32_t lo, std::int32_t hi,
                  StageResults* results) {
  const std::uint64_t s = r->ReadU64();
  if (!r->ok() || s < static_cast<std::uint64_t>(lo) ||
      s >= static_cast<std::uint64_t>(hi)) {
    return false;
  }
  pattern::PatternCollector& fold = results->folds[s];
  while (!r->AtEnd()) {
    const CoMovementPattern pat = ReadPattern(r);
    if (!r->ok()) return false;
    fold.Add(pat);
  }
  return true;
}

/// Re-executes this binary as worker `index` of the coordinator at
/// `coord_address`.
pid_t SpawnWorker(const std::string& coord_address, std::int32_t index) {
  static constexpr char kSelf[] = "/proc/self/exe";
  const std::string index_arg = std::to_string(index);
  std::array<char*, 5> argv = {
      const_cast<char*>(kSelf),
      const_cast<char*>(kNetWorkerFlag),
      const_cast<char*>(coord_address.c_str()),
      const_cast<char*>(index_arg.c_str()),
      nullptr,
  };
  pid_t pid = -1;
  if (::posix_spawn(&pid, kSelf, nullptr, nullptr, argv.data(),
                    environ) != 0) {
    return -1;
  }
  return pid;
}

}  // namespace

int NetWorkerMain(const std::string& coordinator_address,
                  std::int32_t worker_index) {
  // --- Handshake: dial the coordinator, stand up our own listener,
  // introduce ourselves, and block for the configuration. Everything here
  // is single-threaded (no reader threads yet), so blocking reads are
  // safe.
  UniqueFd coord_fd = Connect(coordinator_address, kWorkerHandshakeTimeoutMs);
  if (!coord_fd.valid()) {
    std::fprintf(stderr, "net worker %d: cannot reach coordinator %s\n",
                 worker_index, coordinator_address.c_str());
    return 2;
  }
  PeerLink coord(std::move(coord_fd));
  const std::string listen_address =
      WorkerListenAddress(coordinator_address, worker_index);
  std::string listen_error;
  Listener listener = Listen(listen_address, &listen_error);
  if (!listener.valid()) {
    std::fprintf(stderr, "net worker %d: listen %s failed: %s\n",
                 worker_index, listen_address.c_str(),
                 listen_error.c_str());
    return 2;
  }
  {
    std::string hello;
    BinaryWriter writer(&hello);
    writer.WriteU8(kTagHello);
    writer.WriteU32(static_cast<std::uint32_t>(worker_index));
    writer.WriteString(listener.address);
    if (!coord.SendFrame(hello)) return 2;
  }
  WorkerSetup setup;
  {
    std::string frame;
    if (!coord.ReadFrameBlocking(&frame, kWorkerHandshakeTimeoutMs)) {
      std::fprintf(stderr, "net worker %d: no CONFIG from coordinator\n",
                   worker_index);
      return 2;
    }
    BinaryReader reader(frame);
    if (reader.ReadU8() != kTagConfig || !DecodeConfig(&reader, &setup) ||
        setup.worker_index != worker_index) {
      std::fprintf(stderr, "net worker %d: bad CONFIG frame\n",
                   worker_index);
      return 2;
    }
  }
  const std::int32_t worker_count = setup.worker_count;
  const std::int32_t p = setup.options.parallelism;

  // --- Worker-side observability. The worker keeps its own stats
  // registry and trace recorder and ships both to the coordinator over
  // the control link: throttled STATS frames piggyback on the progress
  // cadence, and the pattern chunks, a final STATS and the TRACE precede
  // the RESULT on the same FIFO link, so the coordinator has merged them
  // all by the time the result is accounted. Handshake frames stay
  // uncounted on both ends (link stats attach only after CONFIG here,
  // after CONFIG-send on the coordinator, and after PeerHello on both
  // mesh sides), which keeps the per-link frame counters symmetric
  // across a clean run.
  const bool enumerate = setup.options.enumerator != EnumeratorKind::kNone;
  const bool wcollect = setup.collect_stats;
  flow::StageStatsRegistry wstats;
  std::optional<flow::TraceRecorder> owned_wtrace;
  flow::TraceRecorder* const wtr =
      setup.trace ? &owned_wtrace.emplace() : nullptr;
  // Clock-alignment anchor: our recorder clock at CONFIG receipt pairs
  // with the coordinator clock stamped into the CONFIG.
  const std::uint64_t trace_anchor = wtr != nullptr ? wtr->NowNs() : 0;
  flow::StageStats* snapshot_stats = nullptr;
  flow::StageStats* partition_stats = nullptr;
  if (wcollect) {
    // Deterministic registry order: stage rows first, then the links.
    // The coordinator pre-registers the same rows (prefixed "w<i>:") and
    // matches incoming snapshots by name.
    snapshot_stats = &wstats.Get("assembler->cluster");
    if (enumerate) partition_stats = &wstats.Get("cluster->enumerate");
    coord.set_stats(&wstats.Get("link:coord"));
    for (std::int32_t j = 0; j < worker_count; ++j) {
      if (j != worker_index) wstats.Get("link:w" + std::to_string(j));
    }
  }

  // --- Worker mesh for the p x p partition edge: connect to every
  // lower-indexed worker, then accept every higher-indexed one. Safe
  // ordering: the coordinator sends CONFIG only after ALL workers said
  // HELLO, so every listener already exists when the dialing starts.
  std::vector<std::unique_ptr<PeerLink>> peers(
      static_cast<std::size_t>(worker_count));
  for (std::int32_t i = 0; i < worker_index; ++i) {
    UniqueFd fd = Connect(setup.peer_addresses[static_cast<std::size_t>(i)],
                          kWorkerHandshakeTimeoutMs);
    if (!fd.valid()) return 2;
    auto link = std::make_unique<PeerLink>(std::move(fd));
    std::string hello;
    BinaryWriter writer(&hello);
    writer.WriteU8(kTagPeerHello);
    writer.WriteU32(static_cast<std::uint32_t>(worker_index));
    if (!link->SendFrame(hello)) return 2;
    if (wcollect) {
      link->set_stats(&wstats.Get("link:w" + std::to_string(i)));
    }
    peers[static_cast<std::size_t>(i)] = std::move(link);
  }
  for (std::int32_t n = worker_index + 1; n < worker_count; ++n) {
    UniqueFd fd = Accept(listener, kWorkerHandshakeTimeoutMs);
    if (!fd.valid()) return 2;
    auto link = std::make_unique<PeerLink>(std::move(fd));
    std::string frame;
    if (!link->ReadFrameBlocking(&frame, kWorkerHandshakeTimeoutMs)) {
      return 2;
    }
    BinaryReader reader(frame);
    const std::uint8_t tag = reader.ReadU8();
    const auto index = static_cast<std::int32_t>(reader.ReadU32());
    if (tag != kTagPeerHello || !reader.ok() || !reader.AtEnd() ||
        index <= worker_index || index >= worker_count ||
        peers[static_cast<std::size_t>(index)] != nullptr) {
      return 2;
    }
    if (wcollect) {
      link->set_stats(&wstats.Get("link:w" + std::to_string(index)));
    }
    peers[static_cast<std::size_t>(index)] = std::move(link);
  }

  // --- Transports. The snapshot edge only receives here (the assembler
  // lives on the coordinator); the partition edge routes each remote
  // consumer through the link of its hosting worker.
  std::vector<PeerLink*> snapshot_route(static_cast<std::size_t>(p),
                                        nullptr);
  std::vector<PeerLink*> partition_route(static_cast<std::size_t>(p),
                                         nullptr);
  std::vector<std::int32_t> peer_subtasks(
      static_cast<std::size_t>(worker_count), 0);
  for (std::int32_t w = 0; w < worker_count; ++w) {
    const auto [lo, hi] = SubtaskRange(p, worker_count, w);
    peer_subtasks[static_cast<std::size_t>(w)] = hi - lo;
    if (w == worker_index) continue;
    for (std::int32_t c = lo; c < hi; ++c) {
      partition_route[static_cast<std::size_t>(c)] =
          peers[static_cast<std::size_t>(w)].get();
    }
  }
  SocketTransport<Snapshot, SnapshotCodec> snapshot_transport(
      1, p, kSnapshotEdge, setup.lo, setup.hi, snapshot_route,
      setup.options.channel_capacity, snapshot_stats);
  SocketTransport<pattern::Partition, PartitionCodec> partition_transport(
      p, p, kPartitionEdge, setup.lo, setup.hi, partition_route,
      setup.options.channel_capacity, partition_stats);

  std::atomic<bool> crashed{false};
  std::atomic<bool> finished{false};
  auto declare_crash = [&] {
    bool expected = false;
    if (!crashed.compare_exchange_strong(expected, true)) return;
    snapshot_transport.Cancel();
    partition_transport.Cancel();
  };

  // --- Link readers. Close accounting decides whether a peer's EOF is a
  // clean finish or a crash: every close frame of a link arrives before
  // its EOF (FIFO), so by on_close time the counters are final. The
  // counters are only ever touched from that link's own reader thread.
  std::int64_t coord_snapshot_closes = 0;
  std::vector<std::int64_t> peer_partition_closes(
      static_cast<std::size_t>(worker_count), 0);
  auto on_frame = [&](std::int64_t* close_count,
                      std::string_view payload) {
    BinaryReader reader(payload);
    const std::uint8_t tag = reader.ReadU8();
    if (tag == static_cast<std::uint8_t>(MsgType::kElements)) {
      const std::uint8_t edge = reader.ReadU8();
      bool ok = reader.ok();
      if (ok && edge == kSnapshotEdge) {
        ok = snapshot_transport.OnElements(&reader);
      } else if (ok && edge == kPartitionEdge) {
        ok = partition_transport.OnElements(&reader);
      } else {
        ok = false;
      }
      if (!ok) declare_crash();
    } else if (tag == static_cast<std::uint8_t>(MsgType::kCloseProducer)) {
      const std::uint8_t edge = reader.ReadU8();
      reader.ReadI32();  // producer index, informational
      if (!reader.ok()) {
        declare_crash();
        return;
      }
      if (edge == kSnapshotEdge) {
        snapshot_transport.OnCloseProducer();
      } else if (edge == kPartitionEdge) {
        partition_transport.OnCloseProducer();
      }
      ++*close_count;
    }
    // Unknown control tags are ignored (forward compatibility).
  };
  coord.Start(
      [&](std::string_view payload) {
        on_frame(&coord_snapshot_closes, payload);
      },
      [&] {
        // Coordinator EOF is clean only once we are past our RESULT
        // (the coordinator half-closes after collecting it).
        if (!finished.load(std::memory_order_acquire)) declare_crash();
      });
  for (std::int32_t w = 0; w < worker_count; ++w) {
    if (w == worker_index || peers[static_cast<std::size_t>(w)] == nullptr) {
      continue;
    }
    std::int64_t* closes = &peer_partition_closes[static_cast<std::size_t>(w)];
    const std::int64_t expected_closes = peer_subtasks[static_cast<std::size_t>(w)];
    peers[static_cast<std::size_t>(w)]->Start(
        [&, closes](std::string_view payload) { on_frame(closes, payload); },
        [&, closes, expected_closes] {
          // Peer EOF after all its producer closes = it finished; EOF
          // before that = it died mid-stream.
          if (*closes < expected_closes) declare_crash();
        });
  }

  // --- Run state and the subtask environment. Acks and progress go to
  // the coordinator as control frames; each enumerate subtask's fold is
  // shipped ahead of the RESULT (a fold commits only at a normal exit, so
  // a crashed worker contributes nothing and recovery regenerates its
  // patterns exactly).
  FaultInjector injector(setup.options.fault);
  StageResults results(p);

  // Periodic + final stats shipping. SendFrame serialises on the link's
  // send mutex, so STATS frames from different subtask threads interleave
  // safely with acks, progress, and shipped data.
  auto ship_stats = [&](bool final_frame) {
    std::string payload;
    BinaryWriter writer(&payload);
    writer.WriteU8(kTagStats);
    writer.WriteBool(final_frame);
    const std::vector<flow::StageStatsSnapshot> rows = wstats.Snapshot();
    writer.WriteU64(rows.size());
    for (const flow::StageStatsSnapshot& row : rows) {
      flow::net::WriteStageStatsSnapshot(&writer, row);
    }
    coord.SendFrame(payload);
  };
  std::atomic<std::int64_t> last_stats_ms{0};
  auto maybe_ship_stats = [&] {
    if (!wcollect) return;
    const std::int64_t now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    std::int64_t last = last_stats_ms.load(std::memory_order_relaxed);
    if (now_ms - last < setup.stats_interval_ms) return;
    if (!last_stats_ms.compare_exchange_strong(last, now_ms,
                                               std::memory_order_relaxed)) {
      return;  // another subtask just shipped this interval
    }
    ship_stats(false);
  };

  StageEnv env;
  env.options = &setup.options;
  env.tr = wtr;
  env.injector = &injector;
  env.crashed = &crashed;
  // An injected fault is a REAL process kill here: no destructors, no
  // RESULT, sockets slam shut - exactly what recovery must survive. Only
  // the unix listen socket's path is removed first, as on every exit.
  env.crash_all = [&listener] {
    UnlinkIfUnix(listener.address);
    std::_Exit(3);
  };
  env.ack = [&](std::int64_t id, const char* op, std::int32_t subtask,
                std::string state, flow::StageStats* stats) {
    if (stats != nullptr) {
      stats->OnSnapshot(static_cast<std::int64_t>(state.size()), id);
    }
    const std::uint64_t t0 = wtr != nullptr ? wtr->NowNs() : 0;
    std::string payload;
    BinaryWriter writer(&payload);
    writer.WriteU8(kTagAck);
    writer.WriteString(op);
    writer.WriteI32(subtask);
    writer.WriteI64(id);
    writer.WriteString(state);
    coord.SendFrame(payload);
    if (wtr != nullptr) {
      wtr->RecordSpanSince("checkpoint", op, subtask, kNoTime, t0, id);
    }
  };
  env.restored_state = [&](const char* op,
                           std::int32_t subtask) -> const std::string* {
    const auto it = setup.restored.find({std::string(op), subtask});
    return it != setup.restored.end() ? &it->second : nullptr;
  };
  env.progress = [&](std::int32_t subtask, Timestamp through) {
    std::string payload;
    BinaryWriter writer(&payload);
    writer.WriteU8(kTagProgress);
    writer.WriteI32(subtask);
    writer.WriteI64(through);
    coord.SendFrame(payload);
    maybe_ship_stats();
  };
  env.checkpointing = setup.checkpointing;
  env.restored_id = setup.restored_id;
  env.pop_batch_max =
      std::max<std::size_t>(std::size_t{1}, setup.options.exchange_batch_size);

  {
    flow::TaskGroup tasks;
    SpawnStageSubtasks(tasks, setup.lo, setup.hi, env, results,
                       snapshot_transport, snapshot_stats,
                       partition_transport, partition_stats);
  }

  if (crashed.load()) {
    // A peer (or the coordinator) died. Exit hard: _Exit drops every
    // socket at once, so the remaining processes observe our EOF
    // immediately instead of deadlocking on PeerLink reader joins.
    UnlinkIfUnix(listener.address);
    std::_Exit(1);
  }

  finished.store(true, std::memory_order_release);
  // The pattern chunks go first so the final stats count them; the final
  // observability frames then precede the RESULT on the same FIFO link,
  // so when the coordinator accounts the result, every merge is done.
  ShipPatterns(&coord, results.folds, setup.lo, setup.hi);
  if (wcollect) ship_stats(true);
  if (wtr != nullptr) {
    // Subtask threads are joined, so Events() is complete and sorted.
    std::string payload;
    BinaryWriter writer(&payload);
    writer.WriteU8(kTagTrace);
    writer.WriteU64(trace_anchor);
    writer.WriteU64(setup.coord_trace_now);
    writer.WriteI64(wtr->recorded());
    writer.WriteI64(wtr->dropped());
    const std::vector<flow::TraceEvent> events = wtr->Events();
    writer.WriteU64(events.size());
    for (const flow::TraceEvent& e : events) {
      flow::net::WriteTraceEvent(&writer, e);
    }
    coord.SendFrame(payload);
  }
  {
    std::string payload;
    BinaryWriter writer(&payload);
    EncodeResult(&writer, &results.counters);
    coord.SendFrame(payload);
  }
  // Half-close everything, then join readers: the coordinator closes our
  // link after collecting the RESULT, peers after finishing their own
  // ranges.
  coord.CloseSend();
  for (auto& peer : peers) {
    if (peer) peer->CloseSend();
  }
  for (auto& peer : peers) {
    if (peer) peer->Shutdown();
  }
  coord.Shutdown();
  UnlinkIfUnix(listener.address);
  return 0;
}

std::optional<int> MaybeNetWorker(int argc, char** argv) {
  if (argc >= 4 && std::string_view(argv[1]) == kNetWorkerFlag) {
    return NetWorkerMain(argv[2], std::atoi(argv[3]));
  }
  return std::nullopt;
}

WorkerFleet::WorkerFleet(const DistributedOptions& dist, const StageEnv& env,
                         const flow::CheckpointBundle* restored,
                         flow::StageStatsRegistry* stats,
                         StageResults* results,
                         flow::CheckpointCoordinator* checkpoints)
    : env_(env),
      count_(dist.workers),
      stats_(stats),
      results_(results),
      checkpoints_(checkpoints),
      traces_(static_cast<std::size_t>(dist.workers)),
      stats_final_(static_cast<std::size_t>(dist.workers), 0),
      trace_received_(static_cast<std::size_t>(dist.workers), 0),
      accounted_(static_cast<std::size_t>(dist.workers)) {
  const IcpeOptions& options = *env.options;
  const std::int32_t p = options.parallelism;
  // --- Spawn the workers and complete the handshake: accept W links,
  // read each HELLO (index + listen address), then send every worker its
  // CONFIG - which includes ALL worker addresses, making the mesh dial-up
  // race-free (every listener provably exists).
  std::string listen_error;
  Listener listener =
      Listen(CoordinatorAddress(dist.transport), &listen_error);
  COMOVE_CHECK_MSG(listener.valid(), "coordinator listen failed: %s",
                   listen_error.c_str());
  for (std::int32_t w = 0; w < count_; ++w) {
    const pid_t pid = SpawnWorker(listener.address, w);
    COMOVE_CHECK_MSG(pid > 0, "cannot spawn worker process %d", w);
    pids_.push_back(pid);
  }
  links_.resize(static_cast<std::size_t>(count_));
  std::vector<std::string> worker_addresses(
      static_cast<std::size_t>(count_));
  for (std::int32_t n = 0; n < count_; ++n) {
    UniqueFd fd = Accept(listener, kWorkerHandshakeTimeoutMs);
    COMOVE_CHECK_MSG(fd.valid(), "timed out waiting for worker HELLO");
    auto link = std::make_unique<PeerLink>(std::move(fd));
    std::string frame;
    COMOVE_CHECK_MSG(
        link->ReadFrameBlocking(&frame, kWorkerHandshakeTimeoutMs),
        "worker handshake failed");
    BinaryReader reader(frame);
    const std::uint8_t tag = reader.ReadU8();
    const auto index = static_cast<std::int32_t>(reader.ReadU32());
    std::string address = reader.ReadString();
    COMOVE_CHECK_MSG(tag == kTagHello && reader.ok() && reader.AtEnd() &&
                         index >= 0 && index < count_ &&
                         links_[static_cast<std::size_t>(index)] == nullptr,
                     "bad worker HELLO");
    links_[static_cast<std::size_t>(index)] = std::move(link);
    worker_addresses[static_cast<std::size_t>(index)] = std::move(address);
  }
  // Every worker is connected; the rendezvous path is no longer needed.
  UnlinkIfUnix(listener.address);

  for (std::int32_t w = 0; w < count_; ++w) {
    WorkerSetup setup;
    setup.worker_count = count_;
    setup.worker_index = w;
    std::tie(setup.lo, setup.hi) = SubtaskRange(p, count_, w);
    setup.peer_addresses = worker_addresses;
    setup.options.parallelism = p;
    setup.options.channel_capacity = options.channel_capacity;
    setup.options.exchange_batch_size = options.exchange_batch_size;
    setup.options.clustering = options.clustering;
    setup.options.cluster_options = options.cluster_options;
    setup.options.enumerator = options.enumerator;
    setup.options.constraints = options.constraints;
    setup.options.fault = options.fault;
    setup.checkpointing = env.checkpointing;
    setup.restored_id = env.restored_id;
    setup.collect_stats = stats_ != nullptr;
    setup.trace = env.tr != nullptr;
    if (options.sample_interval_ms > 0) {
      setup.stats_interval_ms = options.sample_interval_ms;
    }
    if (restored != nullptr) {
      // Workers only host cluster (stateless, empty acks) and enumerate
      // subtasks; ship exactly those states from the bundle.
      for (const flow::OperatorState& state : restored->states) {
        if (state.op == "cluster" || state.op == "enumerate") {
          setup.restored[{state.op, state.subtask}] = state.bytes;
        }
      }
    }
    // The clock anchor is per-worker: stamped right before the send so
    // the pairing with the worker's decode-time clock is as tight as the
    // one-way CONFIG latency allows.
    setup.coord_trace_now = env.tr != nullptr ? env.tr->NowNs() : 0;
    std::string payload;
    BinaryWriter writer(&payload);
    EncodeConfig(&writer, setup);
    links_[static_cast<std::size_t>(w)]->SendFrame(payload);
    if (stats_ != nullptr) {
      // Attach link stats only after CONFIG so the handshake frames stay
      // uncounted on both ends (the worker mirrors this), keeping frame
      // counters symmetric across a clean run.
      links_[static_cast<std::size_t>(w)]->set_stats(
          &stats_->Get("link:w" + std::to_string(w)));
    }
  }
  if (stats_ != nullptr) {
    // Pre-register every row the workers will ship, in deterministic
    // order: the sampler matches rows positionally on the append-only
    // registry, so the layout must be stable from its first tick.
    for (std::int32_t w = 0; w < count_; ++w) {
      const std::string prefix = "w" + std::to_string(w) + ":";
      stats_->Get(prefix + "assembler->cluster");
      if (options.enumerator != EnumeratorKind::kNone) {
        stats_->Get(prefix + "cluster->enumerate");
      }
      stats_->Get(prefix + "link:coord");
      for (std::int32_t j = 0; j < count_; ++j) {
        if (j != w) stats_->Get(prefix + "link:w" + std::to_string(j));
      }
    }
  }

  // The coordinator's end of the snapshot edge hosts no consumer:
  // route[c] is the link of the worker hosting cluster subtask c.
  std::vector<PeerLink*> route(static_cast<std::size_t>(p), nullptr);
  for (std::int32_t w = 0; w < count_; ++w) {
    const auto [lo, hi] = SubtaskRange(p, count_, w);
    for (std::int32_t c = lo; c < hi; ++c) {
      route[static_cast<std::size_t>(c)] =
          links_[static_cast<std::size_t>(w)].get();
    }
  }
  snapshots_ = std::make_unique<SocketTransport<Snapshot, SnapshotCodec>>(
      1, p, kSnapshotEdge, 0, 0, std::move(route), options.channel_capacity);

  for (std::int32_t w = 0; w < count_; ++w) {
    links_[static_cast<std::size_t>(w)]->Start(
        [this, w](std::string_view payload) { OnFrame(w, payload); },
        [this, w] { Account(w, false); });
  }
}

WorkerFleet::~WorkerFleet() = default;

void WorkerFleet::Account(std::int32_t w, bool with_result) {
  bool expected = false;
  if (!accounted_[static_cast<std::size_t>(w)].compare_exchange_strong(
          expected, true)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    ++done_;
  }
  done_cv_.notify_all();
  // A worker that died mid-run (or shipped a corrupt fold) takes the run
  // down: the local stages unwind instead of streaming into a dead
  // pipeline.
  if (!with_result) env_.crash_all();
}

void WorkerFleet::OnFrame(std::int32_t w, std::string_view payload) {
  BinaryReader reader(payload);
  const std::uint8_t tag = reader.ReadU8();
  switch (tag) {
    case kTagAck: {
      std::string op = reader.ReadString();
      const std::int32_t subtask = reader.ReadI32();
      const std::int64_t id = reader.ReadI64();
      std::string state = reader.ReadString();
      if (!reader.ok() || !reader.AtEnd() || checkpoints_ == nullptr) break;
      // Remote snapshot-size stats are not charged to a local stage row;
      // the "checkpoint" row still totals persisted bytes.
      checkpoints_->Ack(id, std::move(op), subtask, std::move(state));
      break;
    }
    case kTagProgress: {
      const std::int32_t subtask = reader.ReadI32();
      const auto through = static_cast<Timestamp>(reader.ReadI64());
      if (!reader.ok() || !reader.AtEnd()) break;
      env_.progress(subtask, through);
      break;
    }
    case kTagPatterns: {
      const auto [lo, hi] =
          SubtaskRange(env_.options->parallelism, count_, w);
      if (!FoldPatterns(&reader, lo, hi, results_)) Account(w, false);
      break;
    }
    case kTagResult:
      if (FoldResult(&reader, results_)) Account(w, true);
      break;
    case kTagStats: {
      const bool final_frame = reader.ReadBool();
      const std::uint64_t rows = reader.ReadU64();
      if (!reader.ok() || rows > reader.remaining() || stats_ == nullptr) {
        break;
      }
      const std::string prefix = "w" + std::to_string(w) + ":";
      bool ok = true;
      for (std::uint64_t i = 0; ok && i < rows; ++i) {
        flow::StageStatsSnapshot snap;
        ok = flow::net::ReadStageStatsSnapshot(&reader, &snap);
        if (ok) {
          // OverwriteFrom stamps the remote counters into the local row,
          // so the sampler sees remote gauges (queue depth, watermarks)
          // advance like local ones.
          stats_->Get(prefix + snap.stage).OverwriteFrom(snap);
        }
      }
      if (ok && reader.AtEnd() && final_frame) {
        stats_final_[static_cast<std::size_t>(w)] = 1;
      }
      break;
    }
    case kTagTrace: {
      const std::uint64_t worker_anchor = reader.ReadU64();
      const std::uint64_t coord_anchor = reader.ReadU64();
      const std::int64_t recorded = reader.ReadI64();
      const std::int64_t dropped = reader.ReadI64();
      const std::uint64_t events = reader.ReadU64();
      if (!reader.ok() || events > reader.remaining()) break;
      // Both anchors were taken at CONFIG time (coordinator side at
      // encode, worker side at decode), so shifting by their difference
      // puts the worker lane on the coordinator clock to within the
      // one-way CONFIG latency.
      const std::int64_t offset = static_cast<std::int64_t>(coord_anchor) -
                                  static_cast<std::int64_t>(worker_anchor);
      flow::ProcessTrace proc;
      proc.process_name = "w" + std::to_string(w);
      proc.pid = 2 + w;
      proc.recorded = recorded;
      proc.dropped = dropped;
      proc.events.reserve(static_cast<std::size_t>(events));
      bool ok = true;
      for (std::uint64_t i = 0; ok && i < events; ++i) {
        flow::TraceEvent e;
        ok = flow::net::ReadTraceEvent(&reader, &trace_strings_, &e);
        if (!ok) break;
        const std::int64_t shifted =
            static_cast<std::int64_t>(e.start_ns) + offset;
        // Clamping keeps the lane monotone: events were sorted before
        // the (constant) shift.
        e.start_ns = shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0;
        proc.events.push_back(e);
      }
      if (ok && reader.AtEnd()) {
        traces_[static_cast<std::size_t>(w)] = std::move(proc);
        trace_received_[static_cast<std::size_t>(w)] = 1;
      }
      break;
    }
    default:
      break;  // data frames never flow worker -> coordinator
  }
}

bool WorkerFleet::Finish() {
  {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [&] { return done_ == count_; });
  }
  for (auto& link : links_) link->CloseSend();
  for (auto& link : links_) link->Shutdown();
  bool clean = true;
  for (const pid_t pid : pids_) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) clean = false;
  }
  return clean;
}

void WorkerFleet::CheckObservabilityShipped() const {
  // Both final frames precede the RESULT on the same FIFO link, so a
  // clean run has them from every worker. Crashed runs keep whatever
  // partial rows arrived; OverwriteFrom never leaves a row half-written.
  for (std::int32_t w = 0; w < count_; ++w) {
    COMOVE_CHECK_MSG(
        stats_ == nullptr || stats_final_[static_cast<std::size_t>(w)] != 0,
        "worker %d finished without shipping final stage stats", w);
    COMOVE_CHECK_MSG(env_.tr == nullptr ||
                         trace_received_[static_cast<std::size_t>(w)] != 0,
                     "worker %d finished without shipping its trace", w);
  }
}

std::vector<flow::ProcessTrace> WorkerFleet::TakeTraces() {
  std::vector<flow::ProcessTrace> out;
  for (std::int32_t w = 0; w < count_; ++w) {
    if (trace_received_[static_cast<std::size_t>(w)] != 0) {
      out.push_back(std::move(traces_[static_cast<std::size_t>(w)]));
    }
  }
  return out;
}

}  // namespace comove::core
