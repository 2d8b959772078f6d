#include "flow/stage_stats.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "flow/channel.h"
#include "flow/element.h"
#include "flow/exchange.h"

namespace comove::flow {
namespace {

TEST(StageStats, CountsDepthAndSplitsWatermarks) {
  StageStats stats("test-stage");
  Channel<Element<int>> ch(8, &stats);
  ch.RegisterProducer();
  ch.Push(Element<int>::Data(1, 0));
  ch.Push(Element<int>::Data(2, 0));
  ch.Push(Element<int>::Watermark(5, 0));

  StageStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.stage, "test-stage");
  EXPECT_EQ(s.records_pushed, 2);
  EXPECT_EQ(s.watermarks_pushed, 1);
  EXPECT_EQ(s.records_popped, 0);
  EXPECT_EQ(s.queue_depth, 3);
  EXPECT_EQ(s.max_queue_depth, 3);

  ch.CloseProducer();
  while (ch.Pop().has_value()) {
  }
  s = stats.Snapshot();
  EXPECT_EQ(s.records_popped, 2);
  EXPECT_EQ(s.watermarks_popped, 1);
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_EQ(s.max_queue_depth, 3);
}

TEST(StageStats, PlainPayloadsCountAsRecords) {
  StageStats stats("ints");
  Channel<int> ch(4, &stats);
  ch.RegisterProducer();
  ch.Push(7);
  int out = 0;
  EXPECT_EQ(ch.TryPop(out), PollResult::kItem);
  ch.CloseProducer();
  const StageStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.records_pushed, 1);
  EXPECT_EQ(s.records_popped, 1);
  EXPECT_EQ(s.watermarks_pushed, 0);
  EXPECT_EQ(s.queue_depth, 0);
}

TEST(StageStats, PushBlockedTimeAccountsBackpressure) {
  StageStats stats("backpressured");
  Channel<int> ch(1, &stats);
  ch.RegisterProducer();
  ch.Push(1);  // fills the channel without blocking
  std::thread producer([&] {
    ch.Push(2);  // blocks until the consumer frees capacity
    ch.CloseProducer();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(ch.Pop(), 1);
  producer.join();
  const StageStatsSnapshot s = stats.Snapshot();
  EXPECT_GE(s.push_blocked_ms, 30.0);
  EXPECT_DOUBLE_EQ(s.pop_blocked_ms, 0.0);
}

TEST(StageStats, PopBlockedTimeAccountsStarvation) {
  StageStats stats("starved");
  Channel<int> ch(4, &stats);
  ch.RegisterProducer();
  std::thread consumer([&] { EXPECT_EQ(ch.Pop(), 9); });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ch.Push(9);
  consumer.join();
  ch.CloseProducer();
  const StageStatsSnapshot s = stats.Snapshot();
  EXPECT_GE(s.pop_blocked_ms, 30.0);
  EXPECT_DOUBLE_EQ(s.push_blocked_ms, 0.0);
}

TEST(StageStats, ExchangeAggregatesAllConsumerChannels) {
  StageStatsRegistry registry;
  StageStats& stats = registry.Get("producer->consumer");
  Exchange<int> exchange(/*producers=*/1, /*consumers=*/2,
                         /*capacity_per_channel=*/16, &stats);
  exchange.Send(0, 0, 10);
  exchange.Send(0, 1, 20);
  exchange.BroadcastWatermark(0, 7);  // one per consumer
  exchange.CloseProducer(0);

  StageStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.records_pushed, 2);
  EXPECT_EQ(s.watermarks_pushed, 2);
  EXPECT_EQ(s.queue_depth, 4);

  for (std::int32_t c = 0; c < 2; ++c) {
    while (exchange.channel(c).Pop().has_value()) {
    }
  }
  s = stats.Snapshot();
  EXPECT_EQ(s.records_popped, 2);
  EXPECT_EQ(s.watermarks_popped, 2);
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_EQ(s.max_queue_depth, 4);
}

TEST(StageStatsRegistry, GetReturnsStableInstancePerName) {
  StageStatsRegistry registry;
  StageStats& a = registry.Get("a");
  StageStats& b = registry.Get("b");
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&registry.Get("a"), &a);
  a.OnPush(false, 0);
  const auto snapshots = registry.Snapshot();
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_EQ(snapshots[0].stage, "a");
  EXPECT_EQ(snapshots[0].records_pushed, 1);
  EXPECT_EQ(snapshots[1].stage, "b");
}

TEST(StageStats, BatchSizeBucketIsFloorLog2Clamped) {
  EXPECT_EQ(StageStats::BatchSizeBucket(0), 0u);
  EXPECT_EQ(StageStats::BatchSizeBucket(1), 0u);
  EXPECT_EQ(StageStats::BatchSizeBucket(2), 1u);
  EXPECT_EQ(StageStats::BatchSizeBucket(3), 1u);
  EXPECT_EQ(StageStats::BatchSizeBucket(4), 2u);
  EXPECT_EQ(StageStats::BatchSizeBucket(63), 5u);
  EXPECT_EQ(StageStats::BatchSizeBucket(64), 6u);
  // Sizes past the last power-of-two bucket clamp into it.
  EXPECT_EQ(StageStats::BatchSizeBucket(std::size_t{1} << 40),
            kBatchSizeBuckets - 1);
}

TEST(StageStats, BatchHistogramCountsTransfersNotElements) {
  StageStats stats("s");
  Channel<int> ch(64, &stats);
  ch.RegisterProducer();
  ch.Push(1);  // a plain push is a batch of 1
  std::vector<int> batch = {1, 2, 3, 4, 5};
  ch.PushBatch(std::move(batch));  // one batch of 5 -> bucket 2 (4..7)
  const StageStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.batches_pushed, 2);
  EXPECT_EQ(s.records_pushed, 6);
  EXPECT_DOUBLE_EQ(s.avg_batch_size, 3.0);
  EXPECT_EQ(s.batch_size_histogram[0], 1);
  EXPECT_EQ(s.batch_size_histogram[2], 1);
  std::int64_t total = 0;
  for (const std::int64_t count : s.batch_size_histogram) total += count;
  EXPECT_EQ(total, s.batches_pushed);
  ch.CloseProducer();
}

TEST(StageStats, BatchedPopsAggregateLikeSinglePops) {
  StageStats stats("s");
  Channel<Element<int>> ch(64, &stats);
  ch.RegisterProducer();
  std::vector<Element<int>> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(Element<int>::Data(i, 0));
  batch.push_back(Element<int>::Watermark(10, 0));
  ch.PushBatch(std::move(batch));
  StageStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.records_pushed, 4);
  EXPECT_EQ(s.watermarks_pushed, 1);
  EXPECT_EQ(s.queue_depth, 5);
  std::vector<Element<int>> out;
  EXPECT_EQ(ch.PopBatch(out, 16), 5u);
  s = stats.Snapshot();
  EXPECT_EQ(s.records_popped, 4);
  EXPECT_EQ(s.watermarks_popped, 1);
  EXPECT_EQ(s.queue_depth, 0);
  ch.CloseProducer();
}

TEST(StageStats, PrintBatchHistogramListsNonEmptyBucketsOnly) {
  StageStats stats("a->b");
  Channel<int> ch(256, &stats);
  ch.RegisterProducer();
  std::vector<int> batch(64, 7);
  ch.PushBatch(std::move(batch));
  ch.Push(1);
  std::ostringstream out;
  PrintBatchHistogram({stats.Snapshot()}, out);
  EXPECT_NE(out.str().find("a->b"), std::string::npos);
  EXPECT_NE(out.str().find("1:1"), std::string::npos);
  EXPECT_NE(out.str().find("64:1"), std::string::npos);
  ch.CloseProducer();
}

TEST(StageStats, LastWatermarkIsMaxOfObservedValues) {
  StageStats stats("a->b");
  EXPECT_EQ(stats.Snapshot().last_watermark, kNoTime);  // none seen yet

  stats.OnWatermarkValue(5);
  stats.OnWatermarkValue(9);
  stats.OnWatermarkValue(7);  // out-of-order arrival must not regress
  EXPECT_EQ(stats.Snapshot().last_watermark, 9);

  // The end-of-stream sentinel is excluded so the gauge keeps reporting
  // real event time.
  stats.OnWatermarkValue(std::numeric_limits<Timestamp>::max());
  EXPECT_EQ(stats.Snapshot().last_watermark, 9);
}

TEST(StageStats, SentinelOnlyWatermarksLeaveGaugeUnset) {
  StageStats stats("a->b");
  stats.OnWatermarkValue(std::numeric_limits<Timestamp>::max());
  EXPECT_EQ(stats.Snapshot().last_watermark, kNoTime);
}

TEST(StageStats, LinkCountersTrackFramesBytesAndRejects) {
  StageStats stats("link:w0");
  stats.OnLinkFrameSent(100, 2'000'000);     // 2 ms blocked in write
  stats.OnLinkFrameSent(50, 0);              // zero blocked time elided
  stats.OnLinkFrameReceived(80, 1'000'000);  // 1 ms blocked in read
  stats.OnCrcReject();
  const StageStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.records_pushed, 2);  // frames ride the records counters
  EXPECT_EQ(s.records_popped, 1);
  EXPECT_EQ(s.bytes_pushed, 150);
  EXPECT_EQ(s.bytes_popped, 80);
  EXPECT_EQ(s.crc_rejects, 1);
  EXPECT_DOUBLE_EQ(s.push_blocked_ms, 2.0);
  EXPECT_DOUBLE_EQ(s.pop_blocked_ms, 1.0);
  // Links have no user-space queue: the depth gauge stays untouched.
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_EQ(s.max_queue_depth, 0);
}

TEST(StageStats, OverwriteFromRoundTripsEveryField) {
  // Build a source row with every counter family exercised...
  StageStats source("w0:cluster->enumerate");
  source.OnPushN(/*records=*/3, /*watermarks=*/1);
  source.OnPopN(/*records=*/2, /*watermarks=*/1, /*blocked_ns=*/6'000'000);
  source.OnWatermarkValue(41);
  source.OnPushBlocked(4'000'000);
  source.OnBarriersPushed(1);
  source.OnBarriersPopped(1);
  source.OnAlignBlocked(8'000'000);
  source.OnSnapshot(512, 7);
  source.OnBatchPushed(5);
  source.OnLinkFrameSent(100, 0);
  source.OnLinkFrameReceived(60, 0);
  source.OnCrcReject();
  const StageStatsSnapshot from = source.Snapshot();

  // ...stamp it into a fresh registry row (the coordinator's merge
  // path), and the re-snapshot must match field for field.
  StageStats target("w0:cluster->enumerate");
  target.OverwriteFrom(from);
  const StageStatsSnapshot got = target.Snapshot();
  EXPECT_EQ(got.records_pushed, from.records_pushed);
  EXPECT_EQ(got.records_popped, from.records_popped);
  EXPECT_EQ(got.watermarks_pushed, from.watermarks_pushed);
  EXPECT_EQ(got.watermarks_popped, from.watermarks_popped);
  EXPECT_EQ(got.queue_depth, from.queue_depth);
  EXPECT_EQ(got.max_queue_depth, from.max_queue_depth);
  EXPECT_DOUBLE_EQ(got.push_blocked_ms, from.push_blocked_ms);
  EXPECT_DOUBLE_EQ(got.pop_blocked_ms, from.pop_blocked_ms);
  EXPECT_EQ(got.barriers_pushed, from.barriers_pushed);
  EXPECT_EQ(got.barriers_popped, from.barriers_popped);
  EXPECT_DOUBLE_EQ(got.align_blocked_ms, from.align_blocked_ms);
  EXPECT_EQ(got.snapshot_bytes, from.snapshot_bytes);
  EXPECT_EQ(got.last_checkpoint_id, from.last_checkpoint_id);
  EXPECT_EQ(got.batches_pushed, from.batches_pushed);
  EXPECT_EQ(got.batch_size_histogram, from.batch_size_histogram);
  EXPECT_EQ(got.last_watermark, from.last_watermark);
  EXPECT_EQ(got.bytes_pushed, from.bytes_pushed);
  EXPECT_EQ(got.bytes_popped, from.bytes_popped);
  EXPECT_EQ(got.crc_rejects, from.crc_rejects);

  // A later (cumulative) snapshot replaces, never accumulates.
  target.OverwriteFrom(from);
  EXPECT_EQ(target.Snapshot().records_pushed, from.records_pushed);
}

TEST(StageStats, OverwriteFromPreservesUnsetWatermark) {
  StageStats source("a->b");
  StageStats target("a->b");
  target.OverwriteFrom(source.Snapshot());
  EXPECT_EQ(target.Snapshot().last_watermark, kNoTime);
}

TEST(StageStats, UninstrumentedChannelTakesNoStats) {
  // A channel without stats must behave identically (smoke-check the
  // disabled hot path the engine runs by default).
  Channel<int> ch(2);
  ch.RegisterProducer();
  ch.Push(1);
  EXPECT_EQ(ch.Pop(), 1);
  ch.CloseProducer();
  EXPECT_EQ(ch.Pop(), std::nullopt);
}

}  // namespace
}  // namespace comove::flow
