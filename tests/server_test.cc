// Serving subsystem units and end-to-end coverage: protocol parsing,
// the bounded MPMC queue, the sharded LRU result cache, the latency
// histogram, and a real DistanceServer answering every verb over
// loopback TCP (including RELOAD hot-swap semantics and cache
// coherence across swaps).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/glp.h"
#include "graph/csr_graph.h"
#include "graph/graph_io.h"
#include "hopdb.h"
#include "labeling/mapped_index.h"
#include "query/knn.h"
#include "query/path.h"
#include "search/dijkstra.h"
#include "server/client.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/request_queue.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "server/trace.h"
#include "io/temp_dir.h"
#include "util/log.h"
#include "util/serde.h"
#include "util/string_util.h"

namespace hopdb {
namespace {

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ProtocolTest, ParsesDist) {
  auto r = ParseRequest("DIST 3 17");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->kind, RequestKind::kDist);
  EXPECT_EQ(r->src, 3u);
  ASSERT_EQ(r->targets.size(), 1u);
  EXPECT_EQ(r->targets[0], 17u);
}

TEST(ProtocolTest, ParsesBatchAndKnnAndControl) {
  auto batch = ParseRequest("BATCH 5 1 2 3");
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->kind, RequestKind::kBatch);
  EXPECT_EQ(batch->src, 5u);
  EXPECT_EQ(batch->targets, (std::vector<VertexId>{1, 2, 3}));

  auto knn = ParseRequest("KNN 9 4");
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->kind, RequestKind::kKnn);
  EXPECT_EQ(knn->src, 9u);
  EXPECT_EQ(knn->k, 4u);

  EXPECT_EQ(ParseRequest("STATS")->kind, RequestKind::kStats);
  EXPECT_EQ(ParseRequest("PING")->kind, RequestKind::kPing);

  auto reload = ParseRequest("RELOAD /tmp/x.hli");
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->kind, RequestKind::kReload);
  EXPECT_EQ(reload->path, "/tmp/x.hli");
  EXPECT_TRUE(ParseRequest("RELOAD")->path.empty());
}

TEST(ProtocolTest, ParsesWithinReachPath) {
  auto within = ParseRequest("WITHIN 5 3");
  ASSERT_TRUE(within.ok());
  EXPECT_EQ(within->kind, RequestKind::kWithin);
  EXPECT_EQ(within->src, 5u);
  EXPECT_EQ(within->k, 3u);  // radius rides the k field

  auto reach = ParseRequest("REACH 5 9 4");
  ASSERT_TRUE(reach.ok());
  EXPECT_EQ(reach->kind, RequestKind::kReach);
  EXPECT_EQ(reach->src, 5u);
  ASSERT_EQ(reach->targets.size(), 1u);
  EXPECT_EQ(reach->targets[0], 9u);
  EXPECT_EQ(reach->k, 4u);  // bound rides the k field

  auto path = ParseRequest("PATH 5 9");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->kind, RequestKind::kPath);
  EXPECT_EQ(path->src, 5u);
  ASSERT_EQ(path->targets.size(), 1u);
  EXPECT_EQ(path->targets[0], 9u);

  // Routed forms.
  auto routed = ParseRequest("USE road WITHIN 1 2");
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->index_name, "road");
  EXPECT_EQ(ParseRequest("USE road REACH 1 2 3")->index_name, "road");
  EXPECT_EQ(ParseRequest("USE road PATH 1 2")->index_name, "road");

  // Arity and token errors are client-safe InvalidArgument lines.
  EXPECT_FALSE(ParseRequest("WITHIN 5").ok());
  EXPECT_FALSE(ParseRequest("WITHIN 5 3 4").ok());
  EXPECT_FALSE(ParseRequest("WITHIN a 3").ok());
  EXPECT_FALSE(ParseRequest("REACH 5 9").ok());
  EXPECT_FALSE(ParseRequest("REACH 5 9 4 1").ok());
  EXPECT_FALSE(ParseRequest("REACH 5 x 4").ok());
  EXPECT_FALSE(ParseRequest("PATH 5").ok());
  EXPECT_FALSE(ParseRequest("PATH 5 9 2").ok());
}

TEST(ProtocolTest, ParsesAttachDetachUse) {
  auto attach = ParseRequest("ATTACH road /data/road.hli2");
  ASSERT_TRUE(attach.ok()) << attach.status();
  EXPECT_EQ(attach->kind, RequestKind::kAttach);
  EXPECT_EQ(attach->index_name, "road");
  EXPECT_EQ(attach->path, "/data/road.hli2");

  auto detach = ParseRequest("DETACH road");
  ASSERT_TRUE(detach.ok());
  EXPECT_EQ(detach->kind, RequestKind::kDetach);
  EXPECT_EQ(detach->index_name, "road");

  auto used_dist = ParseRequest("USE road DIST 3 17");
  ASSERT_TRUE(used_dist.ok()) << used_dist.status();
  EXPECT_EQ(used_dist->kind, RequestKind::kDist);
  EXPECT_EQ(used_dist->index_name, "road");
  EXPECT_EQ(used_dist->src, 3u);
  EXPECT_EQ(used_dist->targets[0], 17u);

  auto used_batch = ParseRequest("USE g2 BATCH 5 1 2");
  ASSERT_TRUE(used_batch.ok());
  EXPECT_EQ(used_batch->kind, RequestKind::kBatch);
  EXPECT_EQ(used_batch->index_name, "g2");

  auto used_knn = ParseRequest("USE g2 KNN 9 4");
  ASSERT_TRUE(used_knn.ok());
  EXPECT_EQ(used_knn->kind, RequestKind::kKnn);
  EXPECT_EQ(used_knn->index_name, "g2");

  auto used_reload = ParseRequest("USE g2 RELOAD /x.hli2");
  ASSERT_TRUE(used_reload.ok());
  EXPECT_EQ(used_reload->kind, RequestKind::kReload);
  EXPECT_EQ(used_reload->index_name, "g2");
  EXPECT_EQ(used_reload->path, "/x.hli2");

  // An unprefixed request targets the default index.
  EXPECT_TRUE(ParseRequest("DIST 1 2")->index_name.empty());
}

TEST(ProtocolTest, ParsesEdgeUpdateVerbs) {
  auto add = ParseRequest("ADDEDGE 3 17");
  ASSERT_TRUE(add.ok()) << add.status();
  EXPECT_EQ(add->kind, RequestKind::kAddEdge);
  EXPECT_EQ(add->src, 3u);
  ASSERT_EQ(add->targets.size(), 1u);
  EXPECT_EQ(add->targets[0], 17u);
  EXPECT_EQ(add->k, 1u);  // default weight

  auto weighted = ParseRequest("ADDEDGE 3 17 5");
  ASSERT_TRUE(weighted.ok());
  EXPECT_EQ(weighted->k, 5u);

  auto del = ParseRequest("DELEDGE 3 17");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->kind, RequestKind::kDelEdge);
  EXPECT_EQ(del->src, 3u);
  EXPECT_EQ(del->targets[0], 17u);

  auto commit = ParseRequest("COMMIT");
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->kind, RequestKind::kCommit);

  // All three route through USE.
  auto routed = ParseRequest("USE road ADDEDGE 1 2 9");
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_EQ(routed->kind, RequestKind::kAddEdge);
  EXPECT_EQ(routed->index_name, "road");
  EXPECT_EQ(routed->k, 9u);
  EXPECT_EQ(ParseRequest("USE road DELEDGE 1 2")->index_name, "road");
  EXPECT_EQ(ParseRequest("USE road COMMIT")->index_name, "road");
}

TEST(ProtocolTest, RejectsMalformedEdgeUpdateVerbs) {
  EXPECT_FALSE(ParseRequest("ADDEDGE 1").ok());
  EXPECT_FALSE(ParseRequest("ADDEDGE 1 2 3 4").ok());
  EXPECT_FALSE(ParseRequest("ADDEDGE 1 2 0").ok());  // zero weight
  EXPECT_FALSE(ParseRequest("ADDEDGE 1 2 x").ok());
  EXPECT_FALSE(ParseRequest("ADDEDGE a 2").ok());
  EXPECT_FALSE(ParseRequest("DELEDGE 1").ok());
  EXPECT_FALSE(ParseRequest("DELEDGE 1 2 3").ok());
  EXPECT_FALSE(ParseRequest("COMMIT now").ok());
}

TEST(ProtocolTest, RejectsMalformedUseAttachDetach) {
  EXPECT_FALSE(ParseRequest("ATTACH road").ok());
  EXPECT_FALSE(ParseRequest("ATTACH road p q").ok());
  EXPECT_FALSE(ParseRequest("DETACH").ok());
  EXPECT_FALSE(ParseRequest("DETACH a b").ok());
  EXPECT_FALSE(ParseRequest("USE road").ok());
  EXPECT_FALSE(ParseRequest("USE road STATS").ok());
  EXPECT_FALSE(ParseRequest("USE road PING").ok());
  EXPECT_FALSE(ParseRequest("USE road ATTACH x y").ok());
  EXPECT_FALSE(ParseRequest("USE a USE b DIST 1 2").ok());  // no nesting
}

TEST(ProtocolTest, ToleratesExtraWhitespace) {
  auto r = ParseRequest("  DIST \t 1    2 ");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->src, 1u);
  EXPECT_EQ(r->targets[0], 2u);
}

TEST(ProtocolTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("FROB 1 2").ok());
  EXPECT_FALSE(ParseRequest("DIST 1").ok());
  EXPECT_FALSE(ParseRequest("DIST 1 2 3").ok());
  EXPECT_FALSE(ParseRequest("DIST x 2").ok());
  EXPECT_FALSE(ParseRequest("DIST -1 2").ok());
  EXPECT_FALSE(ParseRequest("BATCH 1").ok());
  EXPECT_FALSE(ParseRequest("KNN 1 0").ok());
  EXPECT_FALSE(ParseRequest("KNN 1 k").ok());
  // 2^32 must not truncate to k=0 (and 2^32+3 not to k=3).
  EXPECT_FALSE(ParseRequest("KNN 1 4294967296").ok());
  EXPECT_FALSE(ParseRequest("KNN 1 4294967299").ok());
  EXPECT_FALSE(ParseRequest("STATS now").ok());
}

TEST(ProtocolTest, FormatsResponses) {
  EXPECT_EQ(FormatDistance(7), "7");
  EXPECT_EQ(FormatDistance(kInfDistance), "INF");
  EXPECT_EQ(OkResponse(""), "OK");
  EXPECT_EQ(OkResponse("pong"), "OK pong");
  EXPECT_EQ(ErrResponse("multi\nline"), "ERR multi line");
  EXPECT_EQ(FormatBatchResponse({1, kInfDistance, 3}), "OK 1 INF 3");
  EXPECT_EQ(FormatKnnResponse({{4, 1}, {9, 2}}), "OK 4:1 9:2");
}

TEST(ProtocolTest, DistanceTokenRoundTrip) {
  EXPECT_EQ(*ParseDistanceToken("INF"), kInfDistance);
  EXPECT_EQ(*ParseDistanceToken("42"), 42u);
  EXPECT_FALSE(ParseDistanceToken("4x2").ok());
}

TEST(ProtocolTest, FormatRequestV1RoundTrips) {
  for (const char* line :
       {"DIST 3 17", "BATCH 5 1 2 3", "KNN 9 4", "STATS", "PING", "RELOAD",
        "RELOAD /tmp/x.hli", "ATTACH road /data/road.hli2", "DETACH road",
        "USE road DIST 3 17", "USE g2 BATCH 5 1 2", "USE g2 KNN 9 4",
        "USE g2 RELOAD /x.hli2", "ADDEDGE 3 17", "ADDEDGE 3 17 5",
        "DELEDGE 3 17", "COMMIT", "USE road ADDEDGE 1 2 9",
        "USE road DELEDGE 1 2", "USE road COMMIT"}) {
    auto parsed = ParseRequest(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(FormatRequestV1(*parsed), line);
  }
}

TEST(ProtocolTest, BusyResponseIsDistinctRetryableError) {
  EXPECT_EQ(BusyResponse("work queue full"), "ERR BUSY work queue full");
  // v1 rendering of the wire-level BUSY status carries the same marker.
  EXPECT_TRUE(StartsWith(EncodeResponseV1(WireBusy()), "ERR BUSY "));
}

// ---------------------------------------------------------------------------
// WireResponse + binary protocol v2
// ---------------------------------------------------------------------------

TEST(WireResponseTest, V1EncodingMatchesLegacyFormatters) {
  EXPECT_EQ(EncodeResponseV1(WireOk("pong")), OkResponse("pong"));
  EXPECT_EQ(EncodeResponseV1(WireOk("")), OkResponse(""));
  EXPECT_EQ(EncodeResponseV1(WireErr("bad vertex")), ErrResponse("bad vertex"));
  EXPECT_EQ(EncodeResponseV1(WireDistanceResponse(7)),
            OkResponse(FormatDistance(7)));
  EXPECT_EQ(EncodeResponseV1(WireDistanceResponse(kInfDistance)),
            OkResponse("INF"));
  EXPECT_EQ(EncodeResponseV1(WireDistancesResponse({1, kInfDistance, 3})),
            FormatBatchResponse({1, kInfDistance, 3}));
  EXPECT_EQ(EncodeResponseV1(WireNeighborsResponse({{4, 1}, {9, 2}})),
            FormatKnnResponse({{4, 1}, {9, 2}}));
}

/// Round-trips one request through the v2 encoder and parser.
Request V2RequestRoundTrip(const Request& request) {
  std::string frame;
  EncodeRequestV2(request, &frame);
  size_t consumed = 0;
  Request out;
  std::string error;
  const FrameParse verdict = ParseRequestFrameV2(frame.data(), frame.size(),
                                                 &consumed, &out, &error);
  EXPECT_EQ(verdict, FrameParse::kDone) << error;
  EXPECT_EQ(consumed, frame.size());
  return out;
}

TEST(ProtocolV2Test, RequestFramesRoundTrip) {
  for (const char* line :
       {"DIST 3 17", "BATCH 5 1 2 3", "KNN 9 4", "STATS", "PING", "RELOAD",
        "RELOAD /tmp/x.hli", "ATTACH road /data/road.hli2", "DETACH road",
        "USE road DIST 3 17", "USE g2 BATCH 5 1 2", "USE g2 KNN 9 4",
        "USE g2 RELOAD /x.hli2", "ADDEDGE 3 17", "ADDEDGE 3 17 5",
        "DELEDGE 3 17", "COMMIT", "USE road ADDEDGE 1 2 9",
        "USE road DELEDGE 1 2", "USE road COMMIT"}) {
    const Request request = ParseRequest(line).ValueOrDie();
    const Request round = V2RequestRoundTrip(request);
    // The v1 rendering is a canonical form covering every field.
    EXPECT_EQ(FormatRequestV1(round), line);
  }
}

TEST(ProtocolV2Test, ResponseFramesRoundTrip) {
  const std::vector<WireResponse> cases = {
      WireOk("pong"),
      WireOk(""),
      WireErr("vertex id out of range (|V|=10)"),
      WireBusy(),
      WireDistanceResponse(7),
      WireDistanceResponse(kInfDistance),
      WireDistancesResponse({1, kInfDistance, 3}),
      WireDistancesResponse({}),
      WireNeighborsResponse({{4, 1}, {9, 2}}),
      WireNeighborsResponse({}),
  };
  for (const WireResponse& response : cases) {
    std::string frame;
    EncodeResponseV2(response, &frame);
    size_t consumed = 0;
    WireResponse out;
    std::string error;
    ASSERT_EQ(ParseResponseFrameV2(frame.data(), frame.size(), &consumed,
                                   &out, &error),
              FrameParse::kDone)
        << error;
    EXPECT_EQ(consumed, frame.size());
    // The shared v1 rendering is a full content comparison.
    EXPECT_EQ(EncodeResponseV1(out), EncodeResponseV1(response));
    EXPECT_EQ(out.status, response.status);
    EXPECT_EQ(out.payload, response.payload);
  }
}

TEST(ProtocolV2Test, TruncatedFramesWantMoreBytes) {
  Request request = ParseRequest("BATCH 5 1 2 3").ValueOrDie();
  std::string frame;
  EncodeRequestV2(request, &frame);
  // Every proper prefix must come back kNeedMore, never kError: a slow
  // (or hostile slow-loris) writer is indistinguishable from a fast one
  // mid-frame.
  for (size_t len = 0; len < frame.size(); ++len) {
    size_t consumed = 0;
    Request out;
    std::string error;
    EXPECT_EQ(ParseRequestFrameV2(frame.data(), len, &consumed, &out, &error),
              FrameParse::kNeedMore)
        << "len=" << len;
  }
}

TEST(ProtocolV2Test, MalformedFramesAreRejected) {
  auto parse = [](std::string frame) {
    size_t consumed = 0;
    Request out;
    std::string error;
    return ParseRequestFrameV2(frame.data(), frame.size(), &consumed, &out,
                               &error);
  };
  // Unknown opcode.
  std::string frame(kV2RequestHeaderBytes, '\0');
  frame[0] = '\x7f';
  EXPECT_EQ(parse(frame), FrameParse::kError);
  // Nonzero reserved byte.
  std::string ping;
  EncodeRequestV2(ParseRequest("PING").ValueOrDie(), &ping);
  std::string bad_reserved = ping;
  bad_reserved[1] = '\x01';
  EXPECT_EQ(parse(bad_reserved), FrameParse::kError);
  // DIST with trailing payload bytes it must not have.
  std::string dist;
  EncodeRequestV2(ParseRequest("DIST 1 2").ValueOrDie(), &dist);
  std::string bad_aux = dist;
  bad_aux[4] = '\x04';  // aux_len = 4
  bad_aux += "????";
  EXPECT_EQ(parse(bad_aux), FrameParse::kError);
  // BATCH whose count disagrees with its payload length.
  std::string batch;
  EncodeRequestV2(ParseRequest("BATCH 1 2 3").ValueOrDie(), &batch);
  std::string bad_count = batch;
  bad_count[12] = '\x07';  // arg (target count) = 7, aux still 2 targets
  EXPECT_EQ(parse(bad_count), FrameParse::kError);
  // ADDEDGE aux must be exactly the 4-byte weight.
  std::string add;
  EncodeRequestV2(ParseRequest("ADDEDGE 1 2 5").ValueOrDie(), &add);
  std::string bad_add_aux = add;
  bad_add_aux[4] = '\x00';  // aux_len = 0: weight missing
  bad_add_aux.resize(kV2RequestHeaderBytes);
  EXPECT_EQ(parse(bad_add_aux), FrameParse::kError);
  // ...and a zero weight is rejected at the frame layer, like v1.
  std::string bad_weight = add;
  bad_weight[kV2RequestHeaderBytes + 0] = '\x00';
  bad_weight[kV2RequestHeaderBytes + 1] = '\x00';
  bad_weight[kV2RequestHeaderBytes + 2] = '\x00';
  bad_weight[kV2RequestHeaderBytes + 3] = '\x00';
  EXPECT_EQ(parse(bad_weight), FrameParse::kError);
  // DELEDGE carries no aux payload.
  std::string del;
  EncodeRequestV2(ParseRequest("DELEDGE 1 2").ValueOrDie(), &del);
  std::string bad_del = del;
  bad_del[4] = '\x04';
  bad_del += "????";
  EXPECT_EQ(parse(bad_del), FrameParse::kError);
  // COMMIT is bare: src/arg must be zero.
  std::string commit;
  EncodeRequestV2(ParseRequest("COMMIT").ValueOrDie(), &commit);
  std::string bad_commit = commit;
  bad_commit[8] = '\x01';  // src = 1
  EXPECT_EQ(parse(bad_commit), FrameParse::kError);
  // A frame claiming more payload than the 1 MiB cap is rejected from
  // the header alone (nothing that large is ever buffered).
  std::string huge(kV2RequestHeaderBytes, '\0');
  huge[0] = '\x06';  // RELOAD
  huge[4] = '\xff';
  huge[5] = '\xff';
  huge[6] = '\xff';
  huge[7] = '\x7f';  // aux_len = 0x7fffffff
  EXPECT_EQ(parse(huge), FrameParse::kError);
}

// ---------------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------------

using IntQueue = BoundedQueue<int>;

/// Takes one item, as a worker whose drain is one request long would;
/// false once the queue is closed and drained.
bool PopOne(IntQueue* q, int* out) {
  std::vector<int> one;
  if (q->PopBatch(&one, 1) == 0) return false;
  *out = one[0];
  return true;
}

TEST(BoundedQueueTest, FifoAndBatchPop) {
  IntQueue q(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(q.TryPush(&i), IntQueue::PushResult::kOk);
  }
  EXPECT_EQ(q.size(), 5u);
  int v = -1;
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 0);
  std::vector<int> batch;
  EXPECT_EQ(q.PopBatch(&batch, 10), 4u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2, 3, 4}));
}

TEST(BoundedQueueTest, CloseDrainsThenRefuses) {
  IntQueue q(4);
  int v = 1;
  EXPECT_EQ(q.TryPush(&v), IntQueue::PushResult::kOk);
  q.Close();
  v = 2;
  EXPECT_EQ(q.TryPush(&v), IntQueue::PushResult::kClosed);
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(PopOne(&q, &v));
  std::vector<int> batch;
  EXPECT_EQ(q.PopBatch(&batch, 4), 0u);
}

TEST(BoundedQueueTest, TryPushNeverBlocksAndReportsWhy) {
  IntQueue q(2);
  int a = 1, b = 2, c = 3;
  EXPECT_EQ(q.TryPush(&a), IntQueue::PushResult::kOk);
  EXPECT_EQ(q.TryPush(&b), IntQueue::PushResult::kOk);
  // Full is reported immediately — no blocking — and the item stays
  // with the caller so it can be answered BUSY inline.
  EXPECT_EQ(q.TryPush(&c), IntQueue::PushResult::kFull);
  EXPECT_EQ(c, 3);
  int v = 0;
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(q.TryPush(&c), IntQueue::PushResult::kOk);
  q.Close();
  int d = 4;
  EXPECT_EQ(q.TryPush(&d), IntQueue::PushResult::kClosed);
  EXPECT_EQ(d, 4);
  // Close still drains what TryPush queued.
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 3);
  EXPECT_FALSE(PopOne(&q, &v));
}

TEST(BoundedQueueTest, ManyProducersManyConsumers) {
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 500;
  IntQueue q(16);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kItemsEach; ++i) {
        int item = p * kItemsEach + i;
        while (q.TryPush(&item) == IntQueue::PushResult::kFull) {
          std::this_thread::yield();  // a full queue refuses; retry
        }
      }
    });
  }
  std::atomic<int> consumed{0};
  std::atomic<long long> sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> batch;
      while (true) {
        batch.clear();
        const size_t n = q.PopBatch(&batch, 7);
        if (n == 0) break;
        long long local = 0;
        for (int v : batch) local += v;
        sum.fetch_add(local);
        consumed.fetch_add(static_cast<int>(n));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  const int total = kProducers * kItemsEach;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), 1ll * total * (total - 1) / 2);
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

TEST(ResultCacheTest, HitMissInsertClear) {
  ResultCache cache(64);
  Distance d = 0;
  EXPECT_FALSE(cache.Lookup(1, 2, &d));
  cache.Insert(1, 2, 7);
  ASSERT_TRUE(cache.Lookup(1, 2, &d));
  EXPECT_EQ(d, 7u);
  // (2, 1) is a distinct key (directed pairs).
  EXPECT_FALSE(cache.Lookup(2, 1, &d));
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(1, 2, &d));
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_NEAR(stats.HitRate(), 0.25, 1e-9);
}

TEST(ResultCacheTest, NeverExceedsRequestedCapacity) {
  // 20 entries over (up-to) 16 shards: floor division must keep the
  // resident total at or below 20 no matter how keys hash.
  ResultCache cache(20);
  for (VertexId i = 0; i < 500; ++i) cache.Insert(i, i + 1, 1);
  EXPECT_LE(cache.GetStats().entries, 20u);
  EXPECT_GT(cache.GetStats().entries, 0u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  // Single shard so the LRU order is globally observable.
  ResultCache cache(2, /*num_shards=*/1);
  cache.Insert(0, 1, 10);
  cache.Insert(0, 2, 20);
  Distance d = 0;
  ASSERT_TRUE(cache.Lookup(0, 1, &d));  // refresh (0,1)
  cache.Insert(0, 3, 30);               // evicts (0,2)
  EXPECT_TRUE(cache.Lookup(0, 1, &d));
  EXPECT_FALSE(cache.Lookup(0, 2, &d));
  EXPECT_TRUE(cache.Lookup(0, 3, &d));
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.GetStats().entries, 2u);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert(1, 2, 3);
  Distance d = 0;
  EXPECT_FALSE(cache.Lookup(1, 2, &d));
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ResultCacheTest, ConcurrentMixedAccess) {
  ResultCache cache(1024);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&cache, w] {
      for (int i = 0; i < 2000; ++i) {
        const VertexId s = static_cast<VertexId>((w * 31 + i) % 64);
        const VertexId t = static_cast<VertexId>(i % 97);
        Distance d = 0;
        if (cache.Lookup(s, t, &d)) {
          ASSERT_EQ(d, s + t);  // values must never tear or mix keys
        } else {
          cache.Insert(s, t, s + t);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // A deterministic hit after the storm: whether the concurrent phase
  // itself produced overlapping lookups depends on thread scheduling
  // (on a fast box the threads can run back-to-back and miss each
  // other entirely), so don't assert on it — assert that the cache
  // still hits and counts correctly after the hammering.
  cache.Insert(1, 1, 2);
  Distance d = 0;
  ASSERT_TRUE(cache.Lookup(1, 1, &d));
  EXPECT_EQ(d, 2u);
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.entries, 1024u);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, PercentilesFromHistogram) {
  ServerMetrics metrics;
  LatencyHistogram hist;
  EXPECT_EQ(hist.PercentileUs(99), 0u);
  // 99 requests at ~1us, one at ~1000us.
  for (int i = 0; i < 100; ++i) metrics.CountRequest();
  for (int i = 0; i < 99; ++i) hist.Record(1);
  hist.Record(1000);
  EXPECT_EQ(metrics.requests(), 100u);
  EXPECT_LE(hist.PercentileUs(50), 2u);
  // p100 lands in the bucket containing 1000us: [512, 1024).
  EXPECT_EQ(hist.PercentileUs(100), 1024u);
  EXPECT_GE(hist.PercentileUs(100), hist.PercentileUs(50));
}

TEST(MetricsTest, PercentileEdgeCases) {
  LatencyHistogram hist;
  // Empty: every percentile (clamped or not) answers 0.
  EXPECT_EQ(hist.PercentileUs(0), 0u);
  EXPECT_EQ(hist.PercentileUs(50), 0u);
  EXPECT_EQ(hist.PercentileUs(100), 0u);

  hist.Record(3);  // bucket [2, 4)
  // p=0 and out-of-range p clamp, and the rank floors at 1, so a
  // single-sample histogram answers that sample's bucket everywhere.
  EXPECT_EQ(hist.PercentileUs(0), 4u);
  EXPECT_EQ(hist.PercentileUs(-10), 4u);
  EXPECT_EQ(hist.PercentileUs(100), 4u);
  EXPECT_EQ(hist.PercentileUs(640), 4u);
}

TEST(MetricsTest, TopBucketSaturates) {
  LatencyHistogram hist;
  // Values beyond the last bucket boundary land in the top bucket
  // instead of being dropped or indexing out of range.
  hist.Record(UINT64_MAX);
  hist.Record(LatencyHistogram::BucketUpperBoundUs(
      LatencyHistogram::kBuckets - 1));
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(
      hist.PercentileUs(100),
      LatencyHistogram::BucketUpperBoundUs(LatencyHistogram::kBuckets - 1));
  const auto buckets = hist.BucketSnapshot();
  EXPECT_EQ(buckets[LatencyHistogram::kBuckets - 1], 2u);
}

RequestTrace MakeTrace(RequestKind kind, WireStatus status) {
  RequestTrace trace;
  trace.kind = kind;
  trace.status = status;
  trace.accepted_ns = 1000;
  trace.parsed_ns = 2000;
  trace.enqueued_ns = 3000;
  trace.dequeued_ns = 53000;     // 50us queue wait
  trace.executed_ns = 153000;    // 100us execute
  trace.encoded_ns = 154000;
  trace.written_ns = 163000;     // 10us write, 162us total
  return trace;
}

TEST(MetricsTest, RecordTraceRoutesOkAndDegraded) {
  ServerMetrics metrics;
  metrics.RecordTrace(MakeTrace(RequestKind::kDist, WireStatus::kOk));
  EXPECT_EQ(metrics.latency_histogram().count(), 1u);
  EXPECT_EQ(metrics.degraded_histogram().count(), 0u);
  EXPECT_EQ(metrics.queue_wait_histogram().count(), 1u);
  EXPECT_EQ(metrics.execute_histogram().count(), 1u);
  EXPECT_EQ(metrics.write_histogram().count(), 1u);
  EXPECT_EQ(metrics.verb_histogram(RequestKind::kDist).count(), 1u);

  // An ERR answer goes to the degraded histogram but still carries its
  // verb and stage durations (it traversed the whole pipeline).
  metrics.RecordTrace(MakeTrace(RequestKind::kKnn, WireStatus::kErr));
  EXPECT_EQ(metrics.latency_histogram().count(), 1u);
  EXPECT_EQ(metrics.degraded_histogram().count(), 1u);
  EXPECT_EQ(metrics.verb_histogram(RequestKind::kKnn).count(), 1u);
  EXPECT_EQ(metrics.queue_wait_histogram().count(), 2u);

  // Shed requests never traverse the queue: degraded + verb only.
  RequestTrace shed = MakeTrace(RequestKind::kDist, WireStatus::kBusy);
  shed.shed = true;
  metrics.RecordTrace(shed);
  EXPECT_EQ(metrics.degraded_histogram().count(), 2u);
  EXPECT_EQ(metrics.queue_wait_histogram().count(), 2u);
  EXPECT_EQ(metrics.execute_histogram().count(), 2u);
  EXPECT_EQ(metrics.verb_histogram(RequestKind::kDist).count(), 2u);

  // Parse errors have no meaningful verb: degraded + write only.
  RequestTrace bad = MakeTrace(RequestKind::kPing, WireStatus::kErr);
  bad.parse_error = true;
  metrics.RecordTrace(bad);
  EXPECT_EQ(metrics.degraded_histogram().count(), 3u);
  EXPECT_EQ(metrics.verb_histogram(RequestKind::kPing).count(), 0u);
  EXPECT_EQ(metrics.write_histogram().count(), 4u);

  // Sampling is orthogonal to recording.
  EXPECT_EQ(metrics.traces_sampled(), 0u);
  RequestTrace sampled = MakeTrace(RequestKind::kDist, WireStatus::kOk);
  sampled.trace_id = 7;
  metrics.RecordTrace(sampled);
  EXPECT_EQ(metrics.traces_sampled(), 1u);
}

TEST(TraceRingTest, WrapsAndReturnsNewestFirst) {
  TraceRing ring(4);
  EXPECT_TRUE(ring.Last(8).empty());
  for (uint64_t id = 1; id <= 6; ++id) {
    RequestTrace trace;
    trace.trace_id = id;
    ring.Push(trace);
  }
  const std::vector<RequestTrace> last = ring.Last(8);
  ASSERT_EQ(last.size(), 4u);  // capacity bounds the answer
  EXPECT_EQ(last[0].trace_id, 6u);
  EXPECT_EQ(last[1].trace_id, 5u);
  EXPECT_EQ(last[2].trace_id, 4u);
  EXPECT_EQ(last[3].trace_id, 3u);
  const std::vector<RequestTrace> two = ring.Last(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].trace_id, 6u);
}

// ---------------------------------------------------------------------------
// End-to-end server
// ---------------------------------------------------------------------------

EdgeList TestGraph(VertexId n, uint64_t seed) {
  GlpOptions options;
  options.num_vertices = n;
  options.target_avg_degree = 5.0;
  options.seed = seed;
  return GenerateGlp(options).ValueOrDie();
}

TEST(IndexRegistryTest, ReadersKeepReplacedSnapshotsAndUnheldOnesGoAtOnce) {
  IndexRegistry registry;
  int destroyed = 0;
  // Each snapshot's deleter looks the registry up, which would deadlock
  // if Publish or Detach dropped the replaced snapshot under its mutex.
  const auto make = [&] {
    HopDbIndex index =
        HopDbIndex::Build(CsrGraph::FromEdgeList(TestGraph(50, 3)).ValueOrDie())
            .ValueOrDie();
    return std::shared_ptr<const ServingSnapshot>(
        new ServingSnapshot(std::move(index), "", /*cache_capacity=*/16),
        [&](const ServingSnapshot* snapshot) {
          EXPECT_EQ(registry.Find("absent"), nullptr);
          ++destroyed;
          delete snapshot;
        });
  };
  EXPECT_TRUE(registry.Attach("a", make()).ok());

  // A reader's copy outlives the Publish that replaces it.
  std::shared_ptr<const ServingSnapshot> reader = registry.Find("a");
  EXPECT_TRUE(registry.Publish("a", make()).ok());
  EXPECT_NE(registry.Find("a"), reader);
  EXPECT_EQ(destroyed, 0);
  EXPECT_EQ(reader->num_vertices(), 50u);
  reader.reset();
  EXPECT_EQ(destroyed, 1);
  // A replaced snapshot that nobody holds is gone when Publish returns.
  std::weak_ptr<const ServingSnapshot> unheld = registry.Find("a");
  EXPECT_TRUE(registry.Publish("a", make()).ok());
  EXPECT_TRUE(unheld.expired());
  EXPECT_EQ(destroyed, 2);

  // The same for Detach.
  reader = registry.Find("a");
  EXPECT_TRUE(registry.Detach("a").ok());
  EXPECT_EQ(registry.Find("a"), nullptr);
  EXPECT_EQ(destroyed, 2);
  EXPECT_EQ(reader->num_vertices(), 50u);
  reader.reset();
  EXPECT_EQ(destroyed, 3);
  EXPECT_TRUE(registry.Attach("b", make()).ok());
  unheld = registry.Find("b");
  EXPECT_TRUE(registry.Detach("b").ok());
  EXPECT_TRUE(unheld.expired());
  EXPECT_EQ(destroyed, 4);
}

class ServerEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_ = TestGraph(300, /*seed=*/17);
    graph_ = CsrGraph::FromEdgeList(edges_).ValueOrDie();
    index_ = HopDbIndex::Build(graph_).ValueOrDie();

    ServerOptions options;
    options.num_workers = 3;
    options.cache_capacity = 512;
    server_ = DistanceServer::Start(
                  HopDbIndex::Build(graph_).ValueOrDie(), options)
                  .ValueOrDie();
    client_ = DistanceClient::Connect("127.0.0.1", server_->port())
                  .ValueOrDie();
  }

  EdgeList edges_;
  CsrGraph graph_;
  HopDbIndex index_;
  std::unique_ptr<DistanceServer> server_;
  DistanceClient client_;
};

TEST_F(ServerEndToEndTest, PingAndStats) {
  EXPECT_EQ(*client_.RoundTrip("PING"), "OK pong");
  const std::string stats = *client_.RoundTrip("STATS");
  EXPECT_TRUE(StartsWith(stats, "OK "));
  EXPECT_NE(stats.find("qps="), std::string::npos);
  EXPECT_NE(stats.find("p99_us="), std::string::npos);
  EXPECT_NE(stats.find("cache_hit_rate="), std::string::npos);
  EXPECT_NE(stats.find("vertices=300"), std::string::npos);
}

TEST_F(ServerEndToEndTest, DistMatchesOracleAndCaches) {
  const std::vector<Distance> truth = ExactDistances(graph_, 5);
  for (VertexId t = 0; t < 40; ++t) {
    ASSERT_EQ(*client_.QueryDistance(5, t), truth[t]) << "t=" << t;
  }
  // Same pairs again: answers identical, served from the cache.
  for (VertexId t = 0; t < 40; ++t) {
    ASSERT_EQ(*client_.QueryDistance(5, t), truth[t]) << "t=" << t;
  }
  EXPECT_GT(server_->cache_stats().hits, 0u);
}

TEST_F(ServerEndToEndTest, BatchMatchesOracle) {
  const std::vector<Distance> truth = ExactDistances(graph_, 9);
  std::string big = "BATCH 9";
  for (VertexId t = 0; t < 25; ++t) big += ' ' + std::to_string(t);
  // Every target goes through the result cache, as a DIST does: the
  // second send is answered from the 25 entries the first one filled.
  uint64_t hits_before = 0;
  for (int send = 0; send < 2; ++send) {
    hits_before = server_->cache_stats().hits;
    const std::string response = *client_.RoundTrip(big);
    ASSERT_TRUE(StartsWith(response, "OK "));
    const std::vector<std::string> tokens =
        SplitString(response.substr(3), ' ');
    ASSERT_EQ(tokens.size(), 25u);
    for (VertexId t = 0; t < 25; ++t) {
      ASSERT_EQ(*ParseDistanceToken(tokens[t]), truth[t]) << "t=" << t;
    }
  }
  EXPECT_EQ(server_->cache_stats().hits, hits_before + 25);
}

TEST_F(ServerEndToEndTest, KnnMatchesEngine) {
  const std::string response = *client_.RoundTrip("KNN 7 6");
  ASSERT_TRUE(StartsWith(response, "OK "));
  const std::vector<std::string> tokens =
      SplitString(response.substr(3), ' ');
  ASSERT_EQ(tokens.size(), 6u);

  KnnEngine engine(index_.label_index().labels(),
                   KnnEngine::Direction::kForward);
  const RankMapping& mapping = index_.ranking();
  const auto expected = engine.Query(mapping.ToInternal(7), 6);
  ASSERT_EQ(expected.size(), 6u);
  Distance prev = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const size_t colon = tokens[i].find(':');
    ASSERT_NE(colon, std::string::npos);
    const Distance d = *ParseDistanceToken(tokens[i].substr(colon + 1));
    // Distance sequence must match the reference engine's (vertex ties
    // may break differently between identical builds).
    EXPECT_EQ(d, expected[i].dist) << "i=" << i;
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST_F(ServerEndToEndTest, WithinMatchesOracleSet) {
  const VertexId s = 11;
  const Distance radius = 3;
  const std::string response =
      *client_.RoundTrip("WITHIN " + std::to_string(s) + " " +
                         std::to_string(radius));
  ASSERT_TRUE(StartsWith(response, "OK")) << response;

  // The wire answer is the exact radius set {v : d(s, v) <= r}, s
  // excluded, as v:d tokens in (distance, vertex) order.
  const std::vector<Distance> truth = ExactDistances(graph_, s);
  std::vector<std::pair<VertexId, Distance>> got;
  if (response.size() > 3) {
    for (const std::string& token : SplitString(response.substr(3), ' ')) {
      const size_t colon = token.find(':');
      ASSERT_NE(colon, std::string::npos) << token;
      uint64_t v = 0;
      ASSERT_TRUE(ParseUint64(token.substr(0, colon), &v));
      got.emplace_back(static_cast<VertexId>(v),
                       *ParseDistanceToken(token.substr(colon + 1)));
    }
  }
  std::vector<std::pair<VertexId, Distance>> want;
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    if (v != s && truth[v] <= radius) want.emplace_back(v, truth[v]);
  }
  auto by_vertex = [](const std::pair<VertexId, Distance>& a,
                      const std::pair<VertexId, Distance>& b) {
    return a.first < b.first;
  };
  std::sort(got.begin(), got.end(), by_vertex);
  std::sort(want.begin(), want.end(), by_vertex);
  EXPECT_EQ(got, want);

  // Radius 0 excludes everything but the (excluded) source itself.
  EXPECT_EQ(*client_.RoundTrip("WITHIN " + std::to_string(s) + " 0"), "OK");
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("WITHIN 999999 3"), "ERR "));
}

TEST_F(ServerEndToEndTest, ReachMatchesOracleVerdict) {
  const VertexId s = 4;
  const std::vector<Distance> truth = ExactDistances(graph_, s);
  for (VertexId t = 0; t < 30; ++t) {
    for (const Distance bound : {Distance{1}, Distance{3}, Distance{6}}) {
      const std::string response = *client_.RoundTrip(
          "REACH " + std::to_string(s) + " " + std::to_string(t) + " " +
          std::to_string(bound));
      const bool want = truth[t] != kInfDistance && truth[t] <= bound;
      ASSERT_EQ(response, want ? "OK 1" : "OK 0")
          << "t=" << t << " bound=" << bound;
    }
  }
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("REACH 0 999999 3"), "ERR "));
}

TEST_F(ServerEndToEndTest, PathWithoutGraphIsPreconditionError) {
  const std::string response = *client_.RoundTrip("PATH 0 5");
  ASSERT_TRUE(StartsWith(response, "ERR ")) << response;
  // The error must tell the operator the fix.
  EXPECT_NE(response.find("--graph"), std::string::npos) << response;
}

// A server whose snapshot carries the build graph (serve --graph at
// startup funnels into the same snapshot constructor) answers PATH with
// real shortest paths on every framing.
TEST_F(ServerEndToEndTest, PathMatchesOracleWhenGraphAttached) {
  ServerOptions options;
  options.num_workers = 2;
  auto with_graph =
      DistanceServer::Start(
          std::make_shared<ServingSnapshot>(
              HopDbIndex::Build(graph_).ValueOrDie(), "", 128, 0,
              std::make_shared<const CsrGraph>(graph_)),
          options)
          .ValueOrDie();
  auto v1 = DistanceClient::Connect("127.0.0.1", with_graph->port())
                .ValueOrDie();
  auto v2 = DistanceClient::Connect("127.0.0.1", with_graph->port(),
                                    DistanceClient::Protocol::kV2)
                .ValueOrDie();

  const VertexId s = 3;
  const std::vector<Distance> truth = ExactDistances(graph_, s);
  for (VertexId t = 0; t < 40; ++t) {
    const std::string line = "PATH " + std::to_string(s) + " " +
                             std::to_string(t);
    const std::string response = *v1.RoundTrip(line);
    if (truth[t] == kInfDistance) {
      // Unreachable is an answer: a bare OK (empty sequence), not ERR.
      ASSERT_EQ(response, "OK") << "t=" << t;
      continue;
    }
    ASSERT_TRUE(StartsWith(response, "OK")) << response;
    std::vector<VertexId> path;
    if (response.size() > 3) {
      for (const std::string& token : SplitString(response.substr(3), ' ')) {
        uint64_t v = 0;
        ASSERT_TRUE(ParseUint64(token, &v)) << token;
        path.push_back(static_cast<VertexId>(v));
      }
    }
    ASSERT_FALSE(path.empty()) << "t=" << t;
    EXPECT_EQ(path.front(), s);
    EXPECT_EQ(path.back(), t);
    // Real and tight: every hop an arc, weight sum == the distance.
    EXPECT_EQ(PathLength(graph_, path), truth[t]) << "t=" << t;

    // v2 carries the same vertex sequence in a kDistances payload.
    const WireResponse frame = *v2.Call(ParseRequest(line).ValueOrDie());
    EXPECT_EQ(EncodeResponseV1(frame), response) << line;
  }
}

// After ADDEDGE + COMMIT, PATH answers on the committed adjacency: the
// republished snapshot freezes its path graph from the update session,
// so the new edge shows up in paths without any file reload.
TEST_F(ServerEndToEndTest, PathFollowsCommittedEdits) {
  auto tmp = TempDir::Create("server_path_commit");
  ASSERT_TRUE(tmp.ok());
  const std::string graph_path = tmp->File("g.hgr");
  ASSERT_TRUE(WriteBinaryGraph(edges_, graph_path).ok());
  ASSERT_TRUE(server_->RegisterUpdateGraph("", graph_path).ok());

  const std::vector<Distance> truth = ExactDistances(graph_, 0);
  VertexId far = kInvalidVertex;
  for (VertexId t = 1; t < graph_.num_vertices(); ++t) {
    if (truth[t] != kInfDistance && truth[t] >= 3) {
      far = t;
      break;
    }
  }
  ASSERT_NE(far, kInvalidVertex) << "test graph too dense";

  ASSERT_EQ(*client_.RoundTrip("ADDEDGE 0 " + std::to_string(far)),
            "OK applied pending=1");
  ASSERT_TRUE(StartsWith(*client_.RoundTrip("COMMIT"), "OK committed "));

  // The shortcut edge IS the shortest path now.
  const std::string response =
      *client_.RoundTrip("PATH 0 " + std::to_string(far));
  ASSERT_TRUE(StartsWith(response, "OK ")) << response;
  EXPECT_EQ(response, "OK 0 " + std::to_string(far));

  // And paths elsewhere remain valid on the mutated graph.
  EdgeList mutated = edges_;
  mutated.Add(0, far);
  mutated.Normalize();
  const CsrGraph mutated_graph = CsrGraph::FromEdgeList(mutated).ValueOrDie();
  const std::vector<Distance> mutated_truth =
      ExactDistances(mutated_graph, 0);
  for (VertexId t = 0; t < 30; ++t) {
    if (mutated_truth[t] == kInfDistance) continue;
    const std::string line = *client_.RoundTrip("PATH 0 " +
                                                std::to_string(t));
    ASSERT_TRUE(StartsWith(line, "OK")) << line;
    std::vector<VertexId> path;
    if (line.size() > 3) {
      for (const std::string& token : SplitString(line.substr(3), ' ')) {
        uint64_t v = 0;
        ASSERT_TRUE(ParseUint64(token, &v)) << token;
        path.push_back(static_cast<VertexId>(v));
      }
    }
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(PathLength(mutated_graph, path), mutated_truth[t])
        << "t=" << t;
  }
}

TEST_F(ServerEndToEndTest, ErrorsComeBackAsErrLines) {
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("DIST 0 999999"), "ERR "));
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("NOSUCH 1 2"), "ERR "));
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("DIST a b"), "ERR "));
  // The connection survives protocol errors.
  EXPECT_EQ(*client_.RoundTrip("PING"), "OK pong");
}

TEST_F(ServerEndToEndTest, PipelinedRequestsAnswerInOrder) {
  // Multiple commands in one write: responses must come back in order.
  auto r1 = client_.RoundTrip("PING\nDIST 0 1\nPING");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, "OK pong");
  auto r2 = client_.RoundTrip("PING");  // drains DIST response first
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(StartsWith(*r2, "OK "));
}

TEST_F(ServerEndToEndTest, StatsExportsServingCoreKeys) {
  const std::string stats = *client_.RoundTrip("STATS");
  EXPECT_NE(stats.find("shed=0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("io_threads="), std::string::npos);
  EXPECT_NE(stats.find("open_connections="), std::string::npos);
  EXPECT_NE(stats.find("queue_capacity="), std::string::npos);
}

TEST_F(ServerEndToEndTest, V2ServesIdenticalAnswersToV1) {
  auto v2 = DistanceClient::Connect("127.0.0.1", server_->port(),
                                    DistanceClient::Protocol::kV2)
                .ValueOrDie();
  // Every deterministic verb must answer byte-identically across the
  // framings (the shared v1 rendering is the comparison space).
  std::string big_batch = "BATCH 9";
  for (VertexId t = 0; t < 25; ++t) {
    big_batch += ' ';
    big_batch += std::to_string(t);
  }
  const std::vector<std::string> lines = {
      "PING",          "DIST 5 20", "BATCH 9 1 2",          "DIST 20 5",
      "DIST 0 999999", big_batch,   "USE nosuch DIST 1 2",  "KNN 7 6",
      "WITHIN 7 3",    "WITHIN 7 0", "REACH 5 20 4",        "REACH 5 20 1",
      "REACH 0 999999 3",
      // PATH has no graph on this fixture: the ERR must also match.
      "PATH 5 20"};
  for (const std::string& line : lines) {
    const std::string v1_answer = *client_.RoundTrip(line);
    const WireResponse v2_answer =
        v2.Call(ParseRequest(line).ValueOrDie()).ValueOrDie();
    EXPECT_EQ(EncodeResponseV1(v2_answer), v1_answer) << line;
  }
  // The convenience helper speaks whichever framing the client opened.
  EXPECT_EQ(*v2.QueryDistance(5, 20), *client_.QueryDistance(5, 20));
  // STATS carries live counters (not byte-stable between two calls);
  // check the status and payload shape instead.
  const WireResponse stats = *v2.Call(ParseRequest("STATS").ValueOrDie());
  EXPECT_EQ(stats.status, WireStatus::kOk);
  EXPECT_NE(stats.text.find("io_threads="), std::string::npos);
}

TEST_F(ServerEndToEndTest, V2AdminVerbsMatchV1Semantics) {
  auto tmp = TempDir::Create("server_v2_admin");
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp->File("x.hli");
  ASSERT_TRUE(index_.Save(path).ok());
  auto v2 = DistanceClient::Connect("127.0.0.1", server_->port(),
                                    DistanceClient::Protocol::kV2)
                .ValueOrDie();

  const WireResponse attach =
      *v2.Call(ParseRequest("ATTACH v2idx " + path).ValueOrDie());
  ASSERT_EQ(attach.status, WireStatus::kOk) << attach.text;
  EXPECT_TRUE(StartsWith(attach.text, "attached v2idx"));

  // Routed queries against the attached index agree across framings.
  const std::string routed_v1 = *client_.RoundTrip("USE v2idx DIST 7 1");
  const WireResponse routed_v2 =
      *v2.Call(ParseRequest("USE v2idx DIST 7 1").ValueOrDie());
  EXPECT_EQ(EncodeResponseV1(routed_v2), routed_v1);

  const WireResponse reload =
      *v2.Call(ParseRequest("USE v2idx RELOAD").ValueOrDie());
  EXPECT_EQ(reload.status, WireStatus::kOk) << reload.text;

  const WireResponse detach =
      *v2.Call(ParseRequest("DETACH v2idx").ValueOrDie());
  EXPECT_EQ(detach.status, WireStatus::kOk);
  EXPECT_EQ(detach.text, "detached v2idx");
  EXPECT_EQ(v2.Call(ParseRequest("USE v2idx DIST 7 1").ValueOrDie())->status,
            WireStatus::kErr);
}

TEST_F(ServerEndToEndTest, ReloadSwapsIndexAndInvalidatesCache) {
  auto tmp = TempDir::Create("server_test");
  ASSERT_TRUE(tmp.ok());

  // Answer a pair on graph A and pin it in the cache.
  const std::vector<Distance> truth_a = ExactDistances(graph_, 3);
  ASSERT_EQ(*client_.QueryDistance(3, 20), truth_a[20]);
  ASSERT_EQ(*client_.QueryDistance(3, 20), truth_a[20]);

  // Build a different graph B (different seed, larger) and save it.
  const EdgeList edges_b = TestGraph(400, /*seed=*/99);
  const CsrGraph graph_b = CsrGraph::FromEdgeList(edges_b).ValueOrDie();
  HopDbIndex index_b = HopDbIndex::Build(graph_b).ValueOrDie();
  const std::string path_b = tmp->File("b.hli");
  ASSERT_TRUE(index_b.Save(path_b).ok());

  const std::string reload = *client_.RoundTrip("RELOAD " + path_b);
  ASSERT_TRUE(StartsWith(reload, "OK ")) << reload;
  EXPECT_NE(reload.find("vertices=400"), std::string::npos);
  EXPECT_EQ(server_->metrics().reloads(), 1u);

  // Every answer now reflects graph B — including the pair that was
  // cached under graph A (per-snapshot caches make staleness impossible).
  const std::vector<Distance> truth_b = ExactDistances(graph_b, 3);
  for (VertexId t : {VertexId{20}, VertexId{1}, VertexId{350}}) {
    ASSERT_EQ(*client_.QueryDistance(3, t), truth_b[t]) << "t=" << t;
  }

  // Bare RELOAD re-reads the last explicit path.
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("RELOAD"), "OK "));
}

TEST_F(ServerEndToEndTest, BareReloadWithoutSourceFails) {
  // This server was started from an in-memory index: bare RELOAD must be
  // refused until an explicit path establishes a source.
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("RELOAD"), "ERR "));
}

TEST_F(ServerEndToEndTest, ReloadFromMissingFileKeepsServing) {
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("RELOAD /nonexistent/x.hli"),
                         "ERR "));
  const std::vector<Distance> truth = ExactDistances(graph_, 2);
  EXPECT_EQ(*client_.QueryDistance(2, 10), truth[10]);
}

TEST_F(ServerEndToEndTest, AttachUseDetachServesSecondIndex) {
  auto tmp = TempDir::Create("server_multi");
  ASSERT_TRUE(tmp.ok());

  // A second, structurally different graph, saved as a zero-copy HLI2
  // file so ATTACH takes the mmap path.
  const EdgeList edges_b = TestGraph(500, /*seed=*/41);
  const CsrGraph graph_b = CsrGraph::FromEdgeList(edges_b).ValueOrDie();
  HopDbIndex index_b = HopDbIndex::Build(graph_b).ValueOrDie();
  const std::string path_b = tmp->File("b.hli2");
  ASSERT_TRUE(MappedIndex::Write(index_b.label_index(), index_b.ranking(),
                                 path_b)
                  .ok());

  const std::string attach = *client_.RoundTrip("ATTACH second " + path_b);
  ASSERT_TRUE(StartsWith(attach, "OK ")) << attach;
  EXPECT_NE(attach.find("vertices=500"), std::string::npos);
  EXPECT_NE(attach.find("mode=mmap"), std::string::npos);

  // The attached index answers oracle-correct over the wire while the
  // default keeps serving untouched.
  const std::vector<Distance> truth_b = ExactDistances(graph_b, 7);
  const std::vector<Distance> truth_a = ExactDistances(graph_, 7);
  for (VertexId t = 0; t < 60; ++t) {
    const std::string routed =
        *client_.RoundTrip("USE second DIST 7 " + std::to_string(t));
    ASSERT_TRUE(StartsWith(routed, "OK ")) << routed;
    ASSERT_EQ(*ParseDistanceToken(routed.substr(3)), truth_b[t]) << t;
    ASSERT_EQ(*client_.QueryDistance(7, t), truth_a[t]) << t;
  }
  // USE-prefixed BATCH and KNN route too.
  const std::string batch =
      *client_.RoundTrip("USE second BATCH 7 1 2 3 4 5 6");
  ASSERT_TRUE(StartsWith(batch, "OK ")) << batch;
  const std::vector<std::string> tokens = SplitString(batch.substr(3), ' ');
  ASSERT_EQ(tokens.size(), 6u);
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(*ParseDistanceToken(tokens[j]), truth_b[j + 1]);
  }
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("USE second KNN 7 5"), "OK "));

  // Vertex range errors are per-index: 400 exists only in `second`.
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("USE second DIST 7 400"), "OK "));
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("DIST 7 400"), "ERR "));

  // STATS reports the registry with per-index mode and footprint.
  const std::string stats = *client_.RoundTrip("STATS");
  EXPECT_NE(stats.find("indexes=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("index.default.mode=heap"), std::string::npos);
  EXPECT_NE(stats.find("index.second.mode=mmap"), std::string::npos);
  EXPECT_NE(stats.find("index.second.vertices=500"), std::string::npos);
  EXPECT_NE(stats.find("index.second.resident_bytes="), std::string::npos);

  // Per-index RELOAD is an O(1) remap for the mmap backing.
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("USE second RELOAD"), "OK "));
  EXPECT_EQ(*ParseDistanceToken(
                client_.RoundTrip("USE second DIST 7 1")->substr(3)),
            truth_b[1]);

  // DETACH removes the name; the default index is untouched.
  EXPECT_EQ(*client_.RoundTrip("DETACH second"), "OK detached second");
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("USE second DIST 7 1"), "ERR "));
  EXPECT_EQ(*client_.QueryDistance(7, 1), truth_a[1]);
  EXPECT_NE(client_.RoundTrip("STATS")->find("indexes=1"),
            std::string::npos);
}

TEST_F(ServerEndToEndTest, AttachRejectsBadNamesAndDuplicates) {
  auto tmp = TempDir::Create("server_multi_err");
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp->File("x.hli");
  ASSERT_TRUE(index_.Save(path).ok());

  // Reserved and malformed names.
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("ATTACH default " + path),
                         "ERR "));
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("ATTACH bad/name " + path),
                         "ERR "));
  // Attach, duplicate attach, detach of unknown/default names.
  ASSERT_TRUE(StartsWith(*client_.RoundTrip("ATTACH g2 " + path), "OK "));
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("ATTACH g2 " + path), "ERR "));
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("DETACH nosuch"), "ERR "));
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("DETACH default"), "ERR "));
  // A failed ATTACH (missing file) must not register the name.
  EXPECT_TRUE(StartsWith(
      *client_.RoundTrip("ATTACH g3 /nonexistent/index.hli2"), "ERR "));
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("USE g3 DIST 0 1"), "ERR "));
  EXPECT_EQ(*client_.RoundTrip("DETACH g2"), "OK detached g2");
}

TEST_F(ServerEndToEndTest, CraftedIndexFilesAnswerErrAndKeepServing) {
  auto tmp = TempDir::Create("server_crafted");
  ASSERT_TRUE(tmp.ok());
  // A 24-byte HLI1 file claiming 2^40 labels: the loader must refuse it
  // instead of sizing an allocation from the count.
  std::string header = "HLI1";
  PutU32(&header, 0);  // undirected
  PutU32(&header, 1);  // one vertex
  PutU64(&header, uint64_t{1} << 40);
  PutU32(&header, 0);
  ASSERT_EQ(header.size(), 24u);
  const std::string crafted = tmp->File("crafted.hli");
  ASSERT_TRUE(WriteStringToFile(crafted, header).ok());
  // A real index whose .perm sidecar claims 2^40 entries.
  const std::string bad_perm = tmp->File("bad_perm.hli");
  ASSERT_TRUE(index_.Save(bad_perm).ok());
  std::string perm;
  PutU64(&perm, uint64_t{1} << 40);
  ASSERT_TRUE(WriteStringToFile(bad_perm + ".perm", perm).ok());

  for (const std::string& path : {crafted, bad_perm}) {
    const std::string attach = *client_.RoundTrip("ATTACH c " + path);
    EXPECT_TRUE(StartsWith(attach, "ERR ")) << attach;
    const std::string reload = *client_.RoundTrip("RELOAD " + path);
    EXPECT_TRUE(StartsWith(reload, "ERR ")) << reload;
  }
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("USE c DIST 0 1"), "ERR "));
  const std::vector<Distance> truth = ExactDistances(graph_, 2);
  EXPECT_EQ(*client_.QueryDistance(2, 10), truth[10]);
}

TEST_F(ServerEndToEndTest, CraftedHli1ShapeAnswersErrAndKeepsServing) {
  auto tmp = TempDir::Create("server_shape");
  ASSERT_TRUE(tmp.ok());
  // An undirected one-vertex HLI1 whose in side holds one empty label,
  // ending after the label body. The loader must refuse it rather than
  // hand the constructor a shape it aborts on.
  std::string body = "HLI1";
  PutU32(&body, 0);  // undirected
  PutU32(&body, 1);  // one vertex
  PutU64(&body, 1);  // out side: one empty label
  PutU64(&body, 0);
  PutU64(&body, 1);  // in side: one empty label
  PutU64(&body, 0);
  const std::string crafted = tmp->File("shape.hli");
  ASSERT_TRUE(WriteStringToFile(crafted, body).ok());
  std::string perm;
  PutU64(&perm, 1);
  PutU32(&perm, 0);
  ASSERT_TRUE(WriteStringToFile(crafted + ".perm", perm).ok());

  const std::string attach = *client_.RoundTrip("ATTACH s " + crafted);
  EXPECT_TRUE(StartsWith(attach, "ERR ")) << attach;
  const std::vector<Distance> truth = ExactDistances(graph_, 3);
  EXPECT_EQ(*client_.QueryDistance(3, 11), truth[11]);
}

// ---------------------------------------------------------------------------
// Online updates (ADDEDGE / DELEDGE / COMMIT)
// ---------------------------------------------------------------------------

TEST_F(ServerEndToEndTest, UpdateVerbsRepairAndCommit) {
  auto tmp = TempDir::Create("server_update");
  ASSERT_TRUE(tmp.ok());
  // Binary graph: id-exact round-trip (text loading compacts ids).
  const std::string graph_path = tmp->File("g.hgr");
  ASSERT_TRUE(WriteBinaryGraph(edges_, graph_path).ok());
  ASSERT_TRUE(server_->RegisterUpdateGraph("", graph_path).ok());

  // A far-apart reachable pair: the inserted edge must shortcut it.
  const std::vector<Distance> truth = ExactDistances(graph_, 0);
  VertexId far = kInvalidVertex;
  for (VertexId t = 1; t < graph_.num_vertices(); ++t) {
    if (truth[t] != kInfDistance && truth[t] >= 3) {
      far = t;
      break;
    }
  }
  ASSERT_NE(far, kInvalidVertex) << "test graph too dense";

  // The edge op repairs the working copy; serving is unchanged until
  // COMMIT publishes the repaired snapshot.
  const std::string applied =
      *client_.RoundTrip("ADDEDGE 0 " + std::to_string(far));
  EXPECT_EQ(applied, "OK applied pending=1");
  EXPECT_EQ(*client_.QueryDistance(0, far), truth[far]);
  const std::string pending_stats = *client_.RoundTrip("STATS");
  EXPECT_NE(pending_stats.find("index.default.pending_updates=1"),
            std::string::npos)
      << pending_stats;

  const std::string committed = *client_.RoundTrip("COMMIT");
  ASSERT_TRUE(StartsWith(committed, "OK committed updates=1 ")) << committed;
  EXPECT_EQ(*client_.QueryDistance(0, far), 1u);

  // Differential check: the published snapshot answers identically to a
  // from-scratch build on the mutated graph.
  EdgeList mutated = edges_;
  mutated.Add(0, far);
  mutated.Normalize();
  const CsrGraph mutated_graph = CsrGraph::FromEdgeList(mutated).ValueOrDie();
  const std::vector<Distance> mutated_truth = ExactDistances(mutated_graph, 0);
  for (VertexId t = 0; t < 60; ++t) {
    ASSERT_EQ(*client_.QueryDistance(0, t), mutated_truth[t]) << "t=" << t;
  }

  // Redundant insert is a no-op; deleting it and committing restores
  // the original distances exactly.
  EXPECT_EQ(*client_.RoundTrip("ADDEDGE 0 " + std::to_string(far)),
            "OK noop pending=0");
  EXPECT_EQ(*client_.RoundTrip("DELEDGE 0 " + std::to_string(far)),
            "OK applied pending=1");
  ASSERT_TRUE(StartsWith(*client_.RoundTrip("COMMIT"), "OK committed "));
  for (VertexId t = 0; t < 60; ++t) {
    ASSERT_EQ(*client_.QueryDistance(0, t), truth[t]) << "t=" << t;
  }

  // Post-commit STATS: drained transaction, recorded commit time.
  const std::string stats = *client_.RoundTrip("STATS");
  EXPECT_NE(stats.find("index.default.pending_updates=0"),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("index.default.last_commit_seconds="),
            std::string::npos);

  // Invalid ops answer ERR without disturbing the session.
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("DELEDGE 0 " +
                                            std::to_string(far)),
                         "ERR "));  // already deleted
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("ADDEDGE 4 4"), "ERR "));
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("ADDEDGE 0 999999"), "ERR "));
  EXPECT_EQ(*client_.RoundTrip("COMMIT"), "OK nothing to commit");
}

// COMMIT's selective invalidation: cached pairs whose source Lout and
// target Lin both survived the repair untouched must carry over into
// the new snapshot's cache — and every carried answer must still be
// exact on the mutated graph.
TEST_F(ServerEndToEndTest, CommitCarriesUnaffectedCacheEntries) {
  auto tmp = TempDir::Create("server_commit_cache");
  ASSERT_TRUE(tmp.ok());
  const std::string graph_path = tmp->File("g.hgr");
  ASSERT_TRUE(WriteBinaryGraph(edges_, graph_path).ok());
  ASSERT_TRUE(server_->RegisterUpdateGraph("", graph_path).ok());

  // A nearby pair: an edge between vertices at distance 2 keeps the
  // repair (and its touched-owner set) local, so the commit stays below
  // the wholesale-invalidation threshold.
  const std::vector<Distance> truth = ExactDistances(graph_, 5);
  VertexId near = kInvalidVertex;
  for (VertexId t = 0; t < graph_.num_vertices(); ++t) {
    if (truth[t] == 2) {
      near = t;
      break;
    }
  }
  ASSERT_NE(near, kInvalidVertex) << "test graph too sparse";

  // Warm the serving cache with a block of pairs (capacity 512, so the
  // survivors are the most recently asked).
  for (VertexId s = 0; s < 40; ++s) {
    for (VertexId t = 0; t < 40; ++t) {
      ASSERT_TRUE(client_.QueryDistance(s, t).ok());
    }
  }

  EXPECT_EQ(*client_.RoundTrip("ADDEDGE 5 " + std::to_string(near)),
            "OK applied pending=1");
  const std::string committed = *client_.RoundTrip("COMMIT");
  ASSERT_TRUE(StartsWith(committed, "OK committed updates=1 ")) << committed;

  const auto ParseCounter = [&committed](const std::string& key) {
    const size_t pos = committed.find(" " + key + "=");
    EXPECT_NE(pos, std::string::npos) << committed;
    return static_cast<uint64_t>(
        std::stoull(committed.substr(pos + key.size() + 2)));
  };
  const uint64_t carried = ParseCounter("cache_carried");
  const uint64_t dropped = ParseCounter("cache_dropped");
  EXPECT_GT(carried, 0u) << committed;
  // Carried + dropped covers exactly the live entries of the old cache
  // (<= capacity 512 after LRU eviction of the 1600 warmed pairs).
  EXPECT_LE(carried + dropped, 512u) << committed;

  // Every warmed pair — carried or re-computed — must answer with the
  // mutated graph's exact distance. A stale carried entry fails here.
  EdgeList mutated = edges_;
  mutated.Add(5, near);
  mutated.Normalize();
  const CsrGraph mutated_graph = CsrGraph::FromEdgeList(mutated).ValueOrDie();
  for (VertexId s = 0; s < 40; ++s) {
    const std::vector<Distance> want = ExactDistances(mutated_graph, s);
    for (VertexId t = 0; t < 40; ++t) {
      ASSERT_EQ(*client_.QueryDistance(s, t), want[t])
          << s << "->" << t;
    }
  }
}

// STATS reads the update session's counters without the lock a repair
// holds: while one connection streams ADDEDGE/DELEDGE/COMMIT, a second
// connection's STATS keeps answering, and every answer parses.
TEST_F(ServerEndToEndTest, StatsAnswersWhileUpdatesStream) {
  auto tmp = TempDir::Create("server_update_stats");
  ASSERT_TRUE(tmp.ok());
  const std::string graph_path = tmp->File("g.hgr");
  ASSERT_TRUE(WriteBinaryGraph(edges_, graph_path).ok());
  ASSERT_TRUE(server_->RegisterUpdateGraph("", graph_path).ok());
  std::vector<VertexId> absent;  // vertices with no edge to 0
  for (VertexId v = 1; v < graph_.num_vertices() && absent.size() < 6; ++v) {
    if (graph_.ArcWeight(0, v) == kInfDistance) absent.push_back(v);
  }
  ASSERT_EQ(absent.size(), 6u);

  std::atomic<bool> done{false};
  std::thread updater([&] {
    auto conn = DistanceClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(conn.ok()) << conn.status();
    if (conn.ok()) {
      for (const VertexId v : absent) {
        const std::string edge = "0 " + std::to_string(v);
        EXPECT_EQ(*conn->RoundTrip("ADDEDGE " + edge), "OK applied pending=1");
        EXPECT_EQ(*conn->RoundTrip("DELEDGE " + edge), "OK applied pending=2");
        EXPECT_TRUE(StartsWith(*conn->RoundTrip("COMMIT"),
                               "OK committed updates=2 "));
      }
    }
    done.store(true);
  });

  const std::string key = "index.default.pending_updates=";
  size_t answered = 0;
  do {
    const Result<std::string> stats = client_.RoundTrip("STATS");
    if (!stats.ok() || !StartsWith(*stats, "OK ")) {
      ADD_FAILURE() << (stats.ok() ? *stats : stats.status().ToString());
      break;
    }
    const size_t at = stats->find(key);
    EXPECT_NE(at, std::string::npos) << *stats;
    if (at != std::string::npos) {
      EXPECT_LE(std::strtoull(stats->c_str() + at + key.size(), nullptr, 10),
                2u)
          << *stats;
    }
    EXPECT_NE(stats->find("index.default.last_commit_seconds="),
              std::string::npos)
        << *stats;
    ++answered;
  } while (!done.load());
  updater.join();
  EXPECT_GT(answered, 0u);
  const std::string stats = *client_.RoundTrip("STATS");
  EXPECT_NE(stats.find(key + "0 "), std::string::npos) << stats;
}

TEST_F(ServerEndToEndTest, UpdateVerbsRequireRegisteredGraph) {
  const std::string response = *client_.RoundTrip("ADDEDGE 0 1");
  ASSERT_TRUE(StartsWith(response, "ERR ")) << response;
  EXPECT_NE(response.find("--graph"), std::string::npos) << response;
  // COMMIT without a session is a harmless no-op, not an error.
  EXPECT_EQ(*client_.RoundTrip("COMMIT"), "OK nothing to commit");
}

TEST_F(ServerEndToEndTest, UpdatesRefusedOnMmapIndex) {
  auto tmp = TempDir::Create("server_update_mmap");
  ASSERT_TRUE(tmp.ok());
  const std::string index_path = tmp->File("m.hli2");
  ASSERT_TRUE(MappedIndex::Write(index_.label_index(), index_.ranking(),
                                 index_path)
                  .ok());
  const std::string graph_path = tmp->File("g.hgr");
  ASSERT_TRUE(WriteBinaryGraph(edges_, graph_path).ok());
  ASSERT_TRUE(StartsWith(*client_.RoundTrip("ATTACH mm " + index_path),
                         "OK "));
  ASSERT_TRUE(server_->RegisterUpdateGraph("mm", graph_path).ok());
  const std::string response = *client_.RoundTrip("USE mm ADDEDGE 0 1");
  ASSERT_TRUE(StartsWith(response, "ERR ")) << response;
  EXPECT_NE(response.find("read-only"), std::string::npos) << response;
}

TEST_F(ServerEndToEndTest, ReloadDiscardsUncommittedUpdates) {
  auto tmp = TempDir::Create("server_update_reload");
  ASSERT_TRUE(tmp.ok());
  const std::string index_path = tmp->File("a.hli");
  ASSERT_TRUE(index_.Save(index_path).ok());
  const std::string graph_path = tmp->File("g.hgr");
  ASSERT_TRUE(WriteBinaryGraph(edges_, graph_path).ok());
  ASSERT_TRUE(server_->RegisterUpdateGraph("", graph_path).ok());

  const std::vector<Distance> truth = ExactDistances(graph_, 0);
  VertexId far = kInvalidVertex;
  for (VertexId t = 1; t < graph_.num_vertices(); ++t) {
    if (truth[t] != kInfDistance && truth[t] >= 3) {
      far = t;
      break;
    }
  }
  ASSERT_NE(far, kInvalidVertex);
  EXPECT_EQ(*client_.RoundTrip("ADDEDGE 0 " + std::to_string(far)),
            "OK applied pending=1");
  // RELOAD republishes from disk: the uncommitted transaction is gone.
  ASSERT_TRUE(StartsWith(*client_.RoundTrip("RELOAD " + index_path), "OK "));
  EXPECT_EQ(*client_.RoundTrip("COMMIT"), "OK nothing to commit");
  EXPECT_EQ(*client_.QueryDistance(0, far), truth[far]);
  // The session re-seeds from the reloaded snapshot; updates work again.
  EXPECT_EQ(*client_.RoundTrip("ADDEDGE 0 " + std::to_string(far)),
            "OK applied pending=1");
  ASSERT_TRUE(StartsWith(*client_.RoundTrip("COMMIT"), "OK committed "));
  EXPECT_EQ(*client_.QueryDistance(0, far), 1u);
}

TEST(ServerLifecycleTest, StopUnblocksConnectedClients) {
  const EdgeList edges = TestGraph(120, /*seed=*/5);
  ServerOptions options;
  options.num_workers = 2;
  auto server =
      DistanceServer::Start(HopDbIndex::Build(edges).ValueOrDie(), options)
          .ValueOrDie();
  auto client =
      DistanceClient::Connect("127.0.0.1", server->port()).ValueOrDie();
  EXPECT_EQ(*client.RoundTrip("PING"), "OK pong");
  server->Stop();
  // The connection is closed; the client sees an error, not a hang.
  auto response = client.RoundTrip("PING");
  if (response.ok()) {
    EXPECT_TRUE(StartsWith(*response, "ERR "));
  }
  server->Stop();  // idempotent
}

TEST(ServerLifecycleTest, PortZeroPicksEphemeralPortAndRebinds) {
  const EdgeList edges = TestGraph(100, /*seed=*/6);
  ServerOptions options;
  options.num_workers = 1;
  auto a = DistanceServer::Start(HopDbIndex::Build(edges).ValueOrDie(),
                                 options)
               .ValueOrDie();
  auto b = DistanceServer::Start(HopDbIndex::Build(edges).ValueOrDie(),
                                 options)
               .ValueOrDie();
  EXPECT_NE(a->port(), 0);
  EXPECT_NE(b->port(), 0);
  EXPECT_NE(a->port(), b->port());
}

// ---------------------------------------------------------------------------
// Tracing + telemetry end to end
// ---------------------------------------------------------------------------

// Completed traces are delivered on the I/O thread *after* the response
// bytes reach the kernel, so a client that has read its answer may still
// be a few microseconds ahead of HandleTraceDone.  Poll, don't assert.
template <typename Pred>
bool WaitFor(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

class TracingEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = CsrGraph::FromEdgeList(TestGraph(200, /*seed=*/23)).ValueOrDie();
    ServerOptions options;
    options.num_workers = 2;
    options.trace_sample_rate = 1.0;  // every request lands in the ring
    options.trace_ring_capacity = 64;
    server_ = DistanceServer::Start(HopDbIndex::Build(graph_).ValueOrDie(),
                                    options)
                  .ValueOrDie();
    client_ = DistanceClient::Connect("127.0.0.1", server_->port())
                  .ValueOrDie();
  }

  CsrGraph graph_;
  std::unique_ptr<DistanceServer> server_;
  DistanceClient client_;
};

TEST_F(TracingEndToEndTest, MetricsBlobIsPrometheusText) {
  // A second index, so each per-index family has two samples.
  auto tmp = TempDir::Create("server_metrics");
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp->File("second.hopdb");
  ASSERT_TRUE(HopDbIndex::Build(graph_).ValueOrDie().Save(path).ok());
  ASSERT_TRUE(server_->AttachIndex("second", path).ok());
  ASSERT_TRUE(StartsWith(*client_.RoundTrip("DIST 5 20"), "OK "));
  const std::string body = *client_.RoundTrip("METRICS");
  // RoundTrip unwraps the blob framing: the body is the exposition text.
  EXPECT_TRUE(StartsWith(body, "# HELP ")) << body.substr(0, 200);
  EXPECT_NE(body.find("# TYPE hopdb_requests_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("hopdb_build_info{"), std::string::npos);
  EXPECT_NE(body.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(body.find("hopdb_stage_duration_us_bucket{stage=\"execute\""),
            std::string::npos);
  EXPECT_NE(body.find("hopdb_index_vertices{index=\"second\"} 200"),
            std::string::npos);
  // Each family is one group, as the text format requires: its HELP
  // line, its TYPE line, then all of its samples.
  std::set<std::string> families;
  std::string family, previous;
  for (const std::string& line : SplitString(body, '\n')) {
    if (StartsWith(line, "# HELP ")) {
      family = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(families.insert(family).second) << "split: " << family;
    } else if (StartsWith(line, "# TYPE ")) {
      EXPECT_TRUE(StartsWith(previous, "# HELP " + family + " ")) << line;
      EXPECT_TRUE(StartsWith(line, "# TYPE " + family + " ")) << line;
    } else {
      const std::string name = line.substr(0, line.find_first_of("{ "));
      EXPECT_TRUE(name == family || name == family + "_bucket" ||
                  name == family + "_sum" || name == family + "_count")
          << line << " is outside the group of " << family;
    }
    previous = line;
  }
  // v2 carries the same bytes as a blob payload.
  auto v2 = DistanceClient::Connect("127.0.0.1", server_->port(),
                                    DistanceClient::Protocol::kV2)
                .ValueOrDie();
  const WireResponse response =
      *v2.Call(ParseRequest("METRICS").ValueOrDie());
  EXPECT_EQ(response.status, WireStatus::kOk);
  EXPECT_EQ(response.payload, WirePayload::kBlob);
  EXPECT_NE(response.text.find("hopdb_requests_total"), std::string::npos);
}

TEST_F(TracingEndToEndTest, TraceRingCapturesMonotonicStages) {
  ASSERT_TRUE(StartsWith(*client_.RoundTrip("DIST 5 20"), "OK "));
  ASSERT_EQ(*client_.RoundTrip("PING"), "OK pong");
  ASSERT_TRUE(WaitFor([&] { return server_->RecentTraces(8).size() >= 2; }));

  for (const RequestTrace& trace : server_->RecentTraces(8)) {
    EXPECT_NE(trace.trace_id, 0u);
    EXPECT_GT(trace.accepted_ns, 0u);
    EXPECT_LE(trace.accepted_ns, trace.parsed_ns);
    EXPECT_LE(trace.parsed_ns, trace.enqueued_ns);
    EXPECT_LE(trace.enqueued_ns, trace.dequeued_ns);
    EXPECT_LE(trace.dequeued_ns, trace.executed_ns);
    EXPECT_LE(trace.executed_ns, trace.encoded_ns);
    EXPECT_LE(trace.encoded_ns, trace.written_ns);
    EXPECT_EQ(trace.status, WireStatus::kOk);
  }

  // The TRACE verb renders the same ring as a blob span table.
  const std::string table = *client_.RoundTrip("TRACE LAST 8");
  EXPECT_TRUE(StartsWith(table, "trace_id ")) << table.substr(0, 120);
  EXPECT_NE(table.find(" dist "), std::string::npos) << table;
  EXPECT_NE(table.find(" ping "), std::string::npos) << table;
  EXPECT_TRUE(StartsWith(*client_.RoundTrip("TRACE LAST 0"), "ERR "));
}

TEST_F(TracingEndToEndTest, DegradedRequestsLandInDegradedHistogram) {
  const uint64_t ok_before = server_->metrics().latency_histogram().count();
  ASSERT_TRUE(StartsWith(*client_.RoundTrip("NOSUCH 1 2"), "ERR "));
  ASSERT_TRUE(StartsWith(*client_.RoundTrip("DIST 0 999999"), "ERR "));
  ASSERT_TRUE(WaitFor(
      [&] { return server_->metrics().degraded_histogram().count() >= 2; }));
  // Error answers never inflate the healthy latency distribution, and a
  // parse error never lands in any verb histogram.
  EXPECT_EQ(server_->metrics().latency_histogram().count(), ok_before);
  ASSERT_TRUE(WaitFor([&] {
    return server_->metrics().verb_histogram(RequestKind::kDist).count() >= 1;
  }));
}

TEST_F(TracingEndToEndTest, StatsExportsBuildAndStageKeys) {
  ASSERT_TRUE(StartsWith(*client_.RoundTrip("DIST 5 20"), "OK "));
  ASSERT_TRUE(WaitFor(
      [&] { return server_->metrics().execute_histogram().count() >= 1; }));
  const std::string stats = *client_.RoundTrip("STATS");
  for (const char* key :
       {"uptime_seconds=", "build_git_sha=", "queue_wait_p99_us=",
        "execute_p50_us=", "write_p99_us=", "degraded_p99_us=",
        "slow_queries=", "traces_sampled="}) {
    EXPECT_NE(stats.find(key), std::string::npos) << key << "\n" << stats;
  }
}

TEST(SlowQueryLogTest, EmitsStructuredJsonLine) {
  std::mutex mu;
  std::vector<std::string> lines;
  SetJsonLogSink([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });

  ServerOptions options;
  options.num_workers = 1;
  options.slow_query_us = 1;  // every request overruns the budget
  auto server = DistanceServer::Start(
                    HopDbIndex::Build(TestGraph(100, /*seed=*/9)).ValueOrDie(),
                    options)
                    .ValueOrDie();
  auto client =
      DistanceClient::Connect("127.0.0.1", server->port()).ValueOrDie();
  ASSERT_TRUE(StartsWith(*client.RoundTrip("DIST 3 7"), "OK "));

  std::string slow_line;
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& line : lines) {
      if (line.find("\"event\":\"slow_query\"") != std::string::npos) {
        slow_line = line;
        return true;
      }
    }
    return false;
  }));
  EXPECT_NE(slow_line.find("\"verb\":\"dist\""), std::string::npos)
      << slow_line;
  EXPECT_NE(slow_line.find("\"total_us\":"), std::string::npos) << slow_line;
  EXPECT_NE(slow_line.find("\"queue_us\":"), std::string::npos) << slow_line;
  ASSERT_TRUE(WaitFor([&] { return server->metrics().slow_queries() >= 1; }));

  server->Stop();
  SetJsonLogSink(nullptr);  // restore stderr for later tests
}

TEST(ServerLifecycleTest, BindToBusyPortFails) {
  const EdgeList edges = TestGraph(100, /*seed=*/7);
  ServerOptions options;
  options.num_workers = 1;
  auto a = DistanceServer::Start(HopDbIndex::Build(edges).ValueOrDie(),
                                 options)
               .ValueOrDie();
  options.port = a->port();
  auto b = DistanceServer::Start(HopDbIndex::Build(edges).ValueOrDie(),
                                 options);
  EXPECT_FALSE(b.ok());
}

}  // namespace
}  // namespace hopdb
