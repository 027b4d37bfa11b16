// The benchmark's own tests: percentiles and the tail rule, span self time,
// and the paced schedule's due-time accounting. (That the printed metric
// names match BENCHMARK.json is checked by test_bench.py.)

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "measure.h"
#include "pacer.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Measure, MedianOddEvenEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Measure, NearestRankPercentile) {
  const std::vector<double> v = one_to(100);
  const Percentile p50 = percentile_sorted(v, 50);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.beyond, 50u);
  const Percentile p99 = percentile_sorted(v, 99);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.beyond, 1u);
  EXPECT_EQ(percentile_sorted(v, 100).value, 100.0);
}

TEST(Measure, TailPercentileNeedsTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  auto p = highest_supported_percentile(one_to(1000));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->pct, 99.0);
  EXPECT_EQ(p->beyond, 10u);
  EXPECT_EQ(p->value, 990.0);
  // 999 samples: p99 leaves 9 beyond, so p90 is the highest supported.
  p = highest_supported_percentile(one_to(999));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->pct, 90.0);
  EXPECT_GE(p->beyond, 10u);
  // 20 samples support p50 (10 beyond); 19 support nothing.
  p = highest_supported_percentile(one_to(20));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->pct, 50.0);
  EXPECT_FALSE(highest_supported_percentile(one_to(19)).has_value());
  EXPECT_FALSE(highest_supported_percentile({}).has_value());
  // Order of the input does not matter.
  std::vector<double> rev = one_to(1000);
  std::reverse(rev.begin(), rev.end());
  EXPECT_EQ(highest_supported_percentile(rev)->value, 990.0);
}

SpanRecord span(std::uint32_t id, std::uint32_t parent, std::int64_t a,
                std::int64_t b) {
  return {id, parent, "s", a, b};
}

TEST(Trace, SelfTimeNested) {
  // root [0,100] > mid [10,60] > leaf [20,30]
  const std::vector<SpanRecord> s = {span(1, 0, 0, 100), span(2, 1, 10, 60),
                                     span(3, 2, 20, 30)};
  const auto self = self_times_ns(s);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 10);
  EXPECT_DOUBLE_EQ(explained_fraction(s, 1), 0.5);
}

TEST(Trace, SelfTimeSiblingsAndOverlap) {
  // Siblings [10,20] and [30,50]; two overlapping children from other
  // threads [60,80] and [70,90] cover 30, not 40; a child running past
  // the parent's end is clipped.
  const std::vector<SpanRecord> s = {
      span(1, 0, 0, 100), span(2, 1, 10, 20), span(3, 1, 30, 50),
      span(4, 1, 60, 80), span(5, 1, 70, 90), span(6, 1, 95, 130)};
  const auto self = self_times_ns(s);
  EXPECT_EQ(self[0], 100 - (10 + 20 + 30 + 5));
  for (std::size_t i = 1; i < s.size(); ++i)
    EXPECT_EQ(self[i], s[i].end_ns - s[i].start_ns);
}

TEST(Trace, TotalsUnderRootSkipOtherTrees) {
  const std::vector<SpanRecord> s = {span(1, 0, 0, 100), span(2, 1, 0, 40),
                                     span(3, 2, 0, 10), span(4, 0, 200, 300),
                                     span(5, 4, 200, 250)};
  const auto t = totals_under(s, 1);
  ASSERT_EQ(t.count("s"), 1u);
  EXPECT_EQ(t.at("s").calls, 2u);
  EXPECT_EQ(t.at("s").total_ns, 50);
  EXPECT_EQ(t.at("s").self_ns, 40);  // 30 + 10
}

TEST(Trace, RecorderParentsAndDisabledCostNothing) {
  Tracer& t = Tracer::global();
  t.clear();
  t.enable(false);
  { ScopedSpan off("off"); EXPECT_EQ(off.id(), 0u); }
  EXPECT_TRUE(t.spans().empty());
  t.enable(true);
  std::uint32_t outer_id = 0, inner_id = 0;
  {
    ScopedSpan outer("outer");
    outer_id = outer.id();
    ScopedSpan inner("inner");
    inner_id = inner.id();
  }
  t.enable(false);
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].id, outer_id);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].id, inner_id);
  EXPECT_EQ(spans[1].parent, outer_id);
  t.clear();
}

// A clock that only moves when told, and a FIFO server behind it: each
// slot's reply is ready `service` after both its send and the previous
// reply, except that slot `stall` takes `stall_for`.
struct FakeLink {
  std::int64_t t = 0;
  std::int64_t service = 0;
  std::size_t stall = static_cast<std::size_t>(-1);
  std::int64_t stall_for = 0;
  std::vector<std::int64_t> ready;  // reply time per sent slot
  std::size_t delivered = 0;
  std::vector<std::int64_t> sends;

  std::int64_t now() const { return t; }
  bool send(std::size_t k) {
    sends.push_back(t);
    const std::int64_t prev = ready.empty() ? 0 : ready.back();
    ready.push_back(std::max(t, prev) + (k == stall ? stall_for : service));
    return true;
  }
  template <class OnReply>
  bool wait(std::int64_t deadline, OnReply&& on_reply) {
    if (delivered < ready.size() && ready[delivered] <= deadline) {
      t = std::max(t, ready[delivered]);
      on_reply(delivered++);
    } else {
      t = std::max(t, deadline);
    }
    return true;
  }
};

bool drive(FakeLink& link, std::size_t slots, std::vector<PacedSample>& out) {
  constexpr std::int64_t kInterval = 5'000'000;
  return run_paced(
      link, 0, kInterval, slots, 1, 1'000'000'000,
      [&](std::size_t k) { return link.send(k); },
      [&](std::int64_t deadline, auto&& on_reply) {
        return link.wait(deadline, on_reply);
      },
      out);
}

TEST(Pacer, SendsWhenDueAndMeasuresFromDueTime) {
  constexpr std::int64_t ms = 1'000'000;
  FakeLink link;
  link.service = ms / 2;
  link.stall = 0;
  link.t = 0;
  link.stall_for = 12 * ms;  // slot 0's reply lands at 12 ms
  std::vector<PacedSample> out;
  ASSERT_TRUE(drive(link, 4, out));
  ASSERT_EQ(out.size(), 4u);
  // The stall never delays a send: every slot went out when due.
  EXPECT_EQ(link.sends, (std::vector<std::int64_t>{0, 5 * ms, 10 * ms, 15 * ms}));
  for (const PacedSample& s : out) EXPECT_DOUBLE_EQ(s.late_ms, 0.0);
  // Replies queue behind the stall; each is timed from its due time.
  EXPECT_DOUBLE_EQ(out[0].ack_ms, 12.0);  // due 0, replied 12
  EXPECT_DOUBLE_EQ(out[1].ack_ms, 7.5);   // due 5, replied 12.5
  EXPECT_DOUBLE_EQ(out[2].ack_ms, 3.0);   // due 10, replied 13
  EXPECT_DOUBLE_EQ(out[3].ack_ms, 0.5);   // due 15, replied 15.5
}

TEST(Pacer, LateGeneratorIsRecordedAndCharged) {
  constexpr std::int64_t ms = 1'000'000;
  // A clock that jumps past slot 1's due time while slot 0 is being sent.
  struct SlowSend : FakeLink {
    bool send(std::size_t k) {
      FakeLink::send(k);
      if (k == 0) t += 8 * ms;
      return true;
    }
  } link;
  link.service = ms;
  std::vector<PacedSample> out;
  ASSERT_TRUE(run_paced(
      link, 0, 5 * ms, 2, 1, 1'000'000'000,
      [&](std::size_t k) { return link.send(k); },
      [&](std::int64_t deadline, auto&& on_reply) {
        return link.wait(deadline, on_reply);
      },
      out));
  ASSERT_EQ(out.size(), 2u);
  // Slot 1 was due at 5 ms but went out at 8 ms; its reply (9 ms) counts
  // from 5 ms.
  EXPECT_DOUBLE_EQ(out[1].late_ms, 3.0);
  EXPECT_DOUBLE_EQ(out[1].ack_ms, 4.0);
}

TEST(Pacer, OnlySyncSlotsAreTimed) {
  constexpr std::int64_t ms = 1'000'000;
  // Slots every 1 ms, a sync on every third (slots 2 and 5); replies to
  // other slots are ignored.
  FakeLink link;
  link.service = ms / 4;
  std::vector<PacedSample> out;
  ASSERT_TRUE(run_paced(
      link, 0, ms, 6, 3, 1'000'000'000,
      [&](std::size_t k) { return link.send(k); },
      [&](std::int64_t deadline, auto&& on_reply) {
        return link.wait(deadline, on_reply);
      },
      out));
  EXPECT_EQ(link.sends.size(), 6u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].ack_ms, 0.25);  // slot 2: due 2, replied 2.25
  EXPECT_DOUBLE_EQ(out[1].ack_ms, 0.25);  // slot 5: due 5, replied 5.25
  EXPECT_TRUE(is_sync_slot(2, 3));
  EXPECT_FALSE(is_sync_slot(3, 3));
}

TEST(Pacer, MissingReplyFailsAfterDrainTimeout) {
  FakeLink link;
  link.service = 1;
  link.stall = 2;
  link.stall_for = 2'000'000'000;  // beyond the 1 s drain allowance
  std::vector<PacedSample> out;
  EXPECT_FALSE(drive(link, 3, out));
  EXPECT_EQ(out.size(), 2u);
}

}  // namespace
}  // namespace perfbench
