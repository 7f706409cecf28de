/// Tests for the telemetry core (src/telemetry/telemetry): span
/// nesting/ordering, deterministic per-thread merging, export shapes,
/// counter wrap-around, and the zero-allocation disabled path.

#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

// Binary-wide allocation counter for the zero-allocation test: the
// disabled instrumentation path (one relaxed atomic load) must never
// reach the heap. The replacements stay out of line: inlined into a
// caller, gcc pairs the malloc/free inside them with the new/delete at
// the call site and reports -Wmismatched-new-delete (seen under
// -fsanitize=thread at -O1/-O2).
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace wsmd::telemetry {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Telemetry, DisabledByDefaultAndAfterEndSession) {
  EXPECT_FALSE(enabled());
  begin_session();
  EXPECT_TRUE(enabled());
  end_session();
  EXPECT_FALSE(enabled());
}

TEST(Telemetry, SpanNestingDepthsAndCompletionOrder) {
  SessionConfig cfg;
  cfg.capture_trace = true;
  begin_session(cfg);
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner");
      { ScopedSpan leaf("leaf"); }
    }
    { ScopedSpan inner2("inner2"); }
  }
  end_session();

  const auto events = trace_events();
  ASSERT_EQ(events.size(), 4u);
  // Completion order: leaf closes first, outer last.
  EXPECT_EQ(events[0].name, "leaf");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].name, "inner2");
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_EQ(events[0].depth, 2);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 1);
  EXPECT_EQ(events[3].depth, 0);
  for (const auto& e : events) EXPECT_EQ(e.thread, "main");
  // The outer span encloses the inner ones.
  EXPECT_LE(events[3].start_ns, events[0].start_ns);
  EXPECT_GE(events[3].start_ns + events[3].duration_ns,
            events[1].start_ns + events[1].duration_ns);
}

TEST(Telemetry, SpanAggregatesSumCallsAndTime) {
  begin_session();
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span("agg.work");
  }
  add_span_time("agg.external", 1.5, 3);
  end_session();

  const auto stats = span_stats();
  ASSERT_EQ(stats.size(), 2u);  // sorted by name
  EXPECT_EQ(stats[0].name, "agg.external");
  EXPECT_EQ(stats[0].calls, 3u);
  EXPECT_DOUBLE_EQ(stats[0].total_seconds, 1.5);
  EXPECT_EQ(stats[1].name, "agg.work");
  EXPECT_EQ(stats[1].calls, 5u);
  EXPECT_GE(stats[1].total_seconds, 0.0);
  EXPECT_GE(stats[1].max_seconds, 0.0);
  EXPECT_DOUBLE_EQ(span_total_seconds("agg.external"), 1.5);
  EXPECT_DOUBLE_EQ(span_total_seconds("no.such.span"), 0.0);
}

TEST(Telemetry, PerThreadMergeIsDeterministic) {
  // Two runs with identical work on identically named threads must export
  // the same (thread, name, depth) event sequence regardless of actual
  // interleaving.
  const auto run = [] {
    SessionConfig cfg;
    cfg.capture_trace = true;
    begin_session(cfg);
    std::vector<std::thread> workers;
    for (int t = 2; t >= 0; --t) {  // reversed start order on purpose
      workers.emplace_back([t] {
        set_thread_name("worker" + std::to_string(t));
        for (int i = 0; i < 3; ++i) {
          ScopedSpan span("thread.work");
          count("thread.items");
        }
      });
    }
    for (auto& w : workers) w.join();
    { ScopedSpan span("main.work"); }
    end_session();
    std::vector<std::string> shape;
    for (const auto& e : trace_events()) {
      shape.push_back(e.thread + "/" + e.name + "/" +
                      std::to_string(e.depth));
    }
    return shape;
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 10u);
  // Threads merge sorted by name: main before worker0..worker2.
  EXPECT_EQ(first[0], "main/main.work/0");
  EXPECT_EQ(first[1], "worker0/thread.work/0");
  EXPECT_EQ(first[4], "worker1/thread.work/0");
  EXPECT_EQ(first[7], "worker2/thread.work/0");
}

TEST(Telemetry, CountersSumAcrossThreadsAndWrap) {
  begin_session();
  count("wrap", std::numeric_limits<std::uint64_t>::max());
  count("wrap", 2);  // wraps mod 2^64
  std::thread([] { count("wrap", 5); }).join();
  end_session();

  const auto c = counters();
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].first, "wrap");
  EXPECT_EQ(c[0].second, 6u);  // (2^64 - 1) + 2 + 5 mod 2^64
}

TEST(Telemetry, BeginSessionResetsPreviousData) {
  begin_session();
  count("stale");
  end_session();
  ASSERT_EQ(counters().size(), 1u);
  begin_session();
  end_session();
  EXPECT_TRUE(counters().empty());
  EXPECT_TRUE(span_stats().empty());
  EXPECT_TRUE(trace_events().empty());
}

TEST(Telemetry, EventCapDropsAndCounts) {
  SessionConfig cfg;
  cfg.capture_trace = true;
  cfg.max_events_per_thread = 4;
  begin_session(cfg);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("capped");
  }
  end_session();
  EXPECT_EQ(trace_events().size(), 4u);
  const auto c = counters();
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].first, "telemetry.dropped_events");
  EXPECT_EQ(c[0].second, 6u);
  // Aggregates still saw every call.
  const auto stats = span_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].calls, 10u);
}

TEST(Telemetry, TraceJsonShape) {
  SessionConfig cfg;
  cfg.capture_trace = true;
  begin_session(cfg);
  {
    ScopedSpan outer("json.outer");
    ScopedSpan inner("json.inner");
  }
  end_session();

  const std::string path =
      ::testing::TempDir() + "telemetry_trace_shape.json";
  write_trace_json(path);
  const std::string text = slurp(path);
  std::remove(path.c_str());
  EXPECT_NE(text.find("\"traceEvents\": ["), std::string::npos) << text;
  EXPECT_NE(text.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  // One M metadata event naming the main thread, then X complete events.
  EXPECT_NE(text.find("\"ph\": \"M\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"name\": \"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"name\": \"json.inner\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"json.outer\""), std::string::npos);
  // Balanced braces/brackets — cheap well-formedness check (CI runs the
  // real parser via python -m json.tool).
  long braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    if (ch == '"' && (i == 0 || text[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Telemetry, MetricsJsonlShape) {
  begin_session();
  { ScopedSpan span("jsonl.span"); }
  count("jsonl.counter", 7);
  end_session();

  const std::string path =
      ::testing::TempDir() + "telemetry_metrics_shape.jsonl";
  write_metrics_jsonl(path);
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 2u);  // spans first, then counters
  EXPECT_NE(lines[0].find("\"kind\": \"span\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\": \"jsonl.span\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"calls\": 1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"value\": 7"), std::string::npos);
}

TEST(Telemetry, DisabledPathDoesNotAllocate) {
  ASSERT_FALSE(enabled());
  // Warm any lazy thread-local state the enabled path may have left.
  {
    ScopedSpan warm("warm");
    count("warm");
  }
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan span("disabled.span");
    count("disabled.counter", 3);
    add_span_time("disabled.agg", 0.1);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before);
}

}  // namespace
}  // namespace wsmd::telemetry
