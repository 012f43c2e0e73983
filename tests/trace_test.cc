// Tests for the observability layer (DESIGN.md §9): TraceRecorder spans,
// sampling suppression, the Chrome trace / Prometheus exporters, and the
// ISSUE-4 acceptance criterion that recorded spans account for >= 95% of the
// wall clock inside every solve request served by a traced SolveService.
// The last test checks the spans one transient step records.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "gen/suite.h"
#include "runtime/runtime.h"
#include "support/expo.h"
#include "support/trace.h"
#include "transient/transient.h"

namespace spcg {
namespace {

std::string arg_value(const TraceEvent& e, const std::string& key) {
  for (const TraceArg& a : e.args)
    if (a.key == key) return a.value;
  return {};
}

TEST(Trace, DisabledRecorderRecordsNothing) {
  TraceRecorder rec;  // disabled by default
  EXPECT_FALSE(rec.enabled());
  {
    Span s(rec, "work", "test");
    EXPECT_FALSE(s.active());
    s.arg("k", std::int64_t{1});  // no-op on an inactive span
  }
  EXPECT_EQ(rec.events_recorded(), 0u);
  EXPECT_TRUE(rec.drain().empty());
}

TEST(Trace, SpanRecordsNameCategoryArgsAndNesting) {
  TraceRecorder rec(/*enabled=*/true);
  {
    Span outer(rec, "outer", "test");
    outer.arg("rows", std::int64_t{42});
    outer.arg("ratio", 0.5);
    outer.arg("hit", true);
    outer.arg("label", "a\"b");
    Span inner(rec, "inner", "test");
  }
  std::vector<TraceEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 2u);
  // drain() sorts by start time: outer began first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].category, "test");
  EXPECT_EQ(events[1].name, "inner");
  // The inner span nests inside the outer one on the same thread.
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].end_ns(), events[0].end_ns());
  // Args carry raw JSON fragments.
  EXPECT_EQ(arg_value(events[0], "rows"), "42");
  EXPECT_EQ(arg_value(events[0], "hit"), "true");
  EXPECT_EQ(arg_value(events[0], "label"), "\"a\\\"b\"");
  EXPECT_NE(arg_value(events[0], "ratio"), "");
  // drain() moved everything out; buffers keep working afterwards.
  EXPECT_TRUE(rec.drain().empty());
  { Span again(rec, "again", "test"); }
  EXPECT_EQ(rec.drain().size(), 1u);
}

TEST(Trace, ExplicitFinishIsIdempotentAndStopsTheClock) {
  TraceRecorder rec(/*enabled=*/true);
  Span s(rec, "short", "test");
  s.finish();
  s.finish();  // second finish must not double-record
  const std::vector<TraceEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "short");
}

TEST(Trace, SampleScopeSuppressesSpansAndNestsConservatively) {
  TraceRecorder rec(/*enabled=*/true);
  {
    const TraceSampleScope off(false);
    EXPECT_TRUE(trace_suppressed());
    Span s(rec, "hidden", "test");
    EXPECT_FALSE(s.active());
    {
      // An inner sampled scope must NOT undo the outer suppression: the
      // outer decision covers everything nested below it.
      const TraceSampleScope on(true);
      EXPECT_TRUE(trace_suppressed());
      Span s2(rec, "still_hidden", "test");
      EXPECT_FALSE(s2.active());
    }
  }
  EXPECT_FALSE(trace_suppressed());
  { Span s(rec, "visible", "test"); }
  const std::vector<TraceEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "visible");
}

TEST(Trace, ThreadsGetDistinctTidsAndClearRestartsEpoch) {
  TraceRecorder rec(/*enabled=*/true);
  constexpr int kThreads = 4;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&rec] { Span s(rec, "worker", "test"); });
  for (std::thread& t : pool) t.join();
  { Span s(rec, "main", "test"); }
  std::vector<TraceEvent> events = rec.drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) + 1);
  std::set<std::uint32_t> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads) + 1);

  rec.clear();
  EXPECT_EQ(rec.events_recorded(), 0u);
  { Span s(rec, "after_clear", "test"); }
  events = rec.drain();
  ASSERT_EQ(events.size(), 1u);
  // Fresh epoch: the new span starts near zero, not minutes in.
  EXPECT_LT(events[0].start_ns, 1'000'000'000u);
}

TEST(Trace, AggregatePhasesSumsPerCategoryAndName) {
  std::vector<TraceEvent> events;
  events.push_back({"spmv", "solve", 0, 100, 0, {}});
  events.push_back({"spmv", "solve", 200, 50, 1, {}});
  events.push_back({"factorize", "setup", 10, 1000, 0, {}});
  const std::vector<PhaseTotal> phases = aggregate_phases(events);
  ASSERT_EQ(phases.size(), 2u);  // sorted by (category, name)
  EXPECT_EQ(phases[0].category, "setup");
  EXPECT_EQ(phases[0].name, "factorize");
  EXPECT_EQ(phases[0].count, 1u);
  EXPECT_EQ(phases[0].total_ns, 1000u);
  EXPECT_EQ(phases[1].category, "solve");
  EXPECT_EQ(phases[1].count, 2u);
  EXPECT_EQ(phases[1].total_ns, 150u);
}

TEST(Trace, JsonValidatorAcceptsAndRejects) {
  EXPECT_TRUE(is_valid_json("{}"));
  EXPECT_TRUE(is_valid_json("[1, 2.5e-3, \"x\", null, true, {\"a\":[]}]"));
  EXPECT_TRUE(is_valid_json("\"lone \\u00b5 string\""));
  EXPECT_FALSE(is_valid_json(""));
  EXPECT_FALSE(is_valid_json("{"));
  EXPECT_FALSE(is_valid_json("{\"a\":1,}"));
  EXPECT_FALSE(is_valid_json("[1] trailing"));
  EXPECT_FALSE(is_valid_json("{'single':1}"));
  EXPECT_FALSE(is_valid_json("[01]"));
}

TEST(Trace, ChromeExportIsValidJsonWithMicrosecondTimestamps) {
  TraceRecorder rec(/*enabled=*/true);
  {
    Span s(rec, "phase \"x\"", "cat");
    s.arg("k", std::int64_t{3});
  }
  const std::vector<TraceEvent> events = rec.drain();
  const std::string doc = chrome_trace_json(events);
  EXPECT_TRUE(is_valid_json(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("phase \\\"x\\\""), std::string::npos);
  EXPECT_NE(doc.find("\"k\":3"), std::string::npos);
  // Empty traces still produce a loadable document.
  EXPECT_TRUE(is_valid_json(chrome_trace_json({})));
}

TEST(Trace, PrometheusExportSanitizesNamesAndRendersPhases) {
  std::vector<CounterSample> samples;
  samples.push_back({"setup_cache.hits", 7});
  samples.push_back({"weird-name!", 1});
  std::vector<TraceEvent> events;
  events.push_back({"spmv", "solve", 0, 2'000'000'000, 0, {}});
  const std::string text =
      prometheus_text(samples, aggregate_phases(events));
  EXPECT_NE(text.find("spcg_setup_cache_hits 7"), std::string::npos) << text;
  EXPECT_NE(text.find("spcg_weird_name_ 1"), std::string::npos);
  EXPECT_NE(text.find("spcg_phase_seconds_total{category=\"solve\","
                      "phase=\"spmv\"} 2.0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("spcg_phase_count_total{category=\"solve\","
                      "phase=\"spmv\"} 1"),
            std::string::npos);
  // Exposition ends with a newline (required by the text format).
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

/// Fraction of `parent`'s duration covered by the union of same-thread
/// events fully contained in it (the parent itself excluded).
double child_coverage(const TraceEvent& parent,
                      const std::vector<TraceEvent>& events) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (const TraceEvent& e : events) {
    if (&e == &parent || e.tid != parent.tid) continue;
    if (e.start_ns < parent.start_ns || e.end_ns() > parent.end_ns())
      continue;
    intervals.emplace_back(e.start_ns, e.end_ns());
  }
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0, cursor = parent.start_ns;
  for (const auto& [lo, hi] : intervals) {
    const std::uint64_t from = std::max(cursor, lo);
    if (hi > from) covered += hi - from;
    cursor = std::max(cursor, hi);
  }
  return parent.duration_ns == 0
             ? 1.0
             : static_cast<double>(covered) /
                   static_cast<double>(parent.duration_ns);
}

/// Events named `name` on `within`'s thread and inside its interval; every
/// such event when `within` is null.
std::ptrdiff_t count_within(const std::vector<TraceEvent>& events,
                            const std::string& name,
                            const TraceEvent* within) {
  return std::count_if(events.begin(), events.end(), [&](const TraceEvent& e) {
    return e.name == name &&
           (within == nullptr ||
            (e.tid == within->tid && e.start_ns >= within->start_ns &&
             e.end_ns() <= within->end_ns()));
  });
}

// ISSUE-4 acceptance: replay requests through a traced SolveService and
// require the recorded child spans (fingerprint, cache lookup, pcg and its
// nested phases) to cover >= 95% of each request's execute span.
TEST(Trace, ServiceExecuteSpansAreCoveredByChildSpans) {
  global_trace().clear();
  global_trace().set_enabled(true);

  // Matrices big enough that a request's wall clock dwarfs the untraced
  // bookkeeping between spans (suite ids with multi-millisecond solves).
  std::vector<std::shared_ptr<const Csr<double>>> matrices;
  for (const index_t id : {index_t{23}, index_t{41}})
    matrices.push_back(std::make_shared<const Csr<double>>(
        generate_suite_matrix(id).a));

  SpcgOptions opt;
  opt.pcg.tolerance = 1e-10;
  opt.pcg.trace_every = 1;  // sample every iteration
  {
    SolveService<double> service({2, 8});
    std::vector<SolveService<double>::Ticket> tickets;
    for (int i = 0; i < 8; ++i) {
      ServiceRequest<double> req;
      req.a = matrices[static_cast<std::size_t>(i) % matrices.size()];
      req.b = make_rhs(*req.a, static_cast<std::uint64_t>(i) + 1);
      req.options = opt;
      tickets.push_back(service.submit(std::move(req)));
    }
    for (auto& t : tickets)
      ASSERT_EQ(t.reply.get().status, RequestStatus::kOk);
  }

  const std::vector<TraceEvent> events = global_trace().drain();
  global_trace().set_enabled(false);

  int executes = 0;
  for (const TraceEvent& e : events) {
    if (e.name != "execute") continue;
    ++executes;
    const double coverage = child_coverage(e, events);
    EXPECT_GE(coverage, 0.95)
        << "request " << arg_value(e, "id") << " on tid " << e.tid
        << " only covered " << coverage << " of " << e.duration_ns << " ns";
    // Every request shows its fingerprint -> setup_cache.lookup step, hit
    // or miss, and hashes its matrix once.
    EXPECT_EQ(count_within(events, "fingerprint", &e), 1)
        << "request " << arg_value(e, "id");
    EXPECT_EQ(count_within(events, "setup_cache.lookup", &e), 1)
        << "request " << arg_value(e, "id");
  }
  EXPECT_EQ(executes, 8);
}

// An autotuned request on a warm tune DB hashes its matrix once: the tuner's
// DB lookup and the session that runs the winner share one fingerprint.
TEST(Trace, AutotunedRequestHashesItsMatrixOnce) {
  const auto a = std::make_shared<const Csr<double>>(gen_poisson2d(16, 16));
  SolveService<double>::Options sopt;
  sopt.workers = 1;
  sopt.tuner.base.pcg.tolerance = 1e-10;
  sopt.tuner.measure_top = 4;
  std::vector<TraceEvent> events;
  {
    SolveService<double> service(sopt);
    const auto solve = [&] {
      ServiceRequest<double> req;
      req.a = a;
      req.b = make_rhs(*a, 1);
      req.options.pcg.tolerance = 1e-10;
      req.autotune = true;
      return service.submit(std::move(req)).reply.get();
    };
    ASSERT_EQ(solve().status, RequestStatus::kOk);  // tunes, fills the DB

    global_trace().clear();
    global_trace().set_enabled(true);
    const ServiceReply<double> warm = solve();
    global_trace().set_enabled(false);
    ASSERT_EQ(warm.status, RequestStatus::kOk);
    EXPECT_TRUE(warm.tune_db_hit);
    events = global_trace().drain();
  }
  int executes = 0;
  for (const TraceEvent& e : events) {
    if (e.name != "execute") continue;
    ++executes;
    EXPECT_EQ(count_within(events, "fingerprint", &e), 1);
  }
  EXPECT_EQ(executes, 1);
}

// A transient step's values-only refresh and warm-start projection each get
// a span inside that step, and every matrix hash gets a fingerprint span.
TEST(Trace, TransientStepTracesRefreshWarmStartAndFingerprints) {
  SpcgOptions opt;
  opt.pcg.tolerance = 1e-10;
  Csr<double> a = gen_varcoef2d(16, 16, 1.5, 7);
  const std::vector<double> b = make_rhs(a, 1);

  global_trace().clear();
  global_trace().set_enabled(true);
  {
    TransientSession<double> session(a, TransientOptions{opt, {}, true});
    session.step(b);  // cold: full build, no previous solution
    for (double& v : a.values) v *= 1.01;
    session.update_matrix(a);  // values-only change
    session.step(b);           // refresh + warm start
  }
  const std::vector<TraceEvent> events = global_trace().drain();
  global_trace().set_enabled(false);

  std::vector<const TraceEvent*> steps;
  for (const TraceEvent& e : events)
    if (e.name == "transient.step") steps.push_back(&e);
  ASSERT_EQ(steps.size(), 2u);
  auto count = [&](const std::string& name, const TraceEvent* within) {
    return count_within(events, name, within);
  };
  EXPECT_EQ(count("refactorize", nullptr), 1);
  EXPECT_EQ(count("refactorize", steps[1]), 1);
  EXPECT_EQ(count("warm_start", nullptr), 1);
  EXPECT_EQ(count("warm_start", steps[1]), 1);
  EXPECT_EQ(count("fingerprint", nullptr), 2);  // construction + update
}

}  // namespace
}  // namespace spcg
