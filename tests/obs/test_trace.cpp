#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace {

using namespace opalsim;
using obs::Cat;
using obs::Ph;

TEST(TraceSink, DisabledByDefaultAndEmissionIsANoOp) {
  EXPECT_FALSE(obs::enabled());
  EXPECT_EQ(obs::current(), nullptr);
  // Emitting without a sink must be safe (and is the hot-path default).
  obs::instant(Cat::kEngine, "pop", 1.0, -1);
  obs::span(Cat::kRpc, "call", 1.0, 2.0, 0);
}

TEST(TraceSink, NullSinkRecordsNothingButIsDefined) {
  obs::NullSink null;
  obs::ScopedSink scope(null);
  EXPECT_TRUE(obs::enabled());
  // Exercises the virtual dispatch under ASan: no allocation, no effect.
  for (int i = 0; i < 1000; ++i) {
    obs::instant(Cat::kPvm, "send", static_cast<double>(i), i % 4,
                 {"bytes", 128.0});
  }
}

TEST(TraceSink, ScopedSinkInstallsAndRestores) {
  obs::MemorySink outer;
  {
    obs::ScopedSink s1(outer);
    EXPECT_EQ(obs::current(), &outer);
    obs::MemorySink inner;
    {
      obs::ScopedSink s2(inner);
      EXPECT_EQ(obs::current(), &inner);
      obs::instant(Cat::kEngine, "pop", 1.0, -1);
    }
    EXPECT_EQ(obs::current(), &outer);
    EXPECT_EQ(inner.size(), 1u);
    EXPECT_EQ(outer.size(), 0u);
  }
  EXPECT_FALSE(obs::enabled());
}

TEST(MemorySink, AssignsSeqInRecordOrderAndSortsByTimeThenSeq) {
  obs::MemorySink sink;
  obs::ScopedSink scope(sink);
  obs::instant(Cat::kEngine, "b", 2.0, -1);
  obs::instant(Cat::kEngine, "a", 1.0, -1);
  obs::instant(Cat::kEngine, "c", 1.0, -1);  // same t: seq breaks the tie
  ASSERT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.events()[0].seq, 0u);
  EXPECT_EQ(sink.events()[2].seq, 2u);
  const auto sorted = sink.sorted_events();
  EXPECT_STREQ(sorted[0].name, "a");
  EXPECT_STREQ(sorted[1].name, "c");
  EXPECT_STREQ(sorted[2].name, "b");
}

TEST(MemorySink, SpanEmitsBalancedBeginEndWithArgsOnBegin) {
  obs::MemorySink sink;
  obs::ScopedSink scope(sink);
  obs::span(Cat::kRpc, "call", 1.0, 2.5, 0, {"round", 7.0});
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.events()[0].ph, Ph::kBegin);
  EXPECT_STREQ(sink.events()[0].a0.name, "round");
  EXPECT_EQ(sink.events()[1].ph, Ph::kEnd);
  EXPECT_EQ(sink.events()[1].a0.name, nullptr);
  EXPECT_DOUBLE_EQ(sink.events()[1].t, 2.5);
}

// Replays a realistic event mix and checks the Chrome JSON invariants the
// summarizer and Perfetto both rely on.
TEST(MemorySink, ChromeJsonSchemaAndNestingBalance) {
  obs::MemorySink sink;
  {
    obs::ScopedSink scope(sink);
    obs::instant(Cat::kEngine, "pop", 0.0, -1, {"eseq", 1.0});
    obs::span(Cat::kRpc, "sync", 0.0, 0.5, 0);
    obs::span(Cat::kRpc, "call", 0.5, 1.0, 0, {"round", 1.0});
    obs::span(Cat::kRpc, "compute", 1.0, 3.0, 1, {"round", 1.0});
    obs::instant(Cat::kFault, "drop", 2.0, 1, {"src", 0.0});
  }
  const std::string json = sink.to_chrome_json();

  // Every emitted event (8 = 1 + 2 + 2 + 2 + 1) plus M metadata rows; each
  // carries ph/ts/pid/name.
  auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + needle.size())) {
      ++n;
    }
    return n;
  };
  const std::size_t n_ph = count("\"ph\":");
  EXPECT_EQ(count("\"ts\":") + count("\"ph\":\"M\""), n_ph);
  EXPECT_EQ(count("\"pid\":"), n_ph);
  EXPECT_EQ(count("\"name\":"),
            n_ph + count("\"ph\":\"M\""));  // M rows name via args too
  EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
  // Instants carry scope "t"; args ride on B events only.
  EXPECT_EQ(count("\"s\":\"t\""), 2u);
  EXPECT_NE(json.find("\"round\":1"), std::string::npos);
  // One process per node (+ engine pid 0), named for Perfetto.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"engine\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"node 1\"}"), std::string::npos);

  // B/E balance per (pid, tid, name) track over the sorted event stream.
  std::map<std::string, int> open;
  for (const auto& e : sink.sorted_events()) {
    if (e.ph == Ph::kInstant) continue;
    const std::string key = std::to_string(e.node) + "/" +
                            obs::cat_name(e.cat) + "/" + e.name;
    open[key] += e.ph == Ph::kBegin ? 1 : -1;
    EXPECT_GE(open[key], 0) << key;
  }
  for (const auto& [key, depth] : open) EXPECT_EQ(depth, 0) << key;
}

TEST(MemorySink, DeterministicExportForIdenticalEventStreams) {
  auto emit = [] {
    obs::MemorySink sink;
    obs::ScopedSink scope(sink);
    for (int i = 0; i < 50; ++i) {
      obs::span(Cat::kRpc, "call", i * 0.25, i * 0.25 + 0.1, i % 3,
                {"round", static_cast<double>(i)});
    }
    return std::make_pair(sink.to_chrome_json(), sink.to_csv());
  };
  const auto a = emit();
  const auto b = emit();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(MemorySink, CsvEscapesNamesWithCommasAndQuotes) {
  obs::MemorySink sink;
  obs::ScopedSink scope(sink);
  obs::instant(Cat::kPhase, "weird,\"phase\"", 1.0, 0);
  const std::string csv = sink.to_csv();
  EXPECT_NE(csv.find("\"weird,\"\"phase\"\"\""), std::string::npos);
  // Round count survives: header + one row.
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 2);
}

TEST(MemorySinkGantt, SequentialSpansAndIdleCells) {
  obs::MemorySink sink;
  obs::ScopedSink scope(sink);
  obs::span(Cat::kRpc, "call", 0.0, 2.0, 0);
  obs::span(Cat::kRpc, "sync", 5.0, 7.0, 0);
  obs::span(Cat::kRpc, "compute", 2.0, 10.0, 1);
  EXPECT_EQ(sink.to_gantt(10),
            "timeline [0 s .. 10 s]\n"
            "node 0 |ccc..sss..|\n"
            "node 1 |..cccccccc|\n");
}

TEST(MemorySinkGantt, NestedSpanPaintsOverItsParent) {
  obs::MemorySink sink;
  obs::ScopedSink scope(sink);
  // Recorded inner-first, as the RPC layer records a recovery interval
  // before the compute window that contains it.
  obs::span(Cat::kRpc, "recovery", 4.0, 6.0, 0);
  obs::span(Cat::kRpc, "compute", 0.0, 10.0, 0);
  // The same, with the inner span starting together with its parent.
  obs::span(Cat::kRpc, "recovery", 0.0, 3.0, 1);
  obs::span(Cat::kRpc, "compute", 0.0, 10.0, 1);
  EXPECT_EQ(sink.to_gantt(10),
            "timeline [0 s .. 10 s]\n"
            "node 0 |ccccrrrccc|\n"
            "node 1 |rrrrcccccc|\n");
}

TEST(MemorySinkGantt, IgnoresNonRpcCategories) {
  obs::MemorySink sink;
  obs::ScopedSink scope(sink);
  obs::span(Cat::kRpc, "call", 0.0, 10.0, 0);
  obs::span(Cat::kPhase, "step", 0.0, 20.0, 0);  // must not widen the range
  obs::span(Cat::kPvm, "xfer", 1.0, 2.0, 3);     // must not add a row
  obs::instant(Cat::kEngine, "pop", 30.0, -1);
  obs::instant(Cat::kRpc, "note", 40.0, 4);      // not a span
  EXPECT_EQ(sink.to_gantt(5),
            "timeline [0 s .. 10 s]\n"
            "node 0 |ccccc|\n");
}

TEST(MemorySinkGantt, EmptySinkAndRpcFreeTrace) {
  obs::MemorySink sink;
  EXPECT_EQ(sink.to_gantt(), "(empty trace)\n");
  obs::ScopedSink scope(sink);
  obs::span(Cat::kPvm, "xfer", 1.0, 2.0, 0);
  EXPECT_EQ(sink.to_gantt(), "(empty trace)\n");
}

TEST(MemorySinkGantt, LabelsAlignAcrossNodeNumberWidths) {
  obs::MemorySink sink;
  obs::ScopedSink scope(sink);
  obs::span(Cat::kRpc, "call", 0.0, 1.0, 0);
  obs::span(Cat::kRpc, "return", 1.0, 2.0, 10);
  EXPECT_EQ(sink.to_gantt(4),
            "timeline [0 s .. 2 s]\n"
            "node 0  |ccc.|\n"
            "node 10 |..rr|\n");
}

TEST(TracePaths, UniqueOutputPathDisambiguatesRepeats) {
  // Distinct base paths (per-test-run uniqueness is process-global state).
  const std::string base = "/tmp/opalsim-ut-" +
                           std::to_string(::testing::UnitTest::GetInstance()
                                              ->random_seed()) +
                           "-trace.json";
  EXPECT_EQ(obs::unique_output_path(base), base);
  const std::string second = obs::unique_output_path(base);
  EXPECT_NE(second, base);
  EXPECT_NE(second.find(".2.json"), std::string::npos);
  // A path with no extension after its last slash gets the suffix appended.
  const std::string bare = "/tmp/opalsim-ut-noext-" +
                           std::to_string(::testing::UnitTest::GetInstance()
                                              ->random_seed());
  EXPECT_EQ(obs::unique_output_path(bare), bare);
  EXPECT_EQ(obs::unique_output_path(bare), bare + ".2");
}

TEST(TracePaths, EnvKnobsDefaultEmpty) {
  // The test runner does not set the knobs; the accessors must not throw.
  (void)obs::trace_path_from_env();
  (void)obs::metrics_path_from_env();
}

}  // namespace
