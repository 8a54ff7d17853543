// Unit tests for the observability-plane JSON parser and the pure parts
// of ClusterInspector: kStats document parsing and Chrome-trace merging.
#include "obs/json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/event_log.h"
#include "common/trace.h"
#include "obs/cluster_inspector.h"

namespace hdmap {
namespace {

TEST(ObsJsonTest, ParsesScalars) {
  auto parsed = ParseJson("  {\"a\":1.5,\"b\":\"x\",\"c\":true,\"d\":null,"
                          "\"e\":false,\"f\":-7}  ");
  ASSERT_TRUE(parsed.ok());
  const JsonValue& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.GetNumber("a"), 1.5);
  EXPECT_EQ(doc.GetString("b"), "x");
  ASSERT_NE(doc.Find("c"), nullptr);
  EXPECT_TRUE(doc.Find("c")->bool_value);
  EXPECT_TRUE(doc.Find("d")->is_null());
  EXPECT_FALSE(doc.Find("e")->bool_value);
  EXPECT_EQ(doc.GetI64("f"), -7);
}

TEST(ObsJsonTest, ParsesNestedArraysAndObjects) {
  auto parsed = ParseJson("{\"rows\":[{\"id\":1},{\"id\":2},[3,4],[]]}");
  ASSERT_TRUE(parsed.ok());
  const JsonValue* rows = parsed->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 4u);
  EXPECT_EQ(rows->array[0].GetI64("id"), 1);
  EXPECT_EQ(rows->array[1].GetI64("id"), 2);
  ASSERT_EQ(rows->array[2].array.size(), 2u);
  EXPECT_DOUBLE_EQ(rows->array[2].array[1].number_value, 4.0);
  EXPECT_TRUE(rows->array[3].array.empty());
}

TEST(ObsJsonTest, DecodesStringEscapes) {
  auto parsed = ParseJson("{\"s\":\"a\\\"b\\\\c\\nd\\t\\u0041\\u0007\"}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("s"), "a\"b\\c\nd\tA\x07");
}

TEST(ObsJsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
}

TEST(ObsJsonTest, RejectsPathologicalNesting) {
  std::string deep(256, '[');
  deep += std::string(256, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(ObsJsonTest, TypedAccessorsFallBackOnShapeMismatch) {
  auto parsed = ParseJson("{\"s\":\"text\",\"n\":3}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetNumber("s", -1.0), -1.0);   // wrong kind
  EXPECT_EQ(parsed->GetString("n", "dflt"), "dflt");
  EXPECT_EQ(parsed->GetU64("missing", 9), 9u);     // absent key
  EXPECT_EQ(parsed->array.size(), 0u);
}

TEST(ObsJsonTest, ParseNodeStatsReadsFullDocument) {
  // A hand-built kStats document in the exact wire shape BuildStatsPayload
  // emits (including the string-typed trace_id).
  std::string doc =
      "{\"node\":{\"label\":\"node-2\",\"health\":\"SERVING\","
      "\"version\":12,\"unix_ms\":1754700000123},"
      "\"replication\":{\"node_id\":2,\"role\":\"LEADER\",\"term\":4,"
      "\"applied_seq\":40,\"last_publish_seq\":40,\"log_start_seq\":1,"
      "\"log_end_seq\":40,\"ms_since_leader_contact\":3.5,"
      "\"followers\":[{\"node_id\":0,\"acked_seq\":40,\"lag_records\":0,"
      "\"lag_ms\":0.0},{\"node_id\":1,\"acked_seq\":37,\"lag_records\":3,"
      "\"lag_ms\":18.2}]},"
      "\"events\":[{\"seq\":5,\"unix_ms\":1754700000100,"
      "\"type\":\"FAILOVER_COMPLETE\",\"code\":\"OK\","
      "\"trace_id\":\"18446744073709551615\",\"detail\":\"node 2 is leader\"}],"
      "\"metrics\":{\"counters\":[],\"gauges\":[],\"histograms\":[]}}\n";
  auto stats = ClusterInspector::ParseNodeStats(2, doc);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->reachable);
  EXPECT_EQ(stats->label, "node-2");
  EXPECT_EQ(stats->health, "SERVING");
  EXPECT_EQ(stats->version, 12u);
  EXPECT_EQ(stats->role, "LEADER");
  EXPECT_EQ(stats->term, 4u);
  EXPECT_EQ(stats->applied_seq, 40u);
  ASSERT_EQ(stats->followers.size(), 2u);
  EXPECT_EQ(stats->followers[1].node_id, 1);
  EXPECT_EQ(stats->followers[1].lag_records, 3u);
  EXPECT_DOUBLE_EQ(stats->followers[1].lag_ms, 18.2);
  ASSERT_EQ(stats->events.size(), 1u);
  EXPECT_EQ(stats->events[0].type, EventLog::Type::kFailoverComplete);
  // 64-bit trace ids survive the string encoding exactly.
  EXPECT_EQ(stats->events[0].trace_id, 18446744073709551615ull);
}

TEST(ObsJsonTest, ParseNodeStatsSkipsUnknownEventTypes) {
  std::string doc =
      "{\"node\":{\"label\":\"n\",\"health\":\"SERVING\",\"version\":1,"
      "\"unix_ms\":1},\"replication\":null,"
      "\"events\":[{\"seq\":1,\"unix_ms\":1,\"type\":\"FROM_THE_FUTURE\","
      "\"code\":\"OK\",\"trace_id\":\"0\",\"detail\":\"\"},"
      "{\"seq\":2,\"unix_ms\":2,\"type\":\"SLOW_REQUEST\",\"code\":\"OK\","
      "\"trace_id\":\"7\",\"detail\":\"d\"}],"
      "\"metrics\":{}}";
  auto stats = ClusterInspector::ParseNodeStats(0, doc);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->role.empty());  // replication: null
  ASSERT_EQ(stats->events.size(), 1u);
  EXPECT_EQ(stats->events[0].type, EventLog::Type::kSlowRequest);
}

TEST(ObsJsonTest, ParseNodeStatsRejectsGarbage) {
  EXPECT_FALSE(ClusterInspector::ParseNodeStats(0, "not json").ok());
  EXPECT_FALSE(ClusterInspector::ParseNodeStats(0, "[1,2,3]").ok());
}

TEST(ObsJsonTest, MergeChromeTraceJsonSplicesProcesses) {
  std::string a =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"client\"}},\n"
      "{\"name\":\"net_client.call\",\"ph\":\"X\",\"ts\":1.0,\"dur\":2.0,"
      "\"pid\":1,\"tid\":1,\"args\":{\"trace_id\":\"9\"}}\n]}\n";
  std::string b =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
      "\"args\":{\"name\":\"node-0\"}},\n"
      "{\"name\":\"net.request\",\"ph\":\"X\",\"ts\":1.2,\"dur\":1.5,"
      "\"pid\":2,\"tid\":4,\"args\":{\"trace_id\":\"9\"}}\n]}\n";
  std::string merged = ClusterInspector::MergeChromeTraceJson({a, b});

  // The merged document is itself valid JSON with every event present.
  auto parsed = ParseJson(merged);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 4u);
  // Both process tracks and both halves of the cross-process trace made
  // it through with their pids intact.
  EXPECT_EQ(events->array[0].GetString("name"), "process_name");
  EXPECT_EQ(events->array[2].GetU64("pid"), 2u);
  EXPECT_EQ(events->array[3].GetString("name"), "net.request");
}

TEST(ObsJsonTest, MergeChromeTraceJsonSkipsNonTraceInput) {
  std::string good =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"x\",\"ph\":\"X\",\"ts\":1,\"dur\":1,\"pid\":1,\"tid\":1}"
      "\n]}\n";
  std::string merged =
      ClusterInspector::MergeChromeTraceJson({"garbage", good, ""});
  auto parsed = ParseJson(merged);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("traceEvents")->array.size(), 1u);
}

TEST(ObsJsonTest, ChromeTraceProcessLabelRoundTrips) {
  const std::string label = "n\"1\\x";
  TraceRecorder::Options options;
  options.enabled = true;
  TraceRecorder recorder(options);
  { TraceSpan span("net.request", TraceSpan::kRoot, &recorder); }
  auto parsed = ParseJson(recorder.ExportChromeTraceJson(3, label));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_EQ(events->array[0].GetString("name"), "process_name");
  const JsonValue* args = events->array[0].Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->GetString("name"), label);
  EXPECT_EQ(events->array[1].GetString("name"), "net.request");
}

}  // namespace
}  // namespace hdmap
