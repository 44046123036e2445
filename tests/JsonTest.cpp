//===- JsonTest.cpp - the JSON writer and its golden outputs --------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Two halves. The writer round-trips through the project's own parser
// (every control byte, quote and backslash escaped; high-bit bytes passed
// through; nested and empty containers; int64 extremes; fixed-precision
// doubles). The golden half pins the exact bytes of the serve replies,
// lint diagnostics, flight-recorder digests and dump, and Prometheus
// families for fixed inputs: clients and scripts match on these bytes.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "obs/FlightRecorder.h"
#include "obs/JsonCheck.h"
#include "obs/JsonWriter.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "serve/Protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

using namespace ltp;

namespace {

//===----------------------------------------------------------------------===//
// Writer round trips
//===----------------------------------------------------------------------===//

std::unique_ptr<obs::JsonValue> parseOrFail(const std::string &Text) {
  std::string Error;
  std::unique_ptr<obs::JsonValue> Doc = obs::parseJson(Text, &Error);
  EXPECT_TRUE(Doc) << Error << "\n" << Text;
  return Doc;
}

TEST(JsonWriter, EscapesEveryControlByteQuoteAndBackslash) {
  std::string Nasty;
  for (int C = 0; C != 0x20; ++C)
    Nasty += static_cast<char>(C);
  Nasty += "\"\\/end";

  obs::JsonWriter W;
  W.beginObject().key(Nasty).string(Nasty).endObject();
  for (char C : W.str())
    EXPECT_GE(static_cast<unsigned char>(C), 0x20u) << "raw control byte";

  std::unique_ptr<obs::JsonValue> Doc = parseOrFail(W.str());
  ASSERT_TRUE(Doc && Doc->isObject());
  const obs::JsonValue *V = Doc->find(Nasty);
  ASSERT_TRUE(V && V->isString()) << W.str();
  EXPECT_EQ(V->StringValue, Nasty);
  EXPECT_EQ(obs::jsonEscape("a\"b\\c\nd\te\rf\x01"),
            "a\\\"b\\\\c\\nd\\te\\rf\\u0001");
}

TEST(JsonWriter, PassesHighBitBytesThrough) {
  const std::string Utf8 = "caf\xc3\xa9 \xe2\x9c\x93 \xff\x80";
  obs::JsonWriter W;
  W.beginArray().string(Utf8).endArray();
  EXPECT_EQ(W.str(), "[\"" + Utf8 + "\"]");
  std::unique_ptr<obs::JsonValue> Doc = parseOrFail(W.str());
  ASSERT_TRUE(Doc && Doc->isArray() && Doc->Elements.size() == 1);
  EXPECT_EQ(Doc->Elements[0].StringValue, Utf8);
}

TEST(JsonWriter, NestsAndEmptyContainers) {
  obs::JsonWriter W;
  W.beginObject();
  W.key("empty_object").beginObject().endObject();
  W.key("empty_array").beginArray().endArray();
  W.key("mixed").beginArray();
  W.beginArray().endArray().beginObject().endObject();
  W.beginArray().integer(1).beginArray().boolean(false).endArray().endArray();
  W.endArray();
  W.key("deep").beginObject().key("a").beginObject().key("b");
  W.raw("{\"pre\": [1, 2]}").endObject().endObject();
  W.endObject();
  EXPECT_EQ(W.str(),
            R"json({"empty_object": {}, "empty_array": [], "mixed": [[], )json"
            R"json({}, )json"
            R"json([1, [false]]], "deep": {"a": {"b": {"pre": [1, 2]}}}})json");

  std::unique_ptr<obs::JsonValue> Doc = parseOrFail(W.str());
  ASSERT_TRUE(Doc);
  EXPECT_TRUE(Doc->find("empty_object")->Members.empty());
  EXPECT_TRUE(Doc->find("empty_array")->Elements.empty());
  ASSERT_EQ(Doc->find("mixed")->Elements.size(), 3u);
  const obs::JsonValue *Pre =
      Doc->find("deep")->find("a")->find("b")->find("pre");
  ASSERT_TRUE(Pre && Pre->isArray());
  EXPECT_EQ(Pre->Elements.size(), 2u);
}

TEST(JsonWriter, WritesInt64Extremes) {
  obs::JsonWriter W;
  W.beginArray()
      .integer(std::numeric_limits<int64_t>::min())
      .integer(std::numeric_limits<int64_t>::max())
      .integer(0)
      .integer(-1)
      .endArray();
  EXPECT_EQ(W.str(),
            "[-9223372036854775808, 9223372036854775807, 0, -1]");
  std::unique_ptr<obs::JsonValue> Doc = parseOrFail(W.str());
  ASSERT_TRUE(Doc && Doc->Elements.size() == 4);
  EXPECT_DOUBLE_EQ(Doc->Elements[0].NumberValue, -9223372036854775808.0);
  EXPECT_DOUBLE_EQ(Doc->Elements[1].NumberValue, 9223372036854775807.0);
}

TEST(JsonWriter, WritesDoublesAtTheGivenPrecision) {
  obs::JsonWriter W;
  W.beginArray()
      .fixed(1.23456, 4)
      .fixed(0.0, 4)
      .fixed(-2.25, 1)
      .fixed(612.03125, 3)
      .general(6.5, 9)
      .general(0.000123456789, 6)
      .fixed(1e300, 2)
      .endArray();
  std::unique_ptr<obs::JsonValue> Doc = parseOrFail(W.str());
  ASSERT_TRUE(Doc && Doc->Elements.size() == 7);
  const std::string Prefix =
      "[1.2346, 0.0000, -2.2, 612.031, 6.5, 0.000123457, 1";
  EXPECT_EQ(W.str().rfind(Prefix, 0), 0u) << W.str();
  EXPECT_DOUBLE_EQ(Doc->Elements[0].NumberValue, 1.2346);
  EXPECT_DOUBLE_EQ(Doc->Elements[6].NumberValue, 1e300);
}

//===----------------------------------------------------------------------===//
// Golden bytes
//===----------------------------------------------------------------------===//

lint::Diagnostic diagnosticWithFixIt() {
  lint::Diagnostic D;
  D.RuleId = "strided-innermost";
  D.Sev = analysis::Severity::Error;
  D.Offset = 0;
  D.Length = 16;
  D.Message = "innermost loop 'k' strides \"B\" by 384\\";
  D.HasFixIt = true;
  D.Fix.Offset = 0;
  D.Fix.Length = 16;
  D.Fix.Replacement = "reorder(k, i, j);";
  return D;
}

lint::Diagnostic diagnosticWithoutFixIt() {
  lint::Diagnostic D;
  D.RuleId = "dead-directive";
  D.Sev = analysis::Severity::Warning;
  D.Offset = 17;
  D.Length = 11;
  D.Message = "unroll of extent-1 loop";
  return D;
}

TEST(JsonGolden, ProtocolReplies) {
  serve::Response Ok;
  Ok.Ok = true;
  Ok.Id = "client-7";
  Ok.RequestId = "r-42-9";
  Ok.Kernel = "matmul";
  Ok.Class = "temporal";
  Ok.Schedule = "split(i, i_t, i_i, 32); parallel(i_t);";
  Ok.Description = "temporal: tile 32 \"quoted\" +NTI";
  Ok.Dedup = serve::DedupOutcome::Cached;
  Ok.KeyHash = "0123456789abcdef";
  Ok.OptMillis = 1.23456;
  EXPECT_EQ(serve::renderResponse(Ok),
            R"json({"ok": true, "id": "client-7", "request_id": "r-42-9", )json"
            R"json("kernel": "matmul", "class": "temporal", )json"
            R"json("schedule": "split(i, i_t, i_i, 32); parallel(i_t);", )json"
            R"json("description": "temporal: tile 32 \"quoted\" +NTI", )json"
            R"json("dedup": "cached", "key": "0123456789abcdef", )json"
            R"json("opt_ms": 1.2346, "compile_ms": 0.0000})json");

  serve::Response Bad;
  Bad.Kind = serve::ErrorKind::BadRequest;
  Bad.RequestId = "r-42-10";
  Bad.Error = "malformed request JSON: \"x\"\n\tat 3";
  EXPECT_EQ(serve::renderResponse(Bad),
            R"json({"ok": false, "request_id": "r-42-10", )json"
            R"json("kind": "bad_request", )json"
            R"json("error": "malformed request JSON: \"x\"\n\tat 3"})json");

  serve::Response Illegal;
  Illegal.Kind = serve::ErrorKind::IllegalSchedule;
  Illegal.RequestId = "r-42-11";
  Illegal.Error = "parallel(k) races on C";
  Illegal.Kernel = "matmul";
  Illegal.KeyHash = "fedcba9876543210";
  Illegal.OptMillis = 0.5;
  EXPECT_EQ(serve::renderResponse(Illegal),
            R"json({"ok": false, "request_id": "r-42-11", )json"
            R"json("kind": "illegal_schedule", )json"
            R"json("error": "parallel(k) races on C", "kernel": "matmul", )json"
            R"json("dedup": "miss", "key": "fedcba9876543210", )json"
            R"json("opt_ms": 0.5000, )json"
            R"json("compile_ms": 0.0000})json");

  serve::Response Lint;
  Lint.Ok = true;
  Lint.RequestId = "r-42-12";
  Lint.Kernel = "matmul";
  Lint.Class = "temporal";
  Lint.Schedule = "reorder(i, j, k);";
  Lint.LintRan = true;
  Lint.DiagnosticsJson = {lint::diagnosticJson(diagnosticWithFixIt(), 0),
                          lint::diagnosticJson(diagnosticWithoutFixIt(), 0)};
  Lint.KeyHash = "00000000000000ff";
  Lint.OptMillis = 2.0;
  EXPECT_EQ(serve::renderResponse(Lint),
            R"json({"ok": true, "request_id": "r-42-12", )json"
            R"json("kernel": "matmul", )json"
            R"json("class": "temporal", "schedule": "reorder(i, j, k);", )json"
            R"json("diagnostics": [{"stage": 0, )json"
            R"json("rule": "strided-innermost", )json"
            R"json("severity": "error", "offset": 0, "length": 16, )json"
            R"json("message": "innermost loop 'k' strides \"B\" by 384\\", )json"
            R"json("fixit": {"offset": 0, "length": 16, )json"
            R"json("replacement": "reorder(k, i, j);"}}, {"stage": 0, )json"
            R"json("rule": "dead-directive", "severity": "warning", )json"
            R"json("offset": 17, "length": 11, )json"
            R"json("message": "unroll of extent-1 loop"}], )json"
            R"json("dedup": "miss", )json"
            R"json("key": "00000000000000ff", "opt_ms": 2.0000, )json"
            R"json("compile_ms": 0.0000})json");

  serve::Response Clean = Lint;
  Clean.DiagnosticsJson.clear();
  Clean.Dedup = serve::DedupOutcome::Inflight;
  EXPECT_EQ(serve::renderResponse(Clean),
            R"json({"ok": true, "request_id": "r-42-12", )json"
            R"json("kernel": "matmul", )json"
            R"json("class": "temporal", "schedule": "reorder(i, j, k);", )json"
            R"json("diagnostics": [], "dedup": "inflight", )json"
            R"json("key": "00000000000000ff", "opt_ms": 2.0000, )json"
            R"json("compile_ms": 0.0000})json");

  serve::Response Compile;
  Compile.Ok = true;
  Compile.RequestId = "r-42-13";
  Compile.Kernel = "conv";
  Compile.Class = "spatial";
  Compile.Schedule = "vectorize(x);";
  Compile.Description = "spatial";
  Compile.SoPaths = {"/cache/k/ab12.so", "/cache/k/cd34.so"};
  Compile.KeyHash = "1111222233334444";
  Compile.OptMillis = 0.25;
  Compile.CompileMillis = 612.03125;
  EXPECT_EQ(serve::renderResponse(Compile),
            R"json({"ok": true, "request_id": "r-42-13", )json"
            R"json("kernel": "conv", )json"
            R"json("class": "spatial", "schedule": "vectorize(x);", )json"
            R"json("description": "spatial", "so": ["/cache/k/ab12.so", )json"
            R"json("/cache/k/cd34.so"], "dedup": "miss", )json"
            R"json("key": "1111222233334444", "opt_ms": 0.2500, )json"
            R"json("compile_ms": 612.0312})json");
}

TEST(JsonGolden, LintDiagnostics) {
  EXPECT_EQ(lint::diagnosticJson(diagnosticWithFixIt(), 0),
            R"json({"stage": 0, "rule": "strided-innermost", )json"
            R"json("severity": "error", "offset": 0, "length": 16, )json"
            R"json("message": "innermost loop 'k' strides \"B\" by 384\\", )json"
            R"json("fixit": {"offset": 0, "length": 16, )json"
            R"json("replacement": "reorder(k, i, j);"}})json");
  EXPECT_EQ(lint::diagnosticJson(diagnosticWithoutFixIt(), 2),
            R"json({"stage": 2, "rule": "dead-directive", )json"
            R"json("severity": "warning", )json"
            R"json("offset": 17, "length": 11, )json"
            R"json("message": "unroll of extent-1 loop"})json");
}

TEST(JsonGolden, FlightDigestsAndDump) {
  obs::RequestDigest Full;
  Full.RequestId = "r-42-13";
  Full.Op = "optimize";
  Full.Kernel = "conv";
  Full.KeyHash = "1111222233334444";
  Full.Dedup = "miss";
  Full.Error = "cc failed:\n\"x.c\":1";
  Full.SoPath = "/cache/k/ab12.so";
  Full.TotalMillis = 700.123456;
  Full.OptMillis = 0.25;
  Full.CompileMillis = 612.03125;
  Full.UnixMillis = 1733829000123;
  Full.StageMillis = {{"opt.stage0", 0.25}, {"compile", 612.03125}};
  obs::RequestDigest Minimal;
  Minimal.RequestId = "r-1-1";
  Minimal.Op = "ping";
  Minimal.Ok = true;
  EXPECT_EQ(obs::digestJson(Full),
            R"json({"request_id": "r-42-13", "op": "optimize", )json"
            R"json("kernel": "conv", )json"
            R"json("key": "1111222233334444", "dedup": "miss", )json"
            R"json("ok": false, )json"
            R"json("error": "cc failed:\n\"x.c\":1", )json"
            R"json("so": "/cache/k/ab12.so", )json"
            R"json("unix_ms": 1733829000123, "total_ms": 700.1235, )json"
            R"json("opt_ms": 0.2500, "compile_ms": 612.0312, )json"
            R"json("stages": {"opt.stage0": 0.2500, "compile": 612.0312}})json");
  EXPECT_EQ(obs::digestJson(Minimal),
            R"json({"request_id": "r-1-1", "op": "ping", "ok": true, )json"
            R"json("unix_ms": 0, "total_ms": 0.0000})json");

  obs::FlightRecorder Ring(2);
  Ring.record(Minimal);
  Ring.record(Full);
  Ring.record(Minimal);
  EXPECT_EQ(Ring.dumpJson(),
            R"json({"flight_recorder": [{"request_id": "r-42-13", )json"
            R"json("op": "optimize", "kernel": "conv", )json"
            R"json("key": "1111222233334444", "dedup": "miss", )json"
            R"json("ok": false, )json"
            R"json("error": "cc failed:\n\"x.c\":1", )json"
            R"json("so": "/cache/k/ab12.so", )json"
            R"json("unix_ms": 1733829000123, "total_ms": 700.1235, )json"
            R"json("opt_ms": 0.2500, "compile_ms": 612.0312, )json"
            R"json("stages": {"opt.stage0": 0.2500, )json"
            R"json("compile": 612.0312}}, )json"
            R"json({"request_id": "r-1-1", "op": "ping", "ok": true, )json"
            R"json("unix_ms": 0, "total_ms": 0.0000}], "capacity": 2, )json"
            R"json("recorded": 3})json");
  EXPECT_EQ(obs::FlightRecorder(5).dumpJson(),
            R"json({"flight_recorder": [], "capacity": 5, "recorded": 0})json");
}

TEST(JsonGolden, PrometheusFamilies) {
  obs::counter("golden.requests").add(3);
  obs::gauge("golden.depth").add(-2);
  obs::histogram("golden.latency_ms").observe(0.5);
  obs::histogram("golden.latency_ms").observe(3.0);
  obs::histogram("golden.latency_ms").observe(3.0);
  std::istringstream Text(obs::renderPrometheusText());
  std::string Golden, Line;
  while (std::getline(Text, Line))
    if (Line.find("ltp_golden_") != std::string::npos)
      Golden += Line + "\n";
  EXPECT_EQ(Golden,
            "# TYPE ltp_golden_requests counter\n"
            "ltp_golden_requests 3\n"
            "# TYPE ltp_golden_depth gauge\n"
            "ltp_golden_depth -2\n"
            "# TYPE ltp_golden_latency_ms histogram\n"
            "ltp_golden_latency_ms_bucket{le=\"0.524288\"} 1\n"
            "ltp_golden_latency_ms_bucket{le=\"3.145728\"} 3\n"
            "ltp_golden_latency_ms_bucket{le=\"+Inf\"} 3\n"
            "ltp_golden_latency_ms_sum 6.5\n"
            "ltp_golden_latency_ms_count 3\n");
}

} // namespace
