//===- JsonWriter.h - the one JSON producer ---------------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every JSON document the project writes — serve replies, lint
/// diagnostics, flight-recorder digests, log lines, trace files and
/// bench reports — is built by JsonWriter, so escaping and separators
/// are decided in one place. The writer appends to one string in a
/// single style: `": "` after a key and `", "` between elements.
///
///   obs::JsonWriter W;
///   W.beginObject().key("ok").boolean(true).key("so").beginArray();
///   W.string("/cache/a.so").endArray().endObject();
///   // {"ok": true, "so": ["/cache/a.so"]}
///
/// The caller keeps keys and values alternating inside objects; the
/// writer does not validate nesting.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_OBS_JSONWRITER_H
#define LTP_OBS_JSONWRITER_H

#include <cstdint>
#include <string>
#include <string_view>

namespace ltp {
namespace obs {

/// Escapes \p S for embedding in a JSON string literal (quotes,
/// backslashes, control characters; bytes >= 0x80 pass through).
std::string jsonEscape(const std::string &S);

/// Builds one JSON document into a string (see the file comment).
class JsonWriter {
public:
  JsonWriter &beginObject() { return open("{"); }
  JsonWriter &endObject() { return close("}"); }
  JsonWriter &beginArray() { return open("["); }
  JsonWriter &endArray() { return close("]"); }

  /// An object member's key; the next call writes its value.
  JsonWriter &key(std::string_view K);

  /// An escaped string value.
  JsonWriter &string(std::string_view S);
  JsonWriter &integer(int64_t V);
  JsonWriter &boolean(bool V) { return raw(V ? "true" : "false"); }
  /// \p V with \p Digits digits after the point (printf "%.*f").
  JsonWriter &fixed(double V, int Digits);
  /// \p V with \p Digits significant digits (printf "%.*g").
  JsonWriter &general(double V, int Digits);
  /// Already-rendered JSON (an object, array or literal), spliced in
  /// verbatim as one value.
  JsonWriter &raw(std::string_view Json) { return open({}).close(Json); }

  const std::string &str() const { return Out; }
  std::string take() { return std::move(Out); }

private:
  /// Writes ", " when a value precedes, then \p Text, which starts one.
  JsonWriter &open(std::string_view Text);
  /// Writes \p Text, which ends a value.
  JsonWriter &close(std::string_view Text);

  std::string Out;
  bool AfterValue = false;
};

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_JSONWRITER_H
