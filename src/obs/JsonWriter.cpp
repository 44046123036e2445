//===- JsonWriter.cpp - the one JSON producer -----------------------------===//

#include "obs/JsonWriter.h"

#include "support/Format.h"

#include <charconv>

using namespace ltp;
using namespace ltp::obs;

namespace {

void appendEscaped(std::string &Out, std::string_view S) {
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C == '\n') {
      Out += "\\n";
    } else if (C == '\t') {
      Out += "\\t";
    } else if (C == '\r') {
      Out += "\\r";
    } else if (C < 0x20) {
      Out += strFormat("\\u%04x", C);
    } else {
      Out += static_cast<char>(C);
    }
  }
}

} // namespace

std::string ltp::obs::jsonEscape(const std::string &S) {
  std::string Out;
  appendEscaped(Out, S);
  return Out;
}

JsonWriter &JsonWriter::open(std::string_view Text) {
  if (AfterValue)
    Out += ", ";
  Out += Text;
  AfterValue = false;
  return *this;
}

JsonWriter &JsonWriter::close(std::string_view Text) {
  Out += Text;
  AfterValue = true;
  return *this;
}

JsonWriter &JsonWriter::key(std::string_view K) {
  string(K);
  Out += ": ";
  AfterValue = false;
  return *this;
}

JsonWriter &JsonWriter::string(std::string_view S) {
  open("\"");
  appendEscaped(Out, S);
  return close("\"");
}

JsonWriter &JsonWriter::integer(int64_t V) {
  char Buf[24]; // holds every int64_t
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), V).ptr;
  return raw(std::string_view(Buf, static_cast<size_t>(End - Buf)));
}

JsonWriter &JsonWriter::fixed(double V, int Digits) {
  return raw(strFormat("%.*f", Digits, V));
}

JsonWriter &JsonWriter::general(double V, int Digits) {
  return raw(strFormat("%.*g", Digits, V));
}
