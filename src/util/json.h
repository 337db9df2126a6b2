// Minimal write-only JSON builder used for machine-readable tool output:
// bench/harness.cc writes every BENCH_*.json through it, and perfbench its
// metric, fact and trace-span lines. Handles comma placement and string
// escaping; the caller is responsible for well-formed nesting (unbalanced
// Begin/End pairs are caught by UAE_CHECK in Finish).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"

namespace uae::util {

class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Object member key; must be followed by a value or Begin*.
  JsonWriter& Key(std::string_view k);

  JsonWriter& Value(std::string_view v);
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  /// Doubles print with enough digits to round-trip; NaN/Inf (invalid in
  /// JSON) are emitted as null.
  JsonWriter& Value(double v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(bool v);

  /// Key + value in one call.
  template <typename T>
  JsonWriter& Member(std::string_view k, T&& v) {
    Key(k);
    return Value(std::forward<T>(v));
  }

  /// Returns the finished document; checks that all containers were closed.
  const std::string& Finish();

 private:
  void BeforeValue();

  std::string out_;
  // One entry per open container: true once the first element was written.
  std::vector<bool> has_elem_;
  bool pending_key_ = false;
};

/// Escapes `s` as a JSON string literal (with surrounding quotes).
std::string JsonEscape(std::string_view s);

}  // namespace uae::util
