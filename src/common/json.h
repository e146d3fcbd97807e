#pragma once

/// \file
/// Minimal dependency-free JSON support shared by every wire surface:
/// string/number rendering helpers (used by MetricsRegistry::ToJson,
/// QueryResponse::ToJson, and the server), and a small recursive-descent
/// parser for the server's request bodies. No third-party JSON library is
/// available in the build image, and none is needed: the documents the
/// system exchanges (`erq.metrics.v1`, `erq.response.v1`, query
/// submissions) are small and flat.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace erq {

/// Renders `s` as a quoted JSON string, escaping quotes, backslashes, and
/// control characters (the latter as \\u00XX).
std::string JsonQuote(std::string_view s);

/// Appends JsonQuote(s) to `out` without building a temporary string.
void AppendJsonQuote(std::string_view s, std::string* out);

/// Shortest round-trippable JSON representation of a double. Integral
/// values below 1e15 render without a fraction; non-finite values (which
/// JSON cannot represent) render as null.
std::string JsonNumber(double v);

/// Appends JsonNumber(v) to `out` without building a temporary string.
void AppendJsonNumber(double v, std::string* out);

/// A parsed JSON document node. Numbers are stored as doubles (every
/// integer the wire protocol carries — row limits, batch sizes — is well
/// below the 2^53 exactness bound). Object member order is not preserved.
class JsonValue {
 public:
  /// The JSON value kinds.
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Constructs JSON null.
  JsonValue() = default;

  /// Parses one JSON document from `text`. Trailing non-whitespace after
  /// the document, unterminated literals, bad escapes, and documents
  /// nested deeper than an internal bound are kParseError. The parser
  /// accepts exactly RFC 8259 JSON (no comments, no trailing commas).
  static StatusOr<JsonValue> Parse(std::string_view text);

  /// The kind of this node.
  Kind kind() const { return kind_; }
  /// True iff this node is JSON null.
  bool is_null() const { return kind_ == Kind::kNull; }
  /// True iff this node is a boolean.
  bool is_bool() const { return kind_ == Kind::kBool; }
  /// True iff this node is a number.
  bool is_number() const { return kind_ == Kind::kNumber; }
  /// True iff this node is a string.
  bool is_string() const { return kind_ == Kind::kString; }
  /// True iff this node is an array.
  bool is_array() const { return kind_ == Kind::kArray; }
  /// True iff this node is an object.
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Boolean payload; only meaningful when is_bool().
  bool AsBool() const { return bool_; }
  /// Numeric payload; only meaningful when is_number().
  double AsDouble() const { return number_; }
  /// Numeric payload truncated to int64; only meaningful when is_number().
  int64_t AsInt64() const { return static_cast<int64_t>(number_); }
  /// String payload; only meaningful when is_string().
  const std::string& AsString() const { return string_; }
  /// Array elements; empty unless is_array().
  const std::vector<JsonValue>& Items() const { return items_; }
  /// Object members; empty unless is_object().
  const std::map<std::string, JsonValue>& Members() const { return members_; }

  /// Object member lookup: the member node, or nullptr when this is not
  /// an object or has no member `key`.
  const JsonValue* Find(const std::string& key) const;

  /// Compact (no whitespace) serialization; Parse(Dump()) round-trips.
  std::string Dump() const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;
};

}  // namespace erq
