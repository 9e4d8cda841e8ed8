/**
 * @file
 * Minimal JSON support for the observability layer: a writer with
 * correct string escaping (used by the metrics / trace / telemetry
 * sinks), a cursor over JSON text, and a strict recursive-descent tree
 * parser on that cursor in the model_io style — fatal() on malformed
 * input, so a truncated telemetry file cannot be silently half-read.
 * Used by tests to round-trip every exported sink. The result cache
 * walks the cursor directly to decode its own entries without a tree.
 *
 * This is deliberately not a general-purpose JSON library: documents
 * are small (metric registries, trace summaries), numbers are doubles,
 * and object key order is preserved for deterministic output.
 */
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aw::obs {

/** One parsed JSON value (tagged union; children own their storage). */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Object member access; fatal() when absent. */
    const JsonValue &at(const std::string &key) const;

    /** Typed accessors; fatal() on a kind mismatch. */
    double asNumber() const;
    const std::string &asString() const;
};

/** Why a JsonCursor stopped: the byte offset and a static message. */
struct JsonError
{
    size_t pos;
    const char *what;
};

/**
 * Cursor over JSON text: whitespace, punctuation, strings with escapes
 * and numbers. A method that expects something throws JsonError when it
 * meets anything else; consume and consumeLiteral answer with a bool.
 * The text is a string_view, so callers can walk borrowed bytes (a
 * frame inside a session buffer, a file read into a scratch string)
 * without a copy. The tree parser below is built on it; a decoder of a
 * document this program wrote walks it member by member instead, with
 * no tree in between.
 */
struct JsonCursor
{
    std::string_view text;
    size_t pos = 0;

    [[noreturn]] void die(const char *what) const;

    void skipWs();

    /** Next byte; throws at the end of the text. */
    char peek() const;

    /** Consume `c` or throw. No whitespace is skipped. */
    void expect(char c);

    /** Consume `c` when it is next; no whitespace is skipped. */
    bool consume(char c);

    /** Consume `lit` when the text continues with it. */
    bool consumeLiteral(std::string_view lit);

    /** A quoted string, escapes decoded, into `out` (replaced). */
    void string(std::string &out);

    /**
     * A number, parsed with std::from_chars: the correctly rounded
     * value, as strtod gives, but only for a '-' or a digit followed by
     * from_chars' decimal syntax, never inf or nan. For text this
     * program wrote with jsonNumber; the tree parser keeps strtod.
     */
    double number();
};

/** Parse a complete JSON document. fatal() on malformed input or
 *  trailing garbage. */
JsonValue parseJson(const std::string &text);

/**
 * Parse without fatal(): returns false (leaving `out` unspecified) on
 * malformed input or trailing garbage. For readers that must survive a
 * corrupt document — e.g. the result cache recovering from a torn
 * cache file — where the strict parseJson would take the process down.
 */
bool tryParseJson(std::string_view text, JsonValue &out);

/** Escape a string for embedding in a JSON document (no quotes). */
std::string jsonEscape(const std::string &s);

/** Format a double the way the sinks do: shortest round-trippable,
 *  never NaN/Inf (clamped to 0 with a warning — JSON has no NaN). */
std::string jsonNumber(double v);

} // namespace aw::obs
