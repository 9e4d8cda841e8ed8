#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"

namespace aw::obs {

void
JsonCursor::die(const char *what) const
{
    throw JsonError{pos, what};
}

void
JsonCursor::skipWs()
{
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r'))
        ++pos;
}

char
JsonCursor::peek() const
{
    if (pos >= text.size())
        die("unexpected end of input");
    return text[pos];
}

void
JsonCursor::expect(char c)
{
    if (peek() != c)
        die("unexpected character");
    ++pos;
}

bool
JsonCursor::consume(char c)
{
    if (pos >= text.size() || text[pos] != c)
        return false;
    ++pos;
    return true;
}

bool
JsonCursor::consumeLiteral(std::string_view lit)
{
    if (text.compare(pos, lit.size(), lit) != 0)
        return false;
    pos += lit.size();
    return true;
}

void
JsonCursor::string(std::string &out)
{
    expect('"');
    out.clear();
    while (true) {
        // Copy the run up to the next quote or escape in one append.
        const size_t stop = text.find_first_of("\"\\", pos);
        if (stop == std::string_view::npos) {
            pos = text.size();
            die("unterminated string");
        }
        out.append(text, pos, stop - pos);
        pos = stop + 1;
        if (text[stop] == '"')
            return;
        if (pos >= text.size())
            die("unterminated escape");
        char e = text[pos++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos + 4 > text.size())
                die("truncated \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
                char h = text[pos++];
                cp <<= 4;
                if (h >= '0' && h <= '9')
                    cp |= static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    cp |= static_cast<unsigned>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    cp |= static_cast<unsigned>(h - 'A' + 10);
                else
                    die("bad hex digit in \\u escape");
            }
            // Encode the BMP codepoint as UTF-8 (the sinks only emit
            // ASCII; this keeps foreign documents readable).
            if (cp < 0x80) {
                out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
                out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
                out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
                out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
                out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
                out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default:
            die("unknown escape character");
        }
    }
}

double
JsonCursor::number()
{
    const char *first = text.data() + pos;
    const char *last = text.data() + text.size();
    // from_chars alone would also take "inf", "nan" and "-inf".
    const char *digit = first < last && *first == '-' ? first + 1 : first;
    if (digit == last || *digit < '0' || *digit > '9')
        die("expected a number");
    double v = 0;
    const auto [end, ec] = std::from_chars(first, last, v);
    if (ec != std::errc())
        die("number out of range");
    pos += static_cast<size_t>(end - first);
    return v;
}

namespace {

/** Recursive-descent tree parser over a JsonCursor. Errors throw
 *  JsonError; parseJson turns that into a fatal(), tryParseJson into a
 *  false return. */
struct Parser : JsonCursor
{
    std::string parseString()
    {
        std::string out;
        string(out);
        return out;
    }

    JsonValue parseValue(int depth)
    {
        if (depth > 64)
            die("nesting too deep");
        skipWs();
        char c = peek();
        JsonValue v;
        if (c == '{') {
            ++pos;
            v.kind = JsonValue::Kind::Object;
            skipWs();
            if (peek() == '}') {
                ++pos;
                return v;
            }
            while (true) {
                skipWs();
                std::string key = parseString();
                skipWs();
                expect(':');
                v.object.emplace_back(std::move(key),
                                      parseValue(depth + 1));
                skipWs();
                char d = peek();
                ++pos;
                if (d == '}')
                    return v;
                if (d != ',')
                    die("expected ',' or '}' in object");
            }
        }
        if (c == '[') {
            ++pos;
            v.kind = JsonValue::Kind::Array;
            skipWs();
            if (peek() == ']') {
                ++pos;
                return v;
            }
            while (true) {
                v.array.push_back(parseValue(depth + 1));
                skipWs();
                char d = peek();
                ++pos;
                if (d == ']')
                    return v;
                if (d != ',')
                    die("expected ',' or ']' in array");
            }
        }
        if (c == '"') {
            v.kind = JsonValue::Kind::String;
            v.str = parseString();
            return v;
        }
        if (consumeLiteral("true")) {
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (consumeLiteral("false")) {
            v.kind = JsonValue::Kind::Bool;
            v.boolean = false;
            return v;
        }
        if (consumeLiteral("null"))
            return v;
        // Number: copy the number-shaped prefix into a bounded,
        // NUL-terminated buffer, then defer to strtod. The view is not
        // NUL-terminated (it may be a slice of a larger buffer), so
        // strtod must never see the raw pointer.
        char numBuf[64];
        size_t n = 0;
        while (pos + n < text.size() && n < sizeof numBuf - 1) {
            const char ch = text[pos + n];
            if ((ch >= '0' && ch <= '9') || ch == '+' || ch == '-' ||
                ch == '.' || ch == 'e' || ch == 'E')
                numBuf[n++] = ch;
            else
                break;
        }
        numBuf[n] = '\0';
        char *end = nullptr;
        double num = std::strtod(numBuf, &end);
        if (end == numBuf)
            die("expected a JSON value");
        v.kind = JsonValue::Kind::Number;
        v.number = num;
        pos += static_cast<size_t>(end - numBuf);
        return v;
    }
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (!v)
        fatal("JSON object has no member '%s'", key.c_str());
    return *v;
}

double
JsonValue::asNumber() const
{
    if (kind != Kind::Number)
        fatal("JSON value is not a number");
    return number;
}

const std::string &
JsonValue::asString() const
{
    if (kind != Kind::String)
        fatal("JSON value is not a string");
    return str;
}

JsonValue
parseJson(const std::string &text)
{
    try {
        Parser p{text};
        JsonValue v = p.parseValue(0);
        p.skipWs();
        if (p.pos != text.size())
            p.die("trailing garbage after document");
        return v;
    } catch (const JsonError &e) {
        fatal("JSON parse error at offset %zu: %s", e.pos, e.what);
    }
}

bool
tryParseJson(std::string_view text, JsonValue &out)
{
    try {
        Parser p{text};
        out = p.parseValue(0);
        p.skipWs();
        if (p.pos != text.size())
            p.die("trailing garbage after document");
        return true;
    } catch (const JsonError &) {
        return false;
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        warn("non-finite value in JSON output clamped to 0");
        return "0";
    }
    // %.17g round-trips any double but is noisy; try shorter forms first.
    // to_chars(general, prec) is printf's %.*g in the "C" locale, so the
    // spelling (and every key built from it) is the printf one.
    char buf[32];
    char *end = buf;
    for (int prec : {6, 12, 17}) {
        end = std::to_chars(buf, buf + sizeof buf, v,
                            std::chars_format::general, prec)
                  .ptr;
        double back = 0;
        const auto [ptr, ec] = std::from_chars(buf, end, back);
        if (ec == std::errc() && back == v)
            break;
    }
    return std::string(buf, end);
}

} // namespace aw::obs
