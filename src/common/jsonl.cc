#include "common/jsonl.hh"

#include <charconv>
#include <cstdlib>
#include <ostream>

namespace lbp {

namespace {

/**
 * Escape @p s for a JSON string literal (quotes excluded), handing
 * each maximal run of bytes that need no escaping, and each escape
 * sequence, to @p put(const char *, std::size_t) as one piece.
 */
template <class Put>
void
escapeRuns(std::string_view s, Put &&put)
{
    static constexpr char hex[] = "0123456789abcdef";
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char u = static_cast<unsigned char>(s[i]);
        if (u >= 0x20 && u != '"' && u != '\\')
            continue;
        put(s.data() + run, i - run);
        run = i + 1;
        char esc[6] = {'\\', 0, 0, 0, 0, 0};
        std::size_t n = 2;
        switch (u) {
          case '"':
          case '\\':
            esc[1] = static_cast<char>(u);
            break;
          case '\b':
            esc[1] = 'b';
            break;
          case '\f':
            esc[1] = 'f';
            break;
          case '\n':
            esc[1] = 'n';
            break;
          case '\r':
            esc[1] = 'r';
            break;
          case '\t':
            esc[1] = 't';
            break;
          default:
            esc[1] = 'u';
            esc[2] = '0';
            esc[3] = '0';
            esc[4] = hex[u >> 4];
            esc[5] = hex[u & 0xf];
            n = 6;
        }
        put(esc, n);
    }
    put(s.data() + run, s.size() - run);
}

} // namespace

void
jsonEscape(std::ostream &os, std::string_view s)
{
    os.put('"');
    escapeRuns(s, [&os](const char *p, std::size_t n) {
        os.write(p, static_cast<std::streamsize>(n));
    });
    os.put('"');
}

std::string
jsonQuote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    escapeRuns(s, [&out](const char *p, std::size_t n) {
        out.append(p, n);
    });
    out += '"';
    return out;
}

void
appendJsonNumber(std::string &out, double v)
{
    // The standard defines this call as printf("%.17g"): every IEEE
    // double round-trips, and inf/nan render as printf renders them.
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

std::string
jsonNumber(double v)
{
    std::string out;
    appendJsonNumber(out, v);
    return out;
}

/**
 * Recursive-descent reader over a string_view cursor. Depth is bounded
 * (the protocol nests at most frame -> data -> value) to keep hostile
 * input from exhausting the stack.
 */
class JsonParser
{
  public:
    JsonParser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {}

    bool
    run(JsonValue &out)
    {
        if (!value(out, 0))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON value");
        return true;
    }

  private:
    static constexpr int maxDepth = 32;

    bool
    fail(const std::string &msg)
    {
        if (error_ && error_->empty())
            *error_ = msg;
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    literal(const char *word, std::size_t n)
    {
        if (text_.compare(pos_, n, word) != 0)
            return fail(std::string("bad literal, expected ") + word);
        pos_ += n;
        return true;
    }

    bool
    hex4(unsigned &out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            unsigned d = 0;
            if (c >= '0' && c <= '9')
                d = static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                d = static_cast<unsigned>(c - 'a') + 10;
            else if (c >= 'A' && c <= 'F')
                d = static_cast<unsigned>(c - 'A') + 10;
            else
                return fail("bad hex digit in \\u escape");
            out = out * 16 + d;
        }
        return true;
    }

    static void
    appendUtf8(std::string &s, unsigned cp)
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xc0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            s += static_cast<char>(0xe0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            s += static_cast<char>(0xf0 | (cp >> 18));
            s += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool
    string(std::string &out)
    {
        ++pos_;  // opening quote
        while (true) {
            // Copy the run of plain bytes before the next quote,
            // backslash or control character in one append.
            std::size_t end = pos_;
            while (end < text_.size()) {
                const unsigned char u =
                    static_cast<unsigned char>(text_[end]);
                if (u == '"' || u == '\\' || u < 0x20)
                    break;
                ++end;
            }
            out.append(text_.data() + pos_, end - pos_);
            pos_ = end;
            if (pos_ >= text_.size())
                return fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\')
                return fail("raw control character in string");
            if (pos_ >= text_.size())
                return fail("truncated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out += e;
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                unsigned cp = 0;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // High surrogate: a \uXXXX low surrogate follows.
                    if (text_.compare(pos_, 2, "\\u") != 0)
                        return fail("unpaired high surrogate");
                    pos_ += 2;
                    unsigned lo = 0;
                    if (!hex4(lo))
                        return false;
                    if (lo < 0xdc00 || lo > 0xdfff)
                        return fail("bad low surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    return fail("unpaired low surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape character");
            }
        }
    }

    bool
    number(double &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                c == 'E' || c == '+' || c == '-') {
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            return fail("bad number");
        const std::string tok(text_.substr(start, pos_ - start));
        char *end = nullptr;
        out = std::strtod(tok.c_str(), &end);
        if (!end || *end != '\0')
            return fail("bad number");
        return true;
    }

    bool
    value(JsonValue &out, int depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        switch (c) {
          case '{': {
            ++pos_;
            out.kind_ = JsonValue::Kind::Object;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipSpace();
                if (pos_ >= text_.size() || text_[pos_] != '"')
                    return fail("expected object key");
                std::string key;
                if (!string(key))
                    return false;
                skipSpace();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail("expected ':' after object key");
                ++pos_;
                JsonValue v;
                if (!value(v, depth + 1))
                    return false;
                out.members_.emplace_back(std::move(key),
                                          std::move(v));
                skipSpace();
                if (pos_ >= text_.size())
                    return fail("unterminated object");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}' in object");
            }
          }
          case '[': {
            ++pos_;
            out.kind_ = JsonValue::Kind::Array;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                JsonValue v;
                if (!value(v, depth + 1))
                    return false;
                out.items_.push_back(std::move(v));
                skipSpace();
                if (pos_ >= text_.size())
                    return fail("unterminated array");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']' in array");
            }
          }
          case '"':
            out.kind_ = JsonValue::Kind::String;
            return string(out.str_);
          case 't':
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = true;
            return literal("true", 4);
          case 'f':
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = false;
            return literal("false", 5);
          case 'n':
            out.kind_ = JsonValue::Kind::Null;
            return literal("null", 4);
          default:
            out.kind_ = JsonValue::Kind::Number;
            return number(out.num_);
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string *error_;
};

const JsonValue *
JsonValue::member(std::string_view key) const
{
    for (const auto &kv : members_)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

bool
JsonValue::parse(std::string_view text, JsonValue &out,
                 std::string *error)
{
    out = JsonValue();
    if (error)
        error->clear();
    JsonParser p(text, error);
    return p.run(out);
}

} // namespace lbp
