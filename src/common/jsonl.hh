/**
 * @file
 * Line-delimited JSON primitives shared by every JSON-emitting surface.
 *
 * The sweep event log, the manifest writer and the metrics registry
 * each grew a private string escaper that only handled quotes and
 * backslashes — fine for metric names, fatally wrong for a wire
 * protocol that embeds whole CSV files (newlines!) inside one-line
 * frames. This header centralizes RFC 8259 string escaping, a
 * deterministic double renderer, and a small recursive-descent JSON
 * reader (JsonValue) sized for the lbp-serve-v1 protocol
 * (docs/SERVER.md): objects keep member order in a vector, so
 * iteration is deterministic and the unordered-iteration analyzer rule
 * never applies.
 */

#ifndef LBP_COMMON_JSONL_HH
#define LBP_COMMON_JSONL_HH

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lbp {

/**
 * Write @p s to @p os as a JSON string literal: surrounding quotes,
 * with `"` `\` and every control character below 0x20 escaped (named
 * escapes for \b \f \n \r \t, \u00XX for the rest). A superset of the
 * escaping the sweep surfaces historically used — existing outputs
 * carry no control characters, so their bytes are unchanged. Each run
 * of bytes that needs no escaping goes to @p os in one write.
 */
void jsonEscape(std::ostream &os, std::string_view s);

/** jsonEscape into a fresh string ("..." included). */
std::string jsonQuote(std::string_view s);

/**
 * Append @p v to @p out as printf("%.17g") renders it (via
 * std::to_chars, general format, precision 17): deterministic and
 * lossless, since 17 significant digits round-trip every IEEE double.
 * Every JSON and CSV surface that must emit identical bytes across
 * processes — warm vs cold sweeps, server vs local CSV — uses this.
 */
void appendJsonNumber(std::string &out, double v);

/** appendJsonNumber into a fresh string. */
std::string jsonNumber(double v);

/**
 * One parsed JSON value. Objects preserve member order (first wins on
 * duplicate lookup), numbers are doubles (exact for the counters and
 * cell counts the protocol carries), strings are UTF-8 with \uXXXX
 * escapes decoded (surrogate pairs included). Accessors are total:
 * asking a value for the wrong kind returns the fallback, so message
 * handlers validate with kind() only where the distinction matters.
 */
class JsonValue
{
  public:
    /** JSON type tag. */
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    /** Type of this value. */
    Kind kind() const { return kind_; }

    /** Boolean payload; @p dflt unless kind() == Bool. */
    bool boolean(bool dflt = false) const
    {
        return kind_ == Kind::Bool ? bool_ : dflt;
    }

    /** Numeric payload; @p dflt unless kind() == Number. */
    double number(double dflt = 0.0) const
    {
        return kind_ == Kind::Number ? num_ : dflt;
    }

    /** String payload; empty unless kind() == String. */
    const std::string &str() const { return str_; }

    /** Object members in document order (empty for non-objects). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    /** Array elements in document order (empty for non-arrays). */
    const std::vector<JsonValue> &items() const { return items_; }

    /** First member named @p key, or null when absent / not an object. */
    const JsonValue *member(std::string_view key) const;

    /**
     * Parse one JSON document from @p text (surrounding whitespace
     * allowed, trailing garbage rejected). On failure returns false
     * and, when @p error is non-null, describes the first problem.
     */
    static bool parse(std::string_view text, JsonValue &out,
                      std::string *error = nullptr);

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<std::pair<std::string, JsonValue>> members_;
    std::vector<JsonValue> items_;
};

} // namespace lbp

#endif // LBP_COMMON_JSONL_HH
