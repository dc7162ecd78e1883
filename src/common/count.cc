#include "common/count.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lbp {

bool
parseSpecCount(std::string_view text, std::uint64_t &out,
               std::uint64_t max)
{
    // from_chars into an unsigned type takes digits only: no sign, no
    // leading space, no fraction or exponent.
    const char *end = text.data() + text.size();
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v > max)
        return false;
    out = v;
    return true;
}

bool
parseSeconds(std::string_view text, double &out)
{
    // from_chars takes no leading '+' or space; fixed format stops at
    // an exponent, which then fails the whole-text check.
    const char *end = text.data() + text.size();
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), end, v, std::chars_format::fixed);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) ||
        std::signbit(v))
        return false;
    out = v;
    return true;
}

std::uint64_t
envCount(const char *name, std::uint64_t fallback, std::uint64_t max)
{
    const char *text = std::getenv(name);
    if (!text || !*text)
        return fallback;
    std::uint64_t v = 0;
    if (!parseSpecCount(text, v, max)) {
        std::fprintf(stderr, "%s wants an integer in [0, %llu], got '%s'\n",
                     name, static_cast<unsigned long long>(max), text);
        std::exit(1);
    }
    return v;
}

} // namespace lbp
