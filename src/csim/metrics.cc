#include "csim/metrics.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "fpu/hfpu.h"

namespace hfpu {
namespace metrics {

// ---------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------

Json
Json::array()
{
    Json v;
    v.type_ = Type::Array;
    return v;
}

Json
Json::object()
{
    Json v;
    v.type_ = Type::Object;
    return v;
}

bool
Json::asBool(bool fallback) const
{
    return type_ == Type::Bool ? bool_ : fallback;
}

double
Json::asNumber(double fallback) const
{
    return type_ == Type::Number ? number_ : fallback;
}

void
Json::push(Json value)
{
    type_ = Type::Array;
    elements_.push_back(std::move(value));
}

size_t
Json::size() const
{
    return type_ == Type::Object ? members_.size() : elements_.size();
}

const Json &
Json::at(size_t index) const
{
    return elements_.at(index);
}

void
Json::set(const std::string &key, Json value)
{
    type_ = Type::Object;
    for (auto &member : members_) {
        if (member.first == key) {
            member.second = std::move(value);
            return;
        }
    }
    members_.emplace_back(key, std::move(value));
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &member : members_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

namespace {

void
appendEscaped(std::string &out, const std::string &s)
{
    out.push_back('"');
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
appendNumber(std::string &out, double n)
{
    if (!std::isfinite(n)) {
        // JSON has no Inf/NaN; null keeps the artifact parseable and
        // the comparator reports the metric as missing.
        out += "null";
        return;
    }
    if (n == static_cast<double>(static_cast<int64_t>(n)) &&
        std::fabs(n) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(n));
        out += buf;
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", n);
    out += buf;
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent < 0)
        return;
    out.push_back('\n');
    out.append(static_cast<size_t>(indent) * depth, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: appendNumber(out, number_); break;
    case Type::String: appendEscaped(out, string_); break;
    case Type::Array:
        if (elements_.empty()) {
            out += "[]";
            break;
        }
        out.push_back('[');
        for (size_t i = 0; i < elements_.size(); ++i) {
            if (i)
                out.push_back(',');
            newlineIndent(out, indent, depth + 1);
            elements_[i].dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out.push_back(']');
        break;
    case Type::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out.push_back('{');
        for (size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out.push_back(',');
            newlineIndent(out, indent, depth + 1);
            appendEscaped(out, members_[i].first);
            out += indent < 0 ? ":" : ": ";
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out.push_back('}');
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent >= 0)
        out.push_back('\n');
    return out;
}

namespace {

/** Recursive-descent JSON parser over a string view. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {}

    Json
    run()
    {
        Json v = parseValue();
        skipWs();
        if (!failed_ && pos_ != text_.size()) {
            fail("trailing characters");
            return Json();
        }
        return failed_ ? Json() : v;
    }

    bool failed() const { return failed_; }

  private:
    void
    fail(const std::string &what)
    {
        if (!failed_ && error_) {
            *error_ =
                what + " at offset " + std::to_string(pos_);
        }
        failed_ = true;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    /** @p depth bounds the recursion, so hostile nesting fails cleanly. */
    Json
    parseValue(int depth = 0)
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return Json();
        }
        if (depth > kMaxDepth) {
            fail("nesting too deep");
            return Json();
        }
        const char c = text_[pos_];
        switch (c) {
        case '{': return parseObject(depth);
        case '[': return parseArray(depth);
        case '"': return Json(parseString());
        case 't':
            if (literal("true"))
                return Json(true);
            fail("bad literal");
            return Json();
        case 'f':
            if (literal("false"))
                return Json(false);
            fail("bad literal");
            return Json();
        case 'n':
            if (literal("null"))
                return Json();
            fail("bad literal");
            return Json();
        default: return parseNumber();
        }
    }

    Json
    parseObject(int depth)
    {
        ++pos_; // '{'
        Json obj = Json::object();
        skipWs();
        if (consume('}'))
            return obj;
        while (!failed_) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key");
                break;
            }
            const std::string key = parseString();
            if (failed_)
                break;
            if (!consume(':')) {
                fail("expected ':'");
                break;
            }
            obj.set(key, parseValue(depth + 1));
            if (failed_)
                break;
            if (consume(','))
                continue;
            if (consume('}'))
                return obj;
            fail("expected ',' or '}'");
        }
        return Json();
    }

    Json
    parseArray(int depth)
    {
        ++pos_; // '['
        Json arr = Json::array();
        skipWs();
        if (consume(']'))
            return arr;
        while (!failed_) {
            arr.push(parseValue(depth + 1));
            if (failed_)
                break;
            if (consume(','))
                continue;
            if (consume(']'))
                return arr;
            fail("expected ',' or ']'");
        }
        return Json();
    }

    std::string
    parseString()
    {
        ++pos_; // '"'
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'n': out.push_back('\n'); break;
            case 't': out.push_back('\t'); break;
            case 'r': out.push_back('\r'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("bad \\u escape");
                    return "";
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        code |= h - 'A' + 10;
                    else {
                        fail("bad \\u escape");
                        return "";
                    }
                }
                // Artifacts are ASCII; encode BMP points as UTF-8.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xc0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    out.push_back(
                        static_cast<char>(0xe0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
            }
            default: fail("bad escape"); return "";
            }
        }
        fail("unterminated string");
        return "";
    }

    /** JSON's number grammar: -?digits(.digits)?([eE][+-]?digits)? */
    Json
    parseNumber()
    {
        const size_t start = pos_;
        auto skip = [&](const char *chars) {
            const bool hit = pos_ < text_.size() && text_[pos_] != '\0' &&
                std::strchr(chars, text_[pos_]) != nullptr;
            pos_ += hit;
            return hit;
        };
        auto digits = [&] {
            const size_t from = pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            return pos_ > from;
        };
        skip("-");
        bool ok = digits() && (!skip(".") || digits());
        if (ok && skip("eE")) {
            skip("+-");
            ok = digits();
        }
        const double n = ok ? std::strtod(
            text_.substr(start, pos_ - start).c_str(), nullptr) : 0.0;
        if (!ok || !std::isfinite(n)) {
            fail(ok ? "number out of range"
                    : pos_ == start ? "expected value" : "malformed number");
            return Json();
        }
        return Json(n);
    }

    static constexpr int kMaxDepth = 256;

    const std::string &text_;
    std::string *error_;
    size_t pos_ = 0;
    bool failed_ = false;
};

} // namespace

Json
Json::parse(const std::string &text, std::string *error)
{
    return Parser(text, error).run();
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

namespace {

/** The calling thread's metric namespace, "" or "<prefix>/...". */
thread_local std::string g_namespace;

/** Qualify a written name with the thread's namespace. */
std::string
qualified(const std::string &name)
{
    return g_namespace.empty() ? name : g_namespace + name;
}

} // namespace

ScopedNamespace::ScopedNamespace(const std::string &prefix)
    : saved_(g_namespace)
{
    g_namespace += prefix;
    g_namespace += '/';
}

ScopedNamespace::~ScopedNamespace()
{
    g_namespace = saved_;
}

const std::string &
ScopedNamespace::current()
{
    return g_namespace;
}

std::string
ScopedNamespace::exchange(std::string ns)
{
    std::string prev = std::move(g_namespace);
    g_namespace = std::move(ns);
    return prev;
}

void
Registry::count(const std::string &name, uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[qualified(name)] += delta;
}

void
Registry::addTime(const std::string &name, std::chrono::nanoseconds ns)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Timer &timer = timers_[qualified(name)];
    timer.ns += static_cast<uint64_t>(ns.count());
    ++timer.calls;
}

uint64_t
Registry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

uint64_t
Registry::timerNs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = timers_.find(name);
    return it == timers_.end() ? 0 : it->second.ns;
}

uint64_t
Registry::timerCalls(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = timers_.find(name);
    return it == timers_.end() ? 0 : it->second.calls;
}

Json
Registry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Json counters = Json::object();
    for (const auto &[name, value] : counters_)
        counters.set(name, Json(value));
    Json timers = Json::object();
    for (const auto &[name, timer] : timers_) {
        Json t = Json::object();
        t.set("ns", Json(timer.ns));
        t.set("calls", Json(timer.calls));
        timers.set(name, std::move(t));
    }
    Json out = Json::object();
    out.set("counters", std::move(counters));
    out.set("timers", std::move(timers));
    return out;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    timers_.clear();
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

// ---------------------------------------------------------------------
// Stats serialization & metric comparison
// ---------------------------------------------------------------------

Json
serviceStatsJson(const fpu::ServiceStats &stats)
{
    Json levels = Json::object();
    for (int l = 0; l < fpu::kNumServiceLevels; ++l) {
        const auto level = static_cast<fpu::ServiceLevel>(l);
        Json entry = Json::object();
        entry.set("count", Json(stats.count(level)));
        entry.set("fraction", Json(stats.fraction(level)));
        levels.set(fpu::serviceLevelName(level), std::move(entry));
    }
    Json byOpcode = Json::object();
    for (int op = 0; op < fp::kNumOpcodes; ++op) {
        Json counts = Json::object();
        for (int l = 0; l < fpu::kNumServiceLevels; ++l) {
            const auto level = static_cast<fpu::ServiceLevel>(l);
            const uint64_t n =
                stats.count(static_cast<fp::Opcode>(op), level);
            if (n)
                counts.set(fpu::serviceLevelName(level), Json(n));
        }
        if (counts.size())
            byOpcode.set(fp::opcodeName(static_cast<fp::Opcode>(op)),
                         std::move(counts));
    }
    Json out = Json::object();
    out.set("total", Json(stats.total()));
    out.set("local_one_cycle", Json(stats.fractionLocalOneCycle()));
    out.set("levels", std::move(levels));
    out.set("by_opcode", std::move(byOpcode));
    return out;
}

bool
compareMetricMaps(const Json &baseline, const Json &current,
                  double relTol, std::vector<MetricDelta> *out)
{
    bool ok = true;
    auto report = [&](MetricDelta delta) {
        ok = false;
        if (out)
            out->push_back(std::move(delta));
    };

    if (!baseline.isObject() || !current.isObject()) {
        report({"<metrics>", 0.0, 0.0, 0.0, true});
        return ok;
    }
    for (const auto &[key, base] : baseline.members()) {
        if (!base.isNumber())
            continue;
        const Json *cur = current.find(key);
        if (!cur || !cur->isNumber()) {
            report({key, base.asNumber(), 0.0, 0.0, true});
            continue;
        }
        const double b = base.asNumber();
        const double c = cur->asNumber();
        // Absolute floor so exact zeros and denormal-scale noise pass.
        const double scale = std::max(std::fabs(b), 1e-12);
        const double rel = std::fabs(c - b) / scale;
        if (rel > relTol)
            report({key, b, c, rel, false});
    }
    return ok;
}

} // namespace metrics
} // namespace hfpu
