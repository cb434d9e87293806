#include "json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "logging.hpp"

namespace quest::sim {

bool
Json::asBool() const
{
    QUEST_ASSERT(type() == Type::Bool, "JSON value is not a bool");
    return std::get<bool>(_v);
}

std::uint64_t
Json::asU64() const
{
    if (type() == Type::Uint)
        return std::get<std::uint64_t>(_v);
    QUEST_ASSERT(type() == Type::Int && std::get<std::int64_t>(_v) >= 0,
                 "JSON value is not a non-negative integer");
    return std::uint64_t(std::get<std::int64_t>(_v));
}

std::int64_t
Json::asI64() const
{
    if (type() == Type::Int)
        return std::get<std::int64_t>(_v);
    QUEST_ASSERT(type() == Type::Uint
                     && std::get<std::uint64_t>(_v)
                         <= 0x7FFFFFFFFFFFFFFFull,
                 "JSON value does not fit a signed integer");
    return std::int64_t(std::get<std::uint64_t>(_v));
}

double
Json::asDouble() const
{
    switch (type()) {
      case Type::Double: return std::get<double>(_v);
      case Type::Uint: return double(std::get<std::uint64_t>(_v));
      case Type::Int: return double(std::get<std::int64_t>(_v));
      default:
        fatal("JSON value is not a number");
    }
}

const std::string &
Json::asString() const
{
    QUEST_ASSERT(type() == Type::String, "JSON value is not a string");
    return std::get<std::string>(_v);
}

void
Json::push(Json v)
{
    QUEST_ASSERT(type() == Type::Array, "push on non-array JSON");
    std::get<Array>(_v).push_back(std::move(v));
}

std::size_t
Json::size() const
{
    if (type() == Type::Array)
        return std::get<Array>(_v).size();
    return type() == Type::Object ? std::get<Object>(_v).size() : 0;
}

const Json &
Json::at(std::size_t i) const
{
    QUEST_ASSERT(type() == Type::Array && i < size(),
                 "JSON array index %zu out of range", i);
    return std::get<Array>(_v)[i];
}

Json &
Json::set(const std::string &key, Json v)
{
    QUEST_ASSERT(type() == Type::Object, "set on non-object JSON");
    Object &members = std::get<Object>(_v);
    for (auto &[k, val] : members) {
        if (k == key) {
            val = std::move(v);
            return *this;
        }
    }
    members.emplace_back(key, std::move(v));
    return *this;
}

bool
Json::has(const std::string &key) const
{
    if (type() != Type::Object)
        return false;
    for (const auto &[k, v] : std::get<Object>(_v))
        if (k == key)
            return true;
    return false;
}

const Json &
Json::get(const std::string &key) const
{
    QUEST_ASSERT(type() == Type::Object, "get on non-object JSON");
    for (const auto &[k, v] : std::get<Object>(_v))
        if (k == key)
            return v;
    fatal("JSON object has no key '%s'", key.c_str());
}

std::uint64_t
Json::getU64(const std::string &key, std::uint64_t fallback) const
{
    return has(key) ? get(key).asU64() : fallback;
}

double
Json::getDouble(const std::string &key, double fallback) const
{
    return has(key) ? get(key).asDouble() : fallback;
}

std::string
Json::getString(const std::string &key,
                const std::string &fallback) const
{
    return has(key) ? get(key).asString() : fallback;
}

namespace {

void
escapeString(const std::string &s, std::string &out)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace

void
Json::dumpTo(std::string &out) const
{
    switch (type()) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += std::get<bool>(_v) ? "true" : "false";
        break;
      case Type::Uint:
        out += std::to_string(std::get<std::uint64_t>(_v));
        break;
      case Type::Int:
        out += std::to_string(std::get<std::int64_t>(_v));
        break;
      case Type::Double: {
        // %.17g round-trips every finite IEEE-754 double exactly;
        // JSON has no spelling for NaN or infinities.
        const double d = std::get<double>(_v);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        out += std::isfinite(d) ? buf : "null";
        break;
      }
      case Type::String:
        escapeString(std::get<std::string>(_v), out);
        break;
      case Type::Array: {
        const Array &items = std::get<Array>(_v);
        out += '[';
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i)
                out += ", ";
            items[i].dumpTo(out);
        }
        out += ']';
        break;
      }
      case Type::Object: {
        const Object &members = std::get<Object>(_v);
        out += '{';
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (i)
                out += ", ";
            escapeString(members[i].first, out);
            out += ": ";
            members[i].second.dumpTo(out);
        }
        out += '}';
        break;
      }
    }
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

namespace {

/** Recursive-descent parser over a bounded depth. */
class Parser
{
  public:
    Parser(const std::string &text) : _s(text) {}

    bool
    parseDocument(Json &out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        return _pos == _s.size();
    }

  private:
    void
    skipWs()
    {
        while (_pos < _s.size()
               && (_s[_pos] == ' ' || _s[_pos] == '\t'
                   || _s[_pos] == '\n' || _s[_pos] == '\r'))
            ++_pos;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (_s.compare(_pos, n, word) != 0)
            return false;
        _pos += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (_pos >= _s.size() || _s[_pos] != '"')
            return false;
        ++_pos;
        out.clear();
        while (_pos < _s.size()) {
            const char c = _s[_pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _s.size())
                return false;
            const char esc = _s[_pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (_pos + 4 > _s.size())
                    return false;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = _s[_pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        return false;
                }
                // The protocol only ships ASCII control escapes.
                if (code > 0x7F)
                    return false;
                out += char(code);
                break;
              }
              default:
                return false;
            }
        }
        return false;
    }

    bool
    parseNumber(Json &out)
    {
        const std::size_t start = _pos;
        bool is_double = false;
        if (_pos < _s.size() && _s[_pos] == '-')
            ++_pos;
        while (_pos < _s.size()) {
            const char c = _s[_pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++_pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+'
                       || c == '-') {
                is_double = true;
                ++_pos;
            } else {
                break;
            }
        }
        if (_pos == start)
            return false;
        const std::string tok = _s.substr(start, _pos - start);
        errno = 0;
        char *end = nullptr;
        if (is_double) {
            // Underflow reads as the nearest double (as in Python);
            // overflow has no finite value to read.
            const double d = std::strtod(tok.c_str(), &end);
            if (!std::isfinite(d) || end == nullptr || *end != '\0')
                return false;
            out = Json(d);
        } else if (tok[0] == '-') {
            const long long i = std::strtoll(tok.c_str(), &end, 10);
            if (errno != 0 || end == nullptr || *end != '\0')
                return false;
            // "-0" keeps its sign (as a double) so it re-dumps as -0.
            out = i == 0 ? Json(-0.0) : Json(std::int64_t(i));
        } else {
            const unsigned long long u =
                std::strtoull(tok.c_str(), &end, 10);
            if (errno != 0 || end == nullptr || *end != '\0')
                return false;
            out = Json(std::uint64_t(u));
        }
        return true;
    }

    bool
    parseValue(Json &out, int depth)
    {
        if (depth > Json::maxDepth || _pos >= _s.size())
            return false;
        const char c = _s[_pos];
        if (c == 'n') {
            out = Json();
            return literal("null");
        }
        if (c == 't') {
            out = Json(true);
            return literal("true");
        }
        if (c == 'f') {
            out = Json(false);
            return literal("false");
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json(std::move(s));
            return true;
        }
        if (c == '[') {
            ++_pos;
            out = Json::array();
            skipWs();
            if (_pos < _s.size() && _s[_pos] == ']') {
                ++_pos;
                return true;
            }
            for (;;) {
                Json item;
                skipWs();
                if (!parseValue(item, depth + 1))
                    return false;
                out.push(std::move(item));
                skipWs();
                if (_pos >= _s.size())
                    return false;
                if (_s[_pos] == ',') {
                    ++_pos;
                    continue;
                }
                if (_s[_pos] == ']') {
                    ++_pos;
                    return true;
                }
                return false;
            }
        }
        if (c == '{') {
            ++_pos;
            out = Json::object();
            skipWs();
            if (_pos < _s.size() && _s[_pos] == '}') {
                ++_pos;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (_pos >= _s.size() || _s[_pos] != ':')
                    return false;
                ++_pos;
                skipWs();
                Json value;
                if (!parseValue(value, depth + 1))
                    return false;
                out.set(key, std::move(value));
                skipWs();
                if (_pos >= _s.size())
                    return false;
                if (_s[_pos] == ',') {
                    ++_pos;
                    continue;
                }
                if (_s[_pos] == '}') {
                    ++_pos;
                    return true;
                }
                return false;
            }
        }
        return parseNumber(out);
    }

    const std::string &_s;
    std::size_t _pos = 0;
};

} // namespace

bool
Json::parse(const std::string &text, Json &out)
{
    return Parser(text).parseDocument(out);
}

} // namespace quest::sim
