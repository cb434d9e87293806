/**
 * @file
 * The repo's one JSON value type: every JSON document it writes
 * (BENCH_*.json, `quest verify --json`, --metrics-out, --trace-out,
 * fleet frames) is a Json built in memory and written by dump(), and
 * every JSON it reads goes through parse().
 *
 * One format: null/bool/unsigned/signed/double/string/array/object;
 * object keys keep insertion order; dump() writes a single line with
 * Python's default separators (", " and ": "); doubles print with
 * %.17g so finite values round-trip exactly, and non-finite doubles
 * (NaN, +-inf) print as null, which JSON has no other spelling for.
 * parse() is strict and bounded in depth, so malformed peer input
 * returns false rather than taking the process down.
 *
 * Determinism note: values whose exact bits matter across the fleet
 * wire (seeds, witness digests, floating-point partial sums) travel
 * as unsigned 64-bit integers — the double partials are bit-cast by
 * the caller (fleet/sweep.cpp) — so the merge never depends on
 * decimal round-tripping at all.
 */

#ifndef QUEST_SIM_JSON_HPP
#define QUEST_SIM_JSON_HPP

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace quest::sim {

/** A JSON value (tree-owning, copyable). */
class Json
{
    using Array = std::vector<Json>;
    using Object = std::vector<std::pair<std::string, Json>>;

  public:
    /** The stored alternative; the order matches the variant's. */
    enum class Type
    {
        Null,
        Bool,
        Uint,   ///< unsigned integer (parsed: non-negative literal)
        Int,    ///< signed integer (parsed: negative literal)
        Double, ///< parsed: literal with '.', 'e' or 'E', or -0
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(bool b) : _v(b) {}
    /** Any integer: unsigned types as Uint, signed ones as Int. */
    template <typename T>
        requires std::is_integral_v<T> && (!std::is_same_v<T, bool>)
    Json(T v)
        : _v(std::conditional_t<std::is_unsigned_v<T>, std::uint64_t,
                                std::int64_t>(v))
    {}
    Json(double d) : _v(d) {}
    Json(std::string s) : _v(std::move(s)) {}
    Json(const char *s) : Json(std::string(s)) {}

    static Json array() { Json j; j._v = Array(); return j; }
    static Json object() { Json j; j._v = Object(); return j; }

    Type type() const { return Type(_v.index()); }
    bool isNull() const { return type() == Type::Null; }
    bool isNumber() const
    {
        return type() == Type::Uint || type() == Type::Int
            || type() == Type::Double;
    }

    /** @name Typed accessors; fatal on type mismatch. */
    ///@{
    bool asBool() const;
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    double asDouble() const;
    const std::string &asString() const;
    ///@}

    /** @name Array access. */
    ///@{
    void push(Json v);
    /** Elements of an array, members of an object, else 0. */
    std::size_t size() const;
    const Json &at(std::size_t i) const;
    ///@}

    /** @name Object access (insertion-ordered). */
    ///@{
    Json &set(const std::string &key, Json v);
    bool has(const std::string &key) const;
    /** Fatal when the key is absent. */
    const Json &get(const std::string &key) const;
    /** Convenience getters with defaults for optional keys. */
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    ///@}

    /** Single-line serialization in the one format (file comment). */
    std::string dump() const;

    /**
     * Strict parse of one JSON document.
     * @return false (and leaves `out` unspecified) on malformed
     *         input — a fleet peer sending garbage must not take the
     *         manager down. Every accepted document re-dumps to a
     *         fixed point: dump(parse(dump(x))) == dump(x).
     */
    static bool parse(const std::string &text, Json &out);

    /** parse() rejects values nested in more containers than this. */
    static constexpr int maxDepth = 32;

  private:
    void dumpTo(std::string &out) const;

    std::variant<std::monostate, bool, std::uint64_t, std::int64_t,
                 double, std::string, Array, Object>
        _v;
};

} // namespace quest::sim

#endif // QUEST_SIM_JSON_HPP
