/**
 * @file
 * Tests for sim::Json, the one JSON writer and parser: round trips,
 * the fixed output format, strict rejection of malformed input, and
 * a seeded mutation fuzzer over dump() outputs — parse() reads fleet
 * peer input, so no byte sequence may crash it, and anything it
 * accepts must re-dump to a fixed point.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "sim/json.hpp"
#include "sim/random.hpp"

namespace {

using quest::sim::Json;
using quest::sim::Rng;

TEST(Json, RoundTripsNestedValues)
{
    Json obj = Json::object();
    obj.set("u", Json(std::uint64_t(0xFFFFFFFFFFFFFFFFull)));
    obj.set("i", Json(std::int64_t(-42)));
    obj.set("d", Json(0.1));
    obj.set("s", Json("line\n\"quote\"\\"));
    Json arr = Json::array();
    arr.push(Json(true));
    arr.push(Json());
    arr.push(Json(std::uint64_t(7)));
    obj.set("a", std::move(arr));

    Json back;
    ASSERT_TRUE(Json::parse(obj.dump(), back));
    EXPECT_EQ(back.get("u").asU64(), 0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(back.get("i").asI64(), -42);
    EXPECT_EQ(back.get("d").asDouble(), 0.1);
    EXPECT_EQ(back.get("s").asString(), "line\n\"quote\"\\");
    EXPECT_EQ(back.get("a").size(), 3u);
    EXPECT_TRUE(back.get("a").at(0).asBool());
    EXPECT_TRUE(back.get("a").at(1).isNull());
    // Serialization is stable: dump(parse(dump(x))) == dump(x).
    EXPECT_EQ(back.dump(), obj.dump());
}

TEST(Json, DumpsOneLineWithPythonSeparators)
{
    Json inner = Json::array();
    inner.push(1);
    inner.push(-2);
    inner.push(0.5);
    Json obj = Json::object();
    obj.set("a", std::move(inner)).set("b", "x").set("c", false);
    EXPECT_EQ(obj.dump(), "{\"a\": [1, -2, 0.5], \"b\": \"x\", "
                          "\"c\": false}");
    // Integer types keep their signedness whatever their width.
    EXPECT_EQ(Json(std::size_t(3)).type(), Json::Type::Uint);
    EXPECT_EQ(Json(std::uint32_t(3)).type(), Json::Type::Uint);
    EXPECT_EQ(Json(std::ptrdiff_t(-1)).type(), Json::Type::Int);
}

TEST(Json, NonFiniteDoublesDumpAsNull)
{
    Json obj = Json::object();
    obj.set("nan", std::numeric_limits<double>::quiet_NaN())
        .set("inf", std::numeric_limits<double>::infinity())
        .set("ninf", -std::numeric_limits<double>::infinity())
        .set("p99", 2.5);
    const std::string text = obj.dump();
    EXPECT_EQ(text, "{\"nan\": null, \"inf\": null, \"ninf\": null, "
                    "\"p99\": 2.5}");

    Json back;
    ASSERT_TRUE(Json::parse(text, back));
    EXPECT_TRUE(back.get("nan").isNull());
    EXPECT_TRUE(back.get("inf").isNull());
    EXPECT_TRUE(back.get("ninf").isNull());
    EXPECT_EQ(back.get("p99").asDouble(), 2.5);
}

TEST(Json, RejectsMalformedInput)
{
    Json out;
    EXPECT_FALSE(Json::parse("", out));
    EXPECT_FALSE(Json::parse("{", out));
    EXPECT_FALSE(Json::parse("{\"a\":}", out));
    EXPECT_FALSE(Json::parse("[1,2,]", out));
    EXPECT_FALSE(Json::parse("0x10", out));
    EXPECT_FALSE(Json::parse("{} trailing", out));
    EXPECT_FALSE(Json::parse("\"unterminated", out));
    EXPECT_FALSE(Json::parse("nan", out));
    EXPECT_FALSE(Json::parse("1e999", out));
    // Depth bomb: must fail parsing, not the stack.
    EXPECT_FALSE(Json::parse(std::string(200, '[') + "1"
                                 + std::string(200, ']'),
                             out));
}

/** `leaf` wrapped in `depth` arrays. */
std::string
nested(int depth, const std::string &leaf)
{
    return std::string(std::size_t(depth), '[') + leaf
        + std::string(std::size_t(depth), ']');
}

TEST(Json, DepthLimitIsExact)
{
    Json out;
    ASSERT_TRUE(Json::parse(nested(Json::maxDepth, "1"), out));
    EXPECT_EQ(out.dump(), nested(Json::maxDepth, "1"));
    EXPECT_FALSE(Json::parse(nested(Json::maxDepth + 1, "1"), out));
    EXPECT_FALSE(Json::parse(nested(100000, "1"), out));
}

/** Documents shaped like the ones the repo writes and the fleet reads. */
std::vector<std::string>
fuzzCorpus()
{
    std::vector<std::string> corpus;

    Json metrics = Json::object();
    metrics.set("decode.mwpm.calls", std::uint64_t(1234))
        .set("decode.mwpm.latency_ns.mean", 4321.0625)
        .set("decode.mwpm.latency_ns.p99", 1e-300)
        .set("fault.rate", std::numeric_limits<double>::quiet_NaN())
        .set("trace.overhead", -0.0)
        .set("big", 1.7976931348623157e308);
    corpus.push_back(metrics.dump());

    Json diag = Json::object();
    diag.set("code", "fifo.length")
        .set("severity", "error")
        .set("sub_cycle", std::int64_t(-1))
        .set("message", "tab\there \"quoted\" \\ \x01\x1f end");
    Json diagnostics = Json::array();
    diagnostics.push(diag);
    diagnostics.push(diag);
    Json report = Json::object();
    report.set("ok", false)
        .set("errors", std::uint64_t(2))
        .set("passes", Json::array())
        .set("diagnostics", std::move(diagnostics));
    corpus.push_back(report.dump());

    Json frame = Json::object();
    Json partials = Json::array();
    for (std::uint64_t v : {0ull, 1ull, 0x3FF0000000000000ull,
                            0xFFFFFFFFFFFFFFFFull})
        partials.push(v);
    frame.set("type", "result")
        .set("task", std::uint64_t(17))
        .set("partials", std::move(partials))
        .set("empty", Json::object());
    corpus.push_back(frame.dump());

    // Leaves at exactly maxDepth: one more bracket is a rejection.
    corpus.push_back(
        nested(Json::maxDepth - 2, "{\"k\": [true, null]}"));
    corpus.push_back("[-9223372036854775808, 18446744073709551615, "
                     "5e-324, -0, 1E+2, 0.5]");
    return corpus;
}

/** One random edit: bit flip, truncation, insertion or slice copy. */
void
mutate(std::string &text, Rng &rng)
{
    static const std::string alphabet = "{}[]:,\"\\-+.eE0123456789 nultrfu";
    const std::size_t n = text.size();
    switch (rng.uniformInt(4)) {
      case 0:
        if (n)
            text[rng.uniformInt(n)] ^=
                char(1u << rng.uniformInt(8));
        break;
      case 1:
        text.resize(rng.uniformInt(n + 1));
        break;
      case 2: {
        const char c = rng.bernoulli(0.75)
            ? alphabet[rng.uniformInt(alphabet.size())]
            : char(rng.uniformInt(256));
        text.insert(text.begin() + std::ptrdiff_t(rng.uniformInt(n + 1)),
                    c);
        break;
      }
      default:
        if (n) {
            const std::size_t from = rng.uniformInt(n);
            const std::size_t len = rng.uniformInt(n - from) + 1;
            text.insert(rng.uniformInt(n + 1),
                        text.substr(from, len));
        }
        break;
    }
}

TEST(JsonFuzz, MutatedDocumentsParseOrRejectAndRedumpToFixedPoint)
{
    const std::vector<std::string> corpus = fuzzCorpus();
    Rng rng(0x15017u);
    std::size_t accepted = 0, rejected = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        std::string text = corpus[rng.uniformInt(corpus.size())];
        const std::uint64_t edits = rng.uniformInt(4) + 1;
        for (std::uint64_t e = 0; e < edits; ++e)
            mutate(text, rng);

        Json doc;
        if (!Json::parse(text, doc)) {
            ++rejected;
            continue;
        }
        ++accepted;
        const std::string once = doc.dump();
        Json again;
        ASSERT_TRUE(Json::parse(once, again))
            << "dump of an accepted document does not parse: " << once;
        ASSERT_EQ(again.dump(), once) << "input: " << text;
    }
    // The mutator must exercise both outcomes to mean anything.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);

    // Unmutated corpus documents are accepted and already fixed.
    for (const std::string &text : corpus) {
        Json doc;
        ASSERT_TRUE(Json::parse(text, doc)) << text;
        Json again;
        ASSERT_TRUE(Json::parse(doc.dump(), again));
        EXPECT_EQ(again.dump(), doc.dump());
    }
}

} // namespace
