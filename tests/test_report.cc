/**
 * @file
 * sim::Report, the writer of every BENCH_*.json: layout, escaping,
 * number format, row order and replacement, and byte-stable output.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "sim/report.hh"

namespace {

using nectar::sim::Report;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Report, WritesTheDocumentedLayout)
{
    Report r("demo");
    r.setFlag("all_ok", true);
    r.setValue("allocs", 0);
    r.record("x/1", {{"op", "x"}, {"fabric", "f1"}})
        .metricsFrom(std::map<std::string, double>{{"latency_us", 88.98},
                                                   {"count", 1e6}});
    EXPECT_EQ(r.json(), "{\n"
                        "  \"bench\": \"demo\",\n"
                        "  \"all_ok\": true,\n"
                        "  \"allocs\": 0,\n"
                        "  \"rows\": [\n"
                        "    {\"op\": \"x\", \"fabric\": \"f1\", "
                        "\"count\": 1000000, \"latency_us\": 88.98}\n"
                        "  ]\n"
                        "}\n");
    EXPECT_EQ(Report("empty").json(),
              "{\n  \"bench\": \"empty\",\n  \"rows\": []\n}\n");
}

TEST(Report, EscapesQuotesBackslashesAndControlCharacters)
{
    Report r("q\"b");
    r.record("k", {{"path", "C:\\tmp \"x\"\n\t\x01"}})
        .metrics["a\"b"] = 1;
    const std::string j = r.json();
    EXPECT_NE(j.find("\"bench\": \"q\\\"b\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"path\": "
                     "\"C:\\\\tmp \\\"x\\\"\\u000a\\u0009\\u0001\""),
              std::string::npos)
        << j;
    EXPECT_NE(j.find("\"a\\\"b\": 1"), std::string::npos) << j;
    for (char c : j)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << "raw control character in output";
}

TEST(Report, NonFiniteMetricIsNull)
{
    Report r("nf");
    auto &row = r.record("k", {});
    row.metrics["inf"] = std::numeric_limits<double>::infinity();
    row.metrics["neg_inf"] = -std::numeric_limits<double>::infinity();
    row.metrics["nan"] = std::nan("");
    r.setValue("ratio", std::numeric_limits<double>::quiet_NaN());
    const std::string j = r.json();
    EXPECT_NE(j.find("{\"inf\": null, \"nan\": null, \"neg_inf\": null}"),
              std::string::npos)
        << j;
    EXPECT_NE(j.find("\"ratio\": null"), std::string::npos) << j;
    EXPECT_EQ(j.find("inf,"), std::string::npos) << j;
}

TEST(Report, NumbersReadBackExactly)
{
    for (double v : {88.98, 29082.3125, 0.1, 1.0 / 3, -2.5e-7, 1e300,
                     123456.0, 18403.1}) {
        Report r("n");
        r.record("k", {}).metrics["v"] = v;
        const std::string j = r.json();
        EXPECT_EQ(std::stod(j.substr(j.find("\"v\": ") + 5)), v) << j;
    }
}

TEST(Report, RowsAreSortedAndRerecordingAKeyReplacesItsRow)
{
    Report r("order");
    r.record("b", {{"name", "first b"}}).metrics["z"] = 1;
    r.record("a", {{"name", "a"}}).metrics["m"] = 2;
    r.record("b", {{"name", "second b"}}).metrics["y"] = 3;
    ASSERT_EQ(r.rows().size(), 2u);
    const std::string j = r.json();
    const auto a = j.find("\"name\": \"a\"");
    const auto b = j.find("\"name\": \"second b\"");
    ASSERT_NE(a, std::string::npos) << j;
    ASSERT_NE(b, std::string::npos) << j;
    EXPECT_LT(a, b);
    EXPECT_EQ(j.find("first b"), std::string::npos) << j;
    EXPECT_EQ(j.find("\"z\""), std::string::npos) << j;
    ASSERT_NE(r.find("b"), nullptr);
    EXPECT_EQ(r.find("b")->metrics.at("y"), 3);
    EXPECT_EQ(r.find("c"), nullptr);

    // Metrics come out sorted by name, whatever the insertion order.
    Report m("metrics");
    auto &row = m.record("k", {});
    row.metrics["zeta"] = 1;
    row.metrics["alpha"] = 2;
    EXPECT_NE(m.json().find("{\"alpha\": 2, \"zeta\": 1}"),
              std::string::npos);
}

TEST(Report, TwoWritesAreByteIdentical)
{
    Report r("stable");
    r.setFlag("ok", false);
    for (int i = 0; i < 20; ++i)
        r.record("row" + std::to_string(i), {{"i", std::to_string(i)}})
            .metrics["third"] = i / 3.0;
    const std::string fa = "test_report_a.json";
    const std::string fb = "test_report_b.json";
    ASSERT_TRUE(r.write(fa));
    ASSERT_TRUE(r.write(fb));
    const std::string ja = slurp(fa), jb = slurp(fb);
    std::remove(fa.c_str());
    std::remove(fb.c_str());
    EXPECT_FALSE(ja.empty());
    EXPECT_EQ(ja, jb);
    EXPECT_EQ(ja, r.json());
    EXPECT_FALSE(r.write("no-such-dir/report.json"));
}

} // namespace
