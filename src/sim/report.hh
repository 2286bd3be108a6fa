/**
 * @file
 * The one writer of the committed BENCH_*.json files: a bench name,
 * top-level summary values (acceptance flags and counts) and a table
 * of rows, each row string fields plus named numeric metrics.
 *
 * The writer owns the format.  Summary values come out sorted by
 * name, rows sorted by key (the key itself is not written), fields in
 * the order given, metrics sorted by name.  Recording a key again
 * replaces its row, so a google-benchmark function that runs more
 * than once leaves its last run.  A number is the shortest text that
 * reads back as the same double, integers without an exponent; NaN
 * and infinities, which JSON cannot spell, are written as null.
 */

#pragma once

#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nectar::sim {

class Report
{
  public:
    using Fields = std::vector<std::pair<std::string, std::string>>;

    struct Row
    {
        Fields fields;
        std::map<std::string, double> metrics;

        /** Copy every (name, value) of @p counters into the metrics:
         *  google-benchmark's State::counters, or any map whose
         *  values convert to double. */
        template <typename Counters>
        Row &
        metricsFrom(const Counters &counters)
        {
            for (const auto &[name, value] : counters)
                metrics[name] = static_cast<double>(value);
            return *this;
        }
    };

    explicit Report(std::string bench) : _bench(std::move(bench)) {}

    /** Start the row under @p key, replacing any row recorded there. */
    Row &
    record(const std::string &key, Fields fields)
    {
        return _rows[key] = Row{std::move(fields), {}};
    }

    /** The row under @p key, or nullptr. */
    const Row *
    find(const std::string &key) const
    {
        auto it = _rows.find(key);
        return it == _rows.end() ? nullptr : &it->second;
    }

    const std::map<std::string, Row> &rows() const { return _rows; }

    void setValue(const std::string &k, double v) { _summary[k] = number(v); }
    void
    setFlag(const std::string &k, bool v)
    {
        _summary[k] = v ? "true" : "false";
    }

    std::string
    json() const
    {
        std::string out = "{\n  \"bench\": " + quoted(_bench);
        for (const auto &[name, value] : _summary)
            out += ",\n  " + quoted(name) + ": " + value;
        out += ",\n  \"rows\": [";
        const char *rowSep = "\n    {";
        for (const auto &[key, row] : _rows) {
            out += rowSep;
            rowSep = ",\n    {";
            const char *sep = "";
            for (const auto &[name, value] : row.fields) {
                out += sep + quoted(name) + ": " + quoted(value);
                sep = ", ";
            }
            for (const auto &[name, value] : row.metrics) {
                out += sep + quoted(name) + ": " + number(value);
                sep = ", ";
            }
            out += '}';
        }
        return out + (_rows.empty() ? "]\n}\n" : "\n  ]\n}\n");
    }

    /** Write json() to @p path; false if it could not be written. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path, std::ios::binary);
        return static_cast<bool>(out << json() << std::flush);
    }

  private:
    static std::string
    quoted(std::string_view s)
    {
        std::string out = "\"";
        for (char c : s) {
            auto u = static_cast<unsigned char>(c);
            if (u < 0x20) {
                out += "\\u00";
                out += "0123456789abcdef"[u >> 4];
                out += "0123456789abcdef"[u & 0xF];
                continue;
            }
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out + '"';
    }

    static std::string
    number(double v)
    {
        if (!std::isfinite(v))
            return "null";
        char buf[32];
        auto res = v == std::trunc(v) && std::fabs(v) < 1e15
                       ? std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::fixed, 0)
                       : std::to_chars(buf, buf + sizeof buf, v);
        return std::string(buf, res.ptr);
    }

    std::string _bench;
    std::map<std::string, std::string> _summary;
    std::map<std::string, Row> _rows;
};

} // namespace nectar::sim
