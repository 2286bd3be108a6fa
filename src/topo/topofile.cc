#include "topo/topofile.hh"

#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "sim/logging.hh"

namespace nectar::topo {

namespace {

[[noreturn]] void
parseFatal(int line, const std::string &what)
{
    sim::fatal("parseTopology: line " + std::to_string(line) + ": " +
               what);
}

/** Split a line into whitespace-separated tokens. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string tok;
    while (in >> tok)
        out.push_back(tok);
    return out;
}

/** Parse a non-negative integer; fatal with the line number. */
std::int64_t
parseInt(const std::string &s, int line, const std::string &what)
{
    constexpr std::int64_t maxValue = std::int64_t{1} << 60;
    if (s.empty())
        parseFatal(line, "empty " + what);
    std::int64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            parseFatal(line, "bad " + what + " '" + s + "'");
        // Bound before the multiply, so v * 10 can never overflow.
        if (v > (maxValue - (c - '0')) / 10)
            parseFatal(line, what + " out of range: '" + s + "'");
        v = v * 10 + (c - '0');
    }
    return v;
}

/** parseInt for a field stored as an int: fatal past INT_MAX, so the
 *  value can never wrap on the way in. */
int
parseIntField(const std::string &s, int line, const std::string &what)
{
    std::int64_t v = parseInt(s, line, what);
    if (v > std::numeric_limits<int>::max())
        parseFatal(line, what + " out of range: '" + s + "'");
    return static_cast<int>(v);
}

/** Parse "<hub>.<port>" against the declared hubs. */
std::pair<int, hub::PortId>
parseAttach(const TopologyDescription &d, const std::string &s,
            int line)
{
    auto dot = s.rfind('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 == s.size())
        parseFatal(line, "expected <hub>.<port>, got '" + s + "'");
    std::string hubName = s.substr(0, dot);
    int h = d.hubIndexByName(hubName);
    if (h < 0)
        parseFatal(line, "unknown HUB '" + hubName + "'");
    return {h, parseIntField(s.substr(dot + 1), line, "port")};
}

/** Parse trailing key=value options into a map; fatal on others. */
std::map<std::string, std::string>
parseOptions(const std::vector<std::string> &toks, std::size_t from,
             int line, const std::string &allowed)
{
    std::map<std::string, std::string> out;
    for (std::size_t i = from; i < toks.size(); ++i) {
        auto eq = toks[i].find('=');
        if (eq == std::string::npos || eq == 0)
            parseFatal(line, "expected key=value, got '" + toks[i] +
                                 "'");
        std::string key = toks[i].substr(0, eq);
        if (allowed.find(" " + key + " ") == std::string::npos)
            parseFatal(line, "unknown option '" + key + "'");
        if (!out.emplace(key, toks[i].substr(eq + 1)).second)
            parseFatal(line, "duplicate option '" + key + "'");
    }
    return out;
}

std::int64_t
optInt(const std::map<std::string, std::string> &opts,
       const std::string &key, std::int64_t dflt, int line)
{
    auto it = opts.find(key);
    if (it == opts.end())
        return dflt;
    return parseInt(it->second, line, key);
}

int
optIntField(const std::map<std::string, std::string> &opts,
            const std::string &key, int dflt, int line)
{
    auto it = opts.find(key);
    if (it == opts.end())
        return dflt;
    return parseIntField(it->second, line, key);
}

/** Run a generator; its errors (too many HUBs, too few ports) name
 *  the generate line. */
template <typename Build>
TopologyDescription
generateAt(int line, Build build)
{
    try {
        return build();
    } catch (const sim::FatalError &e) {
        // what() opens with "fatal: ", which parseFatal adds again.
        parseFatal(line, std::string(e.what()).substr(sizeof "fatal: " - 1));
    }
}

/** Expand a `generate <kind> k=v...` line via the generators. */
TopologyDescription
expandGenerate(const std::vector<std::string> &toks, int line,
               const std::string &fabricName, int hubPorts)
{
    if (toks.size() < 2)
        parseFatal(line, "generate needs a kind");
    const std::string &kind = toks[1];
    TopologyDescription d;
    if (kind == "mesh2d" || kind == "torus2d") {
        auto opts = parseOptions(toks, 2, line,
                                 " rows cols cabs latency ");
        int rows = optIntField(opts, "rows", 0, line);
        int cols = optIntField(opts, "cols", 0, line);
        int cabs = optIntField(opts, "cabs", 0, line);
        sim::Tick lat = optInt(opts, "latency", 0, line);
        if (rows < 1 || cols < 1)
            parseFatal(line, "generate " + kind +
                                 " needs rows= and cols=");
        d = generateAt(line, [&] {
            return kind == "mesh2d"
                       ? describeMesh2D(rows, cols, cabs, lat, hubPorts)
                       : describeTorus2D(rows, cols, cabs, lat, hubPorts);
        });
    } else if (kind == "fattree") {
        auto opts = parseOptions(toks, 2, line,
                                 " spines leaves cabs latency ");
        int spines = optIntField(opts, "spines", 0, line);
        int leaves = optIntField(opts, "leaves", 0, line);
        int cabs = optIntField(opts, "cabs", 0, line);
        sim::Tick lat = optInt(opts, "latency", 0, line);
        if (spines < 1 || leaves < 1)
            parseFatal(line, "generate fattree needs spines= and "
                             "leaves=");
        d = generateAt(line, [&] {
            return describeFatTree(spines, leaves, cabs, lat, hubPorts);
        });
    } else if (kind == "random") {
        auto opts = parseOptions(toks, 2, line,
                                 " seed hubs degree cabs latency ");
        std::uint64_t seed = static_cast<std::uint64_t>(
            optInt(opts, "seed", 1, line));
        int hubs = optIntField(opts, "hubs", 0, line);
        int degree = optIntField(opts, "degree", 0, line);
        int cabs = optIntField(opts, "cabs", 0, line);
        sim::Tick lat = optInt(opts, "latency", 0, line);
        if (hubs < 2 || degree < 2)
            parseFatal(line, "generate random needs hubs= and "
                             "degree=");
        d = generateAt(line, [&] {
            return describeRandomRegular(seed, hubs, degree, cabs, lat,
                                         hubPorts);
        });
    } else {
        parseFatal(line, "unknown generate kind '" + kind + "'");
    }
    if (!fabricName.empty())
        d.name = fabricName;
    return d;
}

} // namespace

TopologyDescription
parseTopology(const std::string &text)
{
    std::istringstream in(text);
    std::string raw;
    int lineNo = 0;

    TopologyDescription d;
    d.name.clear();
    bool sawVersion = false, sawEnd = false, sawGenerate = false;
    bool generated = false;

    while (std::getline(in, raw)) {
        ++lineNo;
        auto hash = raw.find('#');
        if (hash != std::string::npos)
            raw.erase(hash);
        auto toks = tokenize(raw);
        if (toks.empty())
            continue;
        if (sawEnd)
            parseFatal(lineNo, "content after end");

        if (!sawVersion) {
            if (toks.size() != 2 || toks[0] != "nectar-topo")
                parseFatal(lineNo,
                           "expected 'nectar-topo v1' header");
            if (toks[1] != "v1")
                parseFatal(lineNo, "unsupported version '" + toks[1] +
                                       "'");
            sawVersion = true;
            continue;
        }

        const std::string &kw = toks[0];
        if (kw == "end") {
            if (toks.size() != 1)
                parseFatal(lineNo, "end takes no arguments");
            sawEnd = true;
            continue;
        }
        if (sawGenerate)
            parseFatal(lineNo, "generate must be the only body line");

        if (kw == "fabric") {
            if (toks.size() != 2)
                parseFatal(lineNo, "fabric takes one name");
            if (!d.name.empty())
                parseFatal(lineNo, "duplicate fabric line");
            d.name = toks[1];
        } else if (kw == "ports") {
            if (toks.size() != 2)
                parseFatal(lineNo, "ports takes one count");
            if (d.hubPorts != 0)
                parseFatal(lineNo, "duplicate ports line");
            d.hubPorts = parseIntField(toks[1], lineNo, "port count");
            if (d.hubPorts < 1 || d.hubPorts > 256)
                parseFatal(lineNo, "ports must be in [1, 256]");
        } else if (kw == "generate") {
            if (!d.hubs.empty() || !d.trunks.empty() ||
                !d.cabs.empty())
                parseFatal(lineNo,
                           "generate cannot mix with hub/trunk/cab");
            d = expandGenerate(toks, lineNo, d.name, d.hubPorts);
            sawGenerate = true;
            generated = true;
        } else if (kw == "hub") {
            if (toks.size() != 2)
                parseFatal(lineNo, "hub takes one name");
            if (d.hubIndexByName(toks[1]) >= 0)
                parseFatal(lineNo, "duplicate HUB '" + toks[1] + "'");
            d.hubs.push_back(HubDecl{toks[1]});
        } else if (kw == "trunk") {
            if (toks.size() < 3)
                parseFatal(lineNo,
                           "trunk takes two attachment points");
            auto [a, pa] = parseAttach(d, toks[1], lineNo);
            auto [b, pb] = parseAttach(d, toks[2], lineNo);
            auto opts =
                parseOptions(toks, 3, lineNo, " latency width ");
            d.trunks.push_back(
                TrunkDecl{a, pa, b, pb,
                          optInt(opts, "latency", 0, lineNo),
                          optIntField(opts, "width", 1, lineNo)});
        } else if (kw == "cab") {
            if (toks.size() < 3)
                parseFatal(lineNo,
                           "cab takes a name and an attachment");
            auto [h, p] = parseAttach(d, toks[2], lineNo);
            auto opts = parseOptions(toks, 3, lineNo, " latency ");
            std::string name = toks[1] == "-" ? "" : toks[1];
            d.cabs.push_back(CabDecl{
                name, h, p, optInt(opts, "latency", 0, lineNo)});
        } else {
            parseFatal(lineNo, "unknown keyword '" + kw + "'");
        }
    }

    if (!sawVersion)
        parseFatal(lineNo, "missing 'nectar-topo v1' header");
    if (!sawEnd)
        parseFatal(lineNo, "missing end line (truncated file?)");
    if (d.name.empty())
        d.name = generated ? d.name : "fabric";
    if (d.name.empty())
        d.name = "fabric";
    d.validate();
    return d;
}

std::string
formatTopology(const TopologyDescription &d)
{
    d.validate();
    std::ostringstream out;
    out << "# Nectar fabric description.\n";
    out << "nectar-topo v1\n";
    out << "fabric " << d.name << "\n";
    if (d.hubPorts != 0)
        out << "ports " << d.hubPorts << "\n";
    for (int i = 0; i < d.numHubs(); ++i)
        out << "hub " << d.hubNameAt(i) << "\n";
    for (const TrunkDecl &t : d.trunks) {
        out << "trunk " << d.hubNameAt(t.a) << "." << t.pa << " "
            << d.hubNameAt(t.b) << "." << t.pb;
        if (t.latency != 0)
            out << " latency=" << t.latency;
        if (t.width != 1)
            out << " width=" << t.width;
        out << "\n";
    }
    for (const CabDecl &c : d.cabs) {
        out << "cab " << (c.name.empty() ? "-" : c.name) << " "
            << d.hubNameAt(c.hub) << "." << c.port;
        if (c.latency != 0)
            out << " latency=" << c.latency;
        out << "\n";
    }
    out << "end\n";
    return out.str();
}

TopologyDescription
loadTopologyFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("loadTopologyFile: cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return parseTopology(text.str());
}

void
saveTopologyFile(const TopologyDescription &d, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        sim::fatal("saveTopologyFile: cannot open " + path);
    out << formatTopology(d);
    if (!out)
        sim::fatal("saveTopologyFile: write failed for " + path);
}

} // namespace nectar::topo
