#include "fault/planio.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "sim/logging.hh"
#include "sim/parse.hh"

namespace nectar::fault {

namespace {

const char *
dirToken(Direction d)
{
    switch (d) {
      case Direction::toHub: return "toHub";
      case Direction::fromHub: return "fromHub";
      case Direction::both: return "both";
    }
    return "both";
}

bool
parseDir(const std::string &s, Direction &out)
{
    if (s == "toHub")
        out = Direction::toHub;
    else if (s == "fromHub")
        out = Direction::fromHub;
    else if (s == "both")
        out = Direction::both;
    else
        return false;
    return true;
}

bool
parseAction(const std::string &s, Action &out)
{
    static const Action all[] = {
        Action::hubLinkDown,  Action::hubLinkUp,
        Action::cabLinkDown,  Action::cabLinkUp,
        Action::burstStart,   Action::burstEnd,
        Action::hubPortStuck, Action::hubPortRestore,
        Action::cabCrash,     Action::cabRestart,
    };
    for (Action a : all) {
        if (s == actionName(a)) {
            out = a;
            return true;
        }
    }
    return false;
}

/** %.17g: enough digits to round-trip any IEEE-754 double. */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

[[noreturn]] void
badLine(int lineno, const std::string &line, const std::string &why)
{
    sim::fatal("parsePlan: line " + std::to_string(lineno) + ": " +
               why + ": '" + line + "'");
}

} // namespace

std::string
serializePlan(const FaultPlan &plan)
{
    std::ostringstream os;
    os << "nectar-fault-plan v1\n";
    os << "name " << plan.name << "\n";
    os << "seed " << plan.seed << "\n";
    for (const FaultEvent &e : plan.events) {
        os << "event at=" << e.at << " action=" << actionName(e.action)
           << " hub=" << e.hub << " port=" << static_cast<int>(e.port)
           << " site=" << e.site << " dir=" << dirToken(e.dir)
           << " burst=" << fmtDouble(e.burst.pGoodBad) << ","
           << fmtDouble(e.burst.pBadGood) << ","
           << fmtDouble(e.burst.lossGood) << ","
           << fmtDouble(e.burst.lossBad) << "\n";
    }
    os << "end\n";
    return os.str();
}

FaultPlan
parsePlan(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    auto next = [&]() -> bool {
        while (std::getline(is, line)) {
            ++lineno;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (!line.empty())
                return true;
        }
        return false;
    };

    if (!next() || line != "nectar-fault-plan v1")
        badLine(lineno, line, "missing or wrong header");

    FaultPlan plan;
    bool sawEnd = false;
    while (next()) {
        if (line == "end") {
            sawEnd = true;
            break;
        }
        std::istringstream ls(line);
        std::string kw;
        ls >> kw;
        if (kw == "name") {
            std::string rest;
            std::getline(ls, rest);
            if (!rest.empty() && rest.front() == ' ')
                rest.erase(0, 1);
            plan.name = rest;
        } else if (kw == "seed") {
            std::string seed, extra;
            if (!(ls >> seed) || (ls >> extra) ||
                !sim::parseWhole(seed, plan.seed))
                badLine(lineno, line, "bad seed");
        } else if (kw == "event") {
            FaultEvent e;
            bool sawAt = false, sawAction = false;
            std::string field;
            while (ls >> field) {
                auto eq = field.find('=');
                if (eq == std::string::npos)
                    badLine(lineno, line, "field without '='");
                std::string key = field.substr(0, eq);
                std::string val = field.substr(eq + 1);
                if (key == "at") {
                    if (!sim::parseWhole(val, e.at))
                        badLine(lineno, line, "bad at");
                    sawAt = true;
                } else if (key == "action") {
                    if (!parseAction(val, e.action))
                        badLine(lineno, line, "unknown action");
                    sawAction = true;
                } else if (key == "hub") {
                    if (!sim::parseWhole(val, e.hub))
                        badLine(lineno, line, "bad hub");
                } else if (key == "port") {
                    if (!sim::parseWhole(val, e.port))
                        badLine(lineno, line, "bad port");
                } else if (key == "site") {
                    if (!sim::parseWhole(val, e.site))
                        badLine(lineno, line, "bad site");
                } else if (key == "dir") {
                    if (!parseDir(val, e.dir))
                        badLine(lineno, line, "unknown dir");
                } else if (key == "burst") {
                    // Exactly four probabilities, each in [0, 1].
                    double p[4] = {};
                    std::string_view rest = val;
                    for (int i = 0; i < 4; ++i) {
                        std::size_t comma = rest.find(',');
                        if ((comma == std::string_view::npos) != (i == 3) ||
                            !sim::parseWhole(rest.substr(0, comma), p[i]) ||
                            p[i] < 0.0 || p[i] > 1.0)
                            badLine(lineno, line, "bad burst");
                        rest.remove_prefix(i < 3 ? comma + 1 : rest.size());
                    }
                    e.burst.pGoodBad = p[0];
                    e.burst.pBadGood = p[1];
                    e.burst.lossGood = p[2];
                    e.burst.lossBad = p[3];
                } else {
                    badLine(lineno, line, "unknown field '" + key + "'");
                }
            }
            if (!sawAt || !sawAction)
                badLine(lineno, line, "event needs at= and action=");
            plan.events.push_back(e);
        } else {
            badLine(lineno, line, "unknown keyword '" + kw + "'");
        }
    }
    if (!sawEnd)
        sim::fatal("parsePlan: missing 'end' terminator");
    return plan;
}

void
savePlan(const FaultPlan &plan, const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        sim::fatal("savePlan: cannot open '" + path + "'");
    out << serializePlan(plan);
    out.flush();
    if (!out)
        sim::fatal("savePlan: write failed for '" + path + "'");
}

FaultPlan
loadPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("loadPlan: cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return parsePlan(buf.str());
}

} // namespace nectar::fault
