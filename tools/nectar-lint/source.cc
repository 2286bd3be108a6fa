#include "source.hh"

#include <algorithm>
#include <cctype>
#include <regex>

namespace nectar::lint {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

Prepared
prepare(const std::string &text)
{
    Prepared p;
    p.code.reserve(text.size());
    p.comments.emplace_back();
    p.comments.emplace_back();
    p.hasCode.push_back(false);
    p.hasCode.push_back(false);

    enum class St { code, lineComment, blockComment, str, chr, rawStr };
    St st = St::code;
    std::string rawDelim; // for R"delim( ... )delim"
    std::size_t line = 1;

    auto newline = [&] {
        p.code.push_back('\n');
        ++line;
        p.comments.emplace_back();
        p.hasCode.push_back(false);
    };

    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        char next = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (st) {
        case St::code:
            if (c == '/' && next == '/') {
                st = St::lineComment;
                p.code += "  ";
                ++i;
            } else if (c == '/' && next == '*') {
                st = St::blockComment;
                p.code += "  ";
                ++i;
            } else if (c == '"' && i >= 1 && text[i - 1] == 'R') {
                // Raw string literal: find the delimiter up to '('.
                std::size_t paren = text.find('(', i + 1);
                rawDelim = paren == std::string::npos
                               ? std::string()
                               : text.substr(i + 1, paren - i - 1);
                st = St::rawStr;
                p.code.push_back(' ');
            } else if (c == '"') {
                st = St::str;
                p.code.push_back(' ');
            } else if (c == '\'' && !(i >= 1 && identChar(text[i - 1]))) {
                // A char literal, not a digit separator (1'000'000).
                st = St::chr;
                p.code.push_back(' ');
            } else if (c == '\n') {
                newline();
            } else {
                if (!std::isspace(static_cast<unsigned char>(c)))
                    p.hasCode[line] = true;
                p.code.push_back(c);
            }
            break;
        case St::lineComment:
            if (c == '\n') {
                st = St::code;
                newline();
            } else {
                p.comments[line].push_back(c);
                p.code.push_back(' ');
            }
            break;
        case St::blockComment:
            if (c == '*' && next == '/') {
                st = St::code;
                p.code += "  ";
                ++i;
            } else if (c == '\n') {
                newline();
            } else {
                p.comments[line].push_back(c);
                p.code.push_back(' ');
            }
            break;
        case St::str:
            if (c == '\\' && next != '\0') {
                p.code += "  ";
                ++i;
                if (next == '\n')
                    newline();
            } else if (c == '"') {
                st = St::code;
                p.code.push_back(' ');
            } else if (c == '\n') {
                newline(); // unterminated; recover per line
                st = St::code;
            } else {
                p.code.push_back(' ');
            }
            break;
        case St::chr:
            if (c == '\\' && next != '\0') {
                p.code += "  ";
                ++i;
            } else if (c == '\'') {
                st = St::code;
                p.code.push_back(' ');
            } else if (c == '\n') {
                newline();
                st = St::code;
            } else {
                p.code.push_back(' ');
            }
            break;
        case St::rawStr: {
            std::string close = ")" + rawDelim + "\"";
            if (text.compare(i, close.size(), close) == 0) {
                for (std::size_t k = 0; k < close.size(); ++k)
                    p.code.push_back(' ');
                i += close.size() - 1;
                st = St::code;
            } else if (c == '\n') {
                newline();
            } else {
                p.code.push_back(' ');
            }
            break;
        }
        }
    }
    return p;
}

int
lineOf(const std::string &code, std::size_t pos)
{
    return 1 + static_cast<int>(
                   std::count(code.begin(), code.begin() +
                              static_cast<std::ptrdiff_t>(pos), '\n'));
}

std::size_t
skipWs(const std::string &s, std::size_t i)
{
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
    return i;
}

std::size_t
prevNonWs(const std::string &s, std::size_t i)
{
    while (i > 0) {
        --i;
        if (!std::isspace(static_cast<unsigned char>(s[i])))
            return i;
    }
    return std::string::npos;
}

std::size_t
matchBracket(const std::string &code, std::size_t open)
{
    char o = code[open];
    char c = o == '(' ? ')' : o == '[' ? ']' : o == '{' ? '}' : '>';
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        if (code[i] == o) {
            ++depth;
        } else if (code[i] == c) {
            if (--depth == 0)
                return i + 1;
        }
    }
    return std::string::npos;
}

const std::map<std::string, std::string> &
tagToRule()
{
    static const std::map<std::string, std::string> m = {
        {"wallclock-ok", "D1"}, {"ordered-ok", "D2"},
        {"copy-ok", "D3"},      {"capture-ok", "D4"},
        {"raw-ticks-ok", "D5"}, {"global-ok", "D7"},
    };
    return m;
}

Suppressions
parseAnnotations(const Prepared &p, const std::string &file,
                 std::vector<Finding> &out)
{
    Suppressions sup;
    static const std::regex ann(
        R"(nectar-lint(-file)?\s*:\s*([A-Za-z0-9-]+)\s*(.*))");
    for (std::size_t ln = 1; ln < p.comments.size(); ++ln) {
        const std::string &comment = p.comments[ln];
        auto begin = std::sregex_iterator(comment.begin(),
                                          comment.end(), ann);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            bool fileWide = (*it)[1].matched;
            std::string tag = (*it)[2].str();
            std::string why = (*it)[3].str();
            auto rule = tagToRule().find(tag);
            if (rule == tagToRule().end()) {
                out.push_back({"A1", file, static_cast<int>(ln),
                               "unknown nectar-lint tag '" + tag +
                                   "'"});
                continue;
            }
            // Trim separators; a waiver must say *why*.
            while (!why.empty() &&
                   (std::isspace(static_cast<unsigned char>(
                        why.front())) ||
                    why.front() == '-' || why.front() == ':'))
                why.erase(why.begin());
            if (why.empty()) {
                out.push_back({"A1", file, static_cast<int>(ln),
                               "nectar-lint annotation '" + tag +
                                   "' needs a justification"});
                continue;
            }
            if (fileWide) {
                sup.wholeFile.insert(rule->second);
            } else {
                auto &s = sup.lines[rule->second];
                s.insert(static_cast<int>(ln));
                // A standalone annotation (possibly continued over
                // further comment lines) covers the next code line.
                std::size_t k = ln;
                while (k < p.hasCode.size() && !p.hasCode[k])
                    s.insert(static_cast<int>(++k));
            }
        }
    }
    return sup;
}

} // namespace nectar::lint
