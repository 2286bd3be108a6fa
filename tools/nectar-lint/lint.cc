#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "source.hh"

namespace nectar::lint {

namespace {

/** Directories of the zero-copy packet path, where D3 applies. */
constexpr const char *packetPathDirs[] = {
    "phys", "hub", "datalink", "transport", "cab",
};

/** The directory of simulation code, where D7 applies (tools and
 *  tests may keep process-wide state). */
constexpr const char *simulationDir = "src";

/** True when a directory component of @p scope is named @p dir. */
bool
underDir(const std::string &scope, const char *dir)
{
    std::size_t begin = 0;
    for (std::size_t end = scope.find('/'); end != std::string::npos;
         begin = end + 1, end = scope.find('/', begin))
        if (scope.compare(begin, end - begin, dir) == 0)
            return true;
    return false;
}

bool
isSourceFile(const std::filesystem::path &p)
{
    static const std::set<std::string> exts = {
        ".cc", ".hh", ".cpp", ".hpp", ".h", ".cxx",
    };
    return exts.count(p.extension().string()) > 0;
}

bool
skippedDir(const std::filesystem::path &p)
{
    std::string name = p.filename().string();
    return name.empty() || name.front() == '.' ||
           name.rfind("build", 0) == 0 || name == "lint_corpus" ||
           name == "CMakeFiles" || name == "Testing";
}

/** The path a directory argument's files are scoped under: the
 *  argument as given when it is a plain relative path, otherwise its
 *  own name alone. */
std::filesystem::path
scopeRoot(const std::filesystem::path &dir)
{
    auto normal = [](const std::filesystem::path &p) {
        std::filesystem::path n = p.lexically_normal();
        return n.has_filename() ? n : n.parent_path();
    };
    std::filesystem::path base = normal(dir);
    if (base.is_relative() && !base.empty() && *base.begin() != "..")
        return base;
    return normal(std::filesystem::absolute(dir)).filename();
}

// --------------------------------------------------------------------
// D1 — wall-clock time and unseeded randomness.
// --------------------------------------------------------------------

void
scanWallClock(const Prepared &p, const std::string &file,
              std::vector<Finding> &out)
{
    // The time(nullptr) family includes taking the time through an
    // out-parameter (time(&t)) and the broken-down-time converters,
    // all of which smuggle wall-clock state into the simulation.
    static const std::regex pat(
        R"(\brand\s*\(|\bsrand\s*\(|\brandom_device\b|\bsystem_clock\b)"
        R"(|\bsteady_clock\b|\bhigh_resolution_clock\b)"
        R"(|\bgettimeofday\b|\bclock_gettime\b)"
        R"(|\btime\s*\(\s*(nullptr|NULL|0|&\s*\w+)\s*\))"
        R"(|\blocaltime(_r)?\s*\(|\bgmtime(_r)?\s*\(|\bmktime\s*\()"
        R"(|\bctime(_r)?\s*\(|\basctime(_r)?\s*\(|\btimespec_get\s*\()"
        R"(|\bclock\s*\(\s*\)|\bsrandom\s*\(|\brandom\s*\(\s*\))"
        R"(|\bgetrandom\s*\(|\bgetentropy\s*\(|\barc4random\w*\s*\()");
    auto begin = std::sregex_iterator(p.code.begin(), p.code.end(),
                                      pat);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
        std::size_t pos = static_cast<std::size_t>(it->position());
        out.push_back(
            {"D1", file, lineOf(p.code, pos),
             "wall-clock or unseeded randomness '" +
                 it->str().substr(0, it->str().find('(')) +
                 "'; draw from a seeded sim::Random instead"});
    }
}

// --------------------------------------------------------------------
// D2 — iteration over unordered containers.
// --------------------------------------------------------------------

void
scanUnorderedIteration(const Prepared &p, const std::string &file,
                       std::vector<Finding> &out)
{
    const std::string &code = p.code;

    // Pass 1: names declared with an unordered container type.
    std::set<std::string> names;
    static const std::regex decl(R"(\bunordered_(map|set)\s*<)");
    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        decl);
         it != std::sregex_iterator(); ++it) {
        std::size_t open =
            static_cast<std::size_t>(it->position()) +
            it->str().size() - 1;
        std::size_t after = matchBracket(code, open);
        if (after == std::string::npos)
            continue;
        std::size_t i = skipWs(code, after);
        if (i >= code.size() || !identChar(code[i]) ||
            std::isdigit(static_cast<unsigned char>(code[i])))
            continue;
        std::size_t j = i;
        while (j < code.size() && identChar(code[j]))
            ++j;
        std::size_t k = skipWs(code, j);
        if (k < code.size() && code[k] == '(')
            continue; // a function returning the container
        names.insert(code.substr(i, j - i));
    }

    auto report = [&](std::size_t pos, const std::string &what) {
        out.push_back(
            {"D2", file, lineOf(code, pos),
             "iteration over unordered container " + what +
                 ": hash order is unspecified and diverges runs; "
                 "use an ordered container, sort first, or annotate "
                 "'nectar-lint: ordered-ok <why>'"});
    };

    // Pass 2: range-for whose range names one of them (or is itself
    // an unordered container expression).
    static const std::regex rfor(R"(\bfor\s*\()");
    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        rfor);
         it != std::sregex_iterator(); ++it) {
        std::size_t open =
            static_cast<std::size_t>(it->position()) +
            it->str().size() - 1;
        std::size_t close = matchBracket(code, open);
        if (close == std::string::npos)
            continue;
        std::string head = code.substr(open + 1, close - open - 2);
        // Top-level ':' that is not part of '::'.
        std::size_t colon = std::string::npos;
        int depth = 0;
        for (std::size_t i = 0; i < head.size(); ++i) {
            char c = head[i];
            if (c == '(' || c == '[' || c == '{')
                ++depth;
            else if (c == ')' || c == ']' || c == '}')
                --depth;
            else if (c == ':' && depth == 0) {
                if ((i + 1 < head.size() && head[i + 1] == ':') ||
                    (i > 0 && head[i - 1] == ':')) {
                    continue;
                }
                colon = i;
                break;
            }
        }
        if (colon == std::string::npos)
            continue;
        std::string range = head.substr(colon + 1);
        bool hit = range.find("unordered_") != std::string::npos;
        for (const auto &n : names) {
            if (hit)
                break;
            std::regex word("\\b" + n + "\\b");
            if (std::regex_search(range, word))
                hit = true;
        }
        if (hit)
            report(open + 1 + colon, "in range-for");
    }

    // Pass 3: explicit iterator walks: name.begin() / name->begin().
    for (const auto &n : names) {
        std::regex iter("\\b" + n +
                        R"(\s*(\.|->)\s*c?(begin|end)\s*\()");
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            iter);
             it != std::sregex_iterator(); ++it) {
            report(static_cast<std::size_t>(it->position()),
                   "'" + n + "' via begin()/end()");
        }
    }
}

// --------------------------------------------------------------------
// D3 — raw payload copies on the packet path.
// --------------------------------------------------------------------

void
scanPacketCopies(const Prepared &p, const std::string &file,
                 std::vector<Finding> &out)
{
    const std::string &code = p.code;

    static const std::regex cp(R"(\bmemcpy\s*\(|\bnew\b[^;(){}=]*\[)");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), cp);
         it != std::sregex_iterator(); ++it) {
        std::size_t pos = static_cast<std::size_t>(it->position());
        bool isNew = code.compare(pos, 3, "new") == 0;
        out.push_back(
            {"D3", file, lineOf(code, pos),
             std::string(isNew ? "array new" : "memcpy") +
                 " on the packet path; payload bytes must flow "
                 "through sim::Buffer/PacketView (copies are counted "
                 "via sim::copyStats), or annotate "
                 "'nectar-lint: copy-ok <why>'"});
    }

    // Owning std::vector<uint8_t> objects (declarations, temporaries,
    // return types).  References, pointers and nested template
    // arguments are fine: they do not own a payload copy.
    static const std::regex vec(R"(\bvector\s*<)");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), vec);
         it != std::sregex_iterator(); ++it) {
        std::size_t open =
            static_cast<std::size_t>(it->position()) +
            it->str().size() - 1;
        std::size_t after = matchBracket(code, open);
        if (after == std::string::npos)
            continue;
        std::string inner =
            code.substr(open + 1, after - open - 2);
        inner.erase(std::remove_if(inner.begin(), inner.end(),
                                   [](char c) {
                                       return std::isspace(
                                           static_cast<unsigned char>(
                                               c));
                                   }),
                    inner.end());
        if (inner != "std::uint8_t" && inner != "uint8_t")
            continue;
        std::size_t i = skipWs(code, after);
        if (i >= code.size())
            continue;
        char c = code[i];
        if (c == '&' || c == '*' || c == '>' || c == ',' ||
            c == ')' || c == ';')
            continue;
        out.push_back(
            {"D3", file,
             lineOf(code, static_cast<std::size_t>(it->position())),
             "owning std::vector<uint8_t> on the packet path; hold a "
             "sim::Buffer/PacketView instead, or annotate "
             "'nectar-lint: copy-ok <why>'"});
    }
}

// --------------------------------------------------------------------
// D4 / D5 — schedule() call-site rules.
// --------------------------------------------------------------------

bool
lambdaIntroAt(const std::string &code, std::size_t pos,
              std::size_t extentBegin)
{
    std::size_t prev = prevNonWs(code, pos);
    if (prev == std::string::npos || prev < extentBegin)
        return true;
    char c = code[prev];
    // After an identifier, ')' or ']', a '[' is indexing.
    return !(identChar(c) || c == ')' || c == ']');
}

void
scanScheduleSites(const Prepared &p, const std::string &file,
                  std::vector<Finding> &out)
{
    const std::string &code = p.code;
    static const std::regex call(
        R"(\b(schedule|scheduleIn|spawn)\s*\()");
    static const std::regex bareInt(
        R"(^(0[xX][0-9a-fA-F']+|[0-9][0-9']*)([uUlL]*)$)");

    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        call);
         it != std::sregex_iterator(); ++it) {
        const std::string callee = (*it)[1].str();
        // spawn() defers its argument like schedule() does (the
        // coroutine frame runs across later ticks), so D4's capture
        // rule applies — but its argument is a Task, not a tick, so
        // D5's bare-integer rule does not.
        const bool isSpawn = callee == "spawn";
        std::size_t open =
            static_cast<std::size_t>(it->position()) +
            it->str().size() - 1;
        std::size_t close = matchBracket(code, open);
        if (close == std::string::npos)
            continue;

        // D5: first top-level argument is a bare integer literal.
        int depth = 0;
        std::size_t argEnd = close - 1;
        for (std::size_t i = open + 1; i < close - 1; ++i) {
            char c = code[i];
            if (c == '(' || c == '[' || c == '{' || c == '<')
                ++depth;
            else if (c == ')' || c == ']' || c == '}' || c == '>')
                --depth;
            else if (c == ',' && depth == 0) {
                argEnd = i;
                break;
            }
        }
        std::string arg = code.substr(open + 1, argEnd - open - 1);
        std::string trimmed;
        for (char c : arg)
            if (!std::isspace(static_cast<unsigned char>(c)))
                trimmed.push_back(c);
        if (!isSpawn && std::regex_match(trimmed, bareInt)) {
            out.push_back(
                {"D5", file, lineOf(code, skipWs(code, open + 1)),
                 "bare integer time literal '" + trimmed +
                     "' at a schedule site; use named sim::ticks "
                     "constants (e.g. 5 * ticks::us, "
                     "ticks::immediate)"});
        }

        // D4: by-reference capture in a lambda literal inside the
        // argument list.
        for (std::size_t i = open + 1; i < close - 1; ++i) {
            if (code[i] != '[')
                continue;
            std::size_t end = matchBracket(code, i);
            if (end == std::string::npos || end > close)
                break;
            if (!lambdaIntroAt(code, i, open + 1)) {
                i = end - 1;
                continue;
            }
            // A lambda intro is followed by '(' or '{' (or
            // specifiers); require one within a few tokens.
            std::size_t k = skipWs(code, end);
            bool isLambda =
                k < code.size() &&
                (code[k] == '(' || code[k] == '{' ||
                 code.compare(k, 7, "mutable") == 0 ||
                 code.compare(k, 9, "noexcept") == 0 ||
                 code.compare(k, 2, "->") == 0);
            std::string captures = code.substr(i + 1, end - i - 2);
            if (isLambda &&
                captures.find('&') != std::string::npos) {
                // Anchor at the call, not the lambda: multi-line
                // calls put the lambda lines below the site the
                // annotation naturally precedes.
                out.push_back(
                    {"D4", file,
                     lineOf(code,
                            static_cast<std::size_t>(it->position())),
                     "by-reference lambda capture passed to " +
                         callee +
                         "(): the deferred " +
                         (isSpawn ? "coroutine" : "event") +
                         " may outlive the captured frame; capture "
                         "by value or annotate "
                         "'nectar-lint: capture-ok <why>'"});
            }
            i = end - 1;
        }
    }
}

// --------------------------------------------------------------------
// D7 — mutable static-storage state.
//
// One process builds many systems: every test in a binary, every
// bench rung, every fuzz seed.  A variable with static storage
// outlives each of them, so what one run leaves in it reaches the
// next, and a result comes to depend on what ran before.  The
// scanner tracks brace scopes lexically (namespace, class,
// function/block, initializer) and parses a declaration at the start
// of every namespace-scope statement and at every `static` or
// `thread_local` inside a class or function.  One that introduces a
// variable without const/constexpr is a finding.  thread_local and
// constinit do not exempt it: the simulator is single-threaded, so a
// thread_local is shared by every system the thread builds, and
// constinit only fixes how the variable starts.
// --------------------------------------------------------------------

enum class ScopeKind { ns, cls, fn, init };

/** Classify the '{' at @p open by looking back at its head. */
ScopeKind
classifyBrace(const std::string &code, std::size_t open)
{
    std::size_t j = prevNonWs(code, open);
    if (j == std::string::npos)
        return ScopeKind::init;
    char c = code[j];
    if (c == ')')
        return ScopeKind::fn; // function body or control statement
    if (c == '=' || c == ',' || c == '(' || c == '[' || c == '{')
        return ScopeKind::init; // braced initializer / init list
    // Scan the head back to the previous statement boundary.
    std::size_t stop = j;
    while (stop > 0 && code[stop - 1] != ';' && code[stop - 1] != '{' &&
           code[stop - 1] != '}')
        --stop;
    std::string head = code.substr(stop, open - stop);
    static const std::regex nsRe(R"(\b(namespace|extern)\b)");
    static const std::regex clsRe(R"(\b(class|struct|union|enum)\b)");
    static const std::regex blkRe(R"(\b(else|do|try|catch)\s*$)");
    // A body after a qualified parameter list: `f() const {`,
    // `[n]() mutable {`.
    static const std::regex qualRe(
        R"(\)\s*((const|noexcept|override|final|mutable)\s*)+$)");
    if (std::regex_search(head, nsRe))
        return ScopeKind::ns;
    if (std::regex_search(head, clsRe))
        return ScopeKind::cls;
    if (std::regex_search(head, blkRe) || std::regex_search(head, qualRe) ||
        c == ':')
        return ScopeKind::fn;
    return ScopeKind::init;
}

/** @p code with preprocessor lines (and their continuations) blanked,
 *  so a directive never reads as part of the statement after it. */
std::string
blankDirectives(std::string code)
{
    bool inDirective = false;
    std::size_t begin = 0;
    while (begin < code.size()) {
        std::size_t end = code.find('\n', begin);
        if (end == std::string::npos)
            end = code.size();
        std::size_t first = skipWs(code, begin);
        if (inDirective || (first < end && code[first] == '#')) {
            std::size_t last = prevNonWs(code, end);
            inDirective = last != std::string::npos && last >= begin &&
                          code[last] == '\\';
            std::fill(code.begin() + static_cast<std::ptrdiff_t>(begin),
                      code.begin() + static_cast<std::ptrdiff_t>(end),
                      ' ');
        }
        begin = end + 1;
    }
    return code;
}

/** A declaration parsed from a candidate start. */
struct Declaration
{
    bool variable = false; ///< Introduces a mutable variable.
    bool qualified = false; ///< Its name is qualified (`A::b`).
    std::size_t end = 0;   ///< Where the declarator ended.
};

/**
 * Parse the declaration starting at @p begin: scan to the first of
 * ';', '=', '{' (a variable) or '(' (a function, unless it opens a
 * function-pointer declarator like `void (*f)() = nullptr`, or an
 * initializer list that starts with a numeric literal like
 * `Random rng(42)`: a parameter list never does).
 */
Declaration
parseDeclaration(const std::string &code, std::size_t begin)
{
    Declaration d;
    std::size_t i = begin;
    bool sawDeclarator = false, decided = false;
    while (i < code.size() && !decided) {
        char c = code[i];
        if (c == ';' || c == '=' || c == '{') {
            decided = true;
            d.variable = true;
        } else if (c == '(') {
            std::size_t nx = skipWs(code, i + 1);
            if (sawDeclarator ||
                (nx < code.size() && (code[nx] == '*' || code[nx] == '&'))) {
                // A function-pointer declarator, or the parameter
                // list after one: it belongs to the variable's type.
                sawDeclarator = true;
                std::size_t end = matchBracket(code, i);
                if (end == std::string::npos)
                    break;
                i = end;
                continue;
            }
            decided = true;
            // A parenthesised initializer, or a function declaration.
            d.variable = nx < code.size() &&
                         std::isdigit(static_cast<unsigned char>(code[nx]));
        } else if (c == '<') {
            std::size_t end = matchBracket(code, i);
            if (end == std::string::npos)
                break;
            i = end;
            continue;
        } else {
            ++i;
            continue;
        }
    }
    d.end = i;
    if (!d.variable)
        return d;

    std::string decl = code.substr(begin, i - begin);
    static const std::regex stopWords(
        R"(\b(const|constexpr|consteval)"
        R"(|using|typedef|friend|operator|template|namespace)"
        R"(|class|struct|union|enum|void|return)\b)");
    for (auto wt = std::sregex_iterator(decl.begin(), decl.end(),
                                        stopWords);
         wt != std::sregex_iterator(); ++wt) {
        std::string w = wt->str();
        // A function-pointer declarator is a variable no matter what
        // its return type spells; const state cannot be written.
        if (w.rfind("const", 0) == 0 || !sawDeclarator) {
            d.variable = false;
            return d;
        }
    }
    // A declaration names a type and a variable: a lone word (the
    // `x` of `struct {...} x;`, `extern "C"`) or a stray list tail is
    // not one the scanner can read.
    static const std::regex name(R"([A-Za-z_]\w*(\s*::\s*[A-Za-z_]\w*)*)");
    int names = 0;
    std::string last;
    for (auto it = std::sregex_iterator(decl.begin(), decl.end(), name);
         it != std::sregex_iterator(); ++it) {
        ++names;
        last = it->str();
    }
    d.variable = names >= 2;
    d.qualified = last.find("::") != std::string::npos;
    return d;
}

void
scanGlobalState(const Prepared &p, const std::string &file,
                std::vector<Finding> &out)
{
    const std::string code = blankDirectives(p.code);

    static const std::regex kw(R"(\b(static|thread_local)\b)");
    std::vector<std::size_t> keywords;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kw);
         it != std::sregex_iterator(); ++it)
        keywords.push_back(static_cast<std::size_t>(it->position()));

    // One pass over the code maintaining the scope stack: collect
    // each candidate start with the scope it occurs in.
    std::vector<std::pair<std::size_t, ScopeKind>> starts;
    std::vector<ScopeKind> stack; // empty = global scope (ns)
    auto scope = [&] {
        return stack.empty() ? ScopeKind::ns : stack.back();
    };
    bool atStatement = true;
    std::size_t k = 0;
    for (std::size_t i = 0; i < code.size(); ++i) {
        char c = code[i];
        while (k < keywords.size() && keywords[k] < i)
            ++k;
        if (k < keywords.size() && keywords[k] == i &&
            (scope() == ScopeKind::cls || scope() == ScopeKind::fn))
            starts.emplace_back(i, scope());
        if (std::isspace(static_cast<unsigned char>(c)))
            continue;
        if (atStatement && c != ';' && c != '{' && c != '}')
            starts.emplace_back(i, ScopeKind::ns);
        if (c == '{')
            stack.push_back(classifyBrace(code, i));
        else if (c == '}' && !stack.empty())
            stack.pop_back();
        atStatement = (c == ';' || c == '{' || c == '}') &&
                      scope() == ScopeKind::ns;
    }

    std::size_t lastEnd = std::string::npos;
    for (const auto &[pos, where] : starts) {
        Declaration d = parseDeclaration(code, pos);
        // `static thread_local int n;` starts twice; report it once.
        if (!d.variable || d.end == lastEnd)
            continue;
        lastEnd = d.end;
        const char *kind =
            where == ScopeKind::fn ? "function-local static"
            : where == ScopeKind::cls || d.qualified
                ? "static data member"
                : "namespace-scope variable";
        out.push_back(
            {"D7", file, lineOf(code, pos),
             std::string("mutable ") + kind +
                 ": it outlives every system the process builds, so "
                 "one run's state reaches the next (thread_local "
                 "too: the simulator is single-threaded); move it "
                 "into the system or a component, make it const, or "
                 "annotate 'nectar-lint: global-ok <why>'"});
    }
}

} // namespace

// --------------------------------------------------------------------
// Public interface.
// --------------------------------------------------------------------

const char *
ruleDescription(const std::string &rule)
{
    if (rule == "D1")
        return "no wall-clock time or unseeded randomness";
    if (rule == "D2")
        return "no iteration over unordered containers in sim code";
    if (rule == "D3")
        return "no raw payload copies on the packet path";
    if (rule == "D4")
        return "no by-reference lambda captures into "
               "schedule()/spawn()";
    if (rule == "D5")
        return "no bare integer time literals at schedule sites";
    if (rule == "D7")
        return "no mutable static-storage state in simulation code";
    if (rule == "A1")
        return "annotations need a known tag and a justification";
    return "unknown rule";
}

std::vector<SourceFile>
collectSources(const std::string &arg)
{
    namespace fs = std::filesystem;
    const fs::path root(arg);
    if (!fs::is_directory(root)) {
        if (!fs::exists(root))
            throw std::runtime_error("nectar-lint: no such file: " + arg);
        return {{arg, arg}};
    }
    const fs::path base = scopeRoot(root);
    std::vector<SourceFile> files;
    auto it = fs::recursive_directory_iterator(
        root, fs::directory_options::skip_permission_denied);
    for (auto end = fs::end(it); it != end; ++it) {
        if (it->is_directory()) {
            if (skippedDir(it->path()))
                it.disable_recursion_pending();
            continue;
        }
        if (it->is_regular_file() && isSourceFile(it->path()))
            files.push_back(
                {it->path().string(),
                 (base / it->path().lexically_relative(root))
                     .generic_string()});
    }
    return files;
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &text)
{
    return lintSource(path, text, path);
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &text,
           const std::string &scope)
{
    Prepared p = prepare(text);

    std::vector<Finding> raw;
    Suppressions sup = parseAnnotations(p, path, raw);

    scanWallClock(p, path, raw);
    scanUnorderedIteration(p, path, raw);
    for (const char *dir : packetPathDirs)
        if (underDir(scope, dir)) {
            scanPacketCopies(p, path, raw);
            break;
        }
    scanScheduleSites(p, path, raw);
    if (underDir(scope, simulationDir))
        scanGlobalState(p, path, raw);

    std::vector<Finding> out;
    std::set<std::pair<std::string, int>> seen;
    std::stable_sort(raw.begin(), raw.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.line < b.line;
                     });
    for (auto &f : raw) {
        if (f.rule != "A1" && sup.covers(f.rule, f.line))
            continue;
        if (!seen.insert({f.rule, f.line}).second)
            continue;
        out.push_back(std::move(f));
    }
    return out;
}

std::vector<Finding>
lintFile(const SourceFile &file)
{
    std::ifstream in(file.path, std::ios::binary);
    if (!in)
        throw std::runtime_error("nectar-lint: cannot read " +
                                 file.path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return lintSource(file.path, ss.str(), file.scope);
}

std::vector<Finding>
lintFile(const std::string &path)
{
    return lintFile(SourceFile{path, path});
}

} // namespace nectar::lint
