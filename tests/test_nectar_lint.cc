/**
 * @file
 * Tests for the nectar-lint static-analysis pass.
 *
 * Two layers: the corpus tests lint the one-rule-per-file fixtures in
 * tests/lint_corpus/ and assert the exact (rule, line) findings — if
 * any of D1–D5, D7 or A1 stops firing, the corresponding test fails.  The
 * inline tests feed lintSource() small snippets to pin down the edge
 * cases (literals in comments/strings, annotation coverage, the
 * packet-path filter).
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "lint.hh"

using nectar::lint::collectSources;
using nectar::lint::Finding;
using nectar::lint::lintFile;
using nectar::lint::lintSource;

namespace {

std::vector<std::pair<std::string, int>>
ruleLines(const std::vector<Finding> &findings)
{
    std::vector<std::pair<std::string, int>> out;
    for (const auto &f : findings)
        out.emplace_back(f.rule, f.line);
    return out;
}

std::vector<std::pair<std::string, int>>
lintCorpus(const std::string &relative)
{
    std::string path =
        std::string(NECTAR_LINT_CORPUS_DIR) + "/" + relative;
    return ruleLines(lintFile(path));
}

using Expected = std::vector<std::pair<std::string, int>>;

} // namespace

// --------------------------------------------------------------------
// Corpus: each fixture violates exactly one rule, and the findings
// must match rule ids and line numbers exactly.
// --------------------------------------------------------------------

TEST(LintCorpus, D1WallClockSourcesAllFire)
{
    EXPECT_EQ(lintCorpus("d1_wallclock.cc"),
              (Expected{{"D1", 10}, {"D1", 11}, {"D1", 12}, {"D1", 13}}));
}

TEST(LintCorpus, D2UnorderedIterationFires)
{
    EXPECT_EQ(lintCorpus("d2_unordered_iter.cc"),
              (Expected{{"D2", 11}, {"D2", 13}}));
}

TEST(LintCorpus, D3PacketPathCopiesFire)
{
    // The fixture lives under lint_corpus/hub/, so the packet-path
    // directory filter matches and all three copy forms fire.
    EXPECT_EQ(lintCorpus("hub/d3_copies.cc"),
              (Expected{{"D3", 11}, {"D3", 12}, {"D3", 13}}));
}

TEST(LintCorpus, D4ReferenceCapturesFire)
{
    // Findings anchor at the schedule-call line, not the lambda line.
    EXPECT_EQ(lintCorpus("d4_ref_capture.cc"),
              (Expected{{"D4", 9}, {"D4", 11}}));
}

TEST(LintCorpus, D4SpawnReferenceCapturesFire)
{
    // spawn() sites obey the same capture rule as schedule(); the
    // bare-int task argument on the last line must not trip D5.
    EXPECT_EQ(lintCorpus("d4_spawn_capture.cc"),
              (Expected{{"D4", 13}, {"D4", 14}}));
}

TEST(LintCorpus, D5BareTickLiteralsFire)
{
    // Digit separators, hex and suffixed literals all count as bare.
    EXPECT_EQ(lintCorpus("d5_bare_ticks.cc"),
              (Expected{{"D5", 8}, {"D5", 9}, {"D5", 10}}));
}

TEST(LintCorpus, A1BadAnnotationsFire)
{
    EXPECT_EQ(lintCorpus("a1_bad_annotation.cc"),
              (Expected{{"A1", 2}, {"A1", 3}}));
}

TEST(LintCorpus, CleanCounterExamplesStaySilent)
{
    EXPECT_EQ(lintCorpus("clean.cc"), Expected{});
}

TEST(LintCorpus, JustifiedAnnotationsSuppress)
{
    EXPECT_EQ(lintCorpus("annotated.cc"), Expected{});
}

// --------------------------------------------------------------------
// Inline edge cases.
// --------------------------------------------------------------------

TEST(LintSource, LiteralsInCommentsAndStringsAreIgnored)
{
    std::string src = "// rand() memcpy schedule(5, x)\n"
                      "const char *s = \"std::random_device\";\n"
                      "const char *r = R\"(system_clock)\";\n";
    EXPECT_TRUE(lintSource("x.cc", src).empty());
}

TEST(LintSource, VariableDelayAndUnitExpressionsPassD5)
{
    std::string src = "void f(EQ &eq, Tick d) {\n"
                      "    eq.scheduleIn(d, [] {});\n"
                      "    eq.scheduleIn(3 * ticks::us, [] {});\n"
                      "    eq.schedule(ticks::immediate, [] {});\n"
                      "}\n";
    EXPECT_TRUE(lintSource("x.cc", src).empty());
}

TEST(LintSource, IndexingIsNotALambdaIntro)
{
    // arr[&x - p] after an identifier is indexing, not a capture.
    std::string src = "void f(EQ &eq, Tick d, int *arr, int *p) {\n"
                      "    int x = 0;\n"
                      "    eq.scheduleIn(d, cb[&x - p]);\n"
                      "}\n";
    EXPECT_TRUE(lintSource("x.cc", src).empty());
}

TEST(LintSource, MultiLineScheduleAnchorsAtCallLine)
{
    std::string src = "void f(EQ &eq, Tick d) {\n"
                      "    int n = 0;\n"
                      "    eq.scheduleIn(\n"
                      "        d,\n"
                      "        [&n] { ++n; });\n"
                      "}\n";
    auto found = ruleLines(lintSource("x.cc", src));
    EXPECT_EQ(found, (Expected{{"D4", 3}}));
}

TEST(LintSource, AnnotationCoversNextCodeLine)
{
    std::string src = "void f(EQ &eq, Tick d) {\n"
                      "    int n = 0;\n"
                      "    // nectar-lint: capture-ok queue drained\n"
                      "    // before n goes out of scope\n"
                      "    eq.scheduleIn(\n"
                      "        d, [&n] { ++n; });\n"
                      "}\n";
    EXPECT_TRUE(lintSource("x.cc", src).empty());
}

TEST(LintSource, PacketPathFilterGatesD3)
{
    // A local: at namespace scope under src/, D7 reads `held(64, 0)`
    // as a mutable global too.
    std::string src =
        "void f() { std::vector<std::uint8_t> held(64, 0); }\n";
    EXPECT_TRUE(lintSource("src/workload/w.cc", src).empty());
    auto found = ruleLines(lintSource("src/transport/t.cc", src));
    EXPECT_EQ(found, (Expected{{"D3", 1}}));
}

TEST(LintSource, NonOwningVectorUsesPassD3)
{
    std::string src =
        "void g(const std::vector<std::uint8_t> &in,\n"
        "       std::vector<std::uint8_t> *out);\n"
        "struct T { std::map<int, std::vector<std::uint8_t>> table; };\n";
    EXPECT_TRUE(lintSource("src/transport/t.cc", src).empty());
}

TEST(LintSource, FileWideAnnotationDoesNotCrossRules)
{
    std::string src = "// nectar-lint-file: raw-ticks-ok demo ticks\n"
                      "void f(EQ &eq) {\n"
                      "    int n = 0;\n"
                      "    eq.schedule(5, [&n] { ++n; });\n"
                      "}\n";
    // D5 is waived file-wide; the D4 capture still fires.
    EXPECT_EQ(ruleLines(lintSource("x.cc", src)),
              (Expected{{"D4", 4}}));
}

TEST(LintSource, A1IsNeverSuppressed)
{
    std::string src = "// nectar-lint-file: wallclock-ok everything\n"
                      "// nectar-lint: bogus-tag whatever\n"
                      "int x = 0;\n";
    EXPECT_EQ(ruleLines(lintSource("x.cc", src)),
              (Expected{{"A1", 2}}));
}

TEST(LintSource, RuleDescriptionsExist)
{
    for (const char *rule : {"D1", "D2", "D3", "D4", "D5", "D7", "A1"}) {
        ASSERT_NE(nectar::lint::ruleDescription(rule), nullptr);
        EXPECT_NE(std::string(nectar::lint::ruleDescription(rule)), "");
    }
}

// --------------------------------------------------------------------
// D1 extension: the time()/localtime() family and kernel entropy.
// --------------------------------------------------------------------

TEST(LintCorpus, D1TimeFamilyFires)
{
    EXPECT_EQ(lintCorpus("d1_time_family.cc"),
              (Expected{{"D1", 10},
                        {"D1", 11},
                        {"D1", 12},
                        {"D1", 13},
                        {"D1", 15},
                        {"D1", 16},
                        {"D1", 17}}));
}

TEST(LintSource, TimeOfAVariableIsNotWallClock)
{
    // time(&t) is wall clock; runtime(x) and a member named time are
    // not calls into the libc time family.
    std::string src = "void f(T &sim, long x) {\n"
                      "    long a = sim.runtime(x);\n"
                      "    long b = sim.time;\n"
                      "    (void)a; (void)b;\n"
                      "}\n";
    EXPECT_TRUE(lintSource("x.cc", src).empty());
    EXPECT_EQ(ruleLines(lintSource(
                  "x.cc", "long g() { long t; return time(&t); }\n")),
              (Expected{{"D1", 1}}));
}

// --------------------------------------------------------------------
// D7 — mutable global / static state.
// --------------------------------------------------------------------

TEST(LintCorpus, D7GlobalStateFires)
{
    // Namespace-scope inline/static/extern variables (including the
    // function-pointer hook), static data members, mutable
    // function-local statics (one in a const member function),
    // namespace-scope variables with no storage keyword (named and
    // anonymous namespaces), an out-of-line static data member
    // definition, constinit and thread_local variables at every
    // scope, and variables initialised in parentheses; const/constexpr
    // and the annotated declaration stay silent.
    EXPECT_EQ(lintCorpus("src/d7_global_state.cc"),
              (Expected{{"D7", 8},
                        {"D7", 9},
                        {"D7", 10},
                        {"D7", 11},
                        {"D7", 15},
                        {"D7", 22},
                        {"D7", 29},
                        {"D7", 38},
                        {"D7", 51},
                        {"D7", 54},
                        {"D7", 58},
                        {"D7", 61},
                        {"D7", 66},
                        {"D7", 70},
                        {"D7", 71},
                        {"D7", 77},
                        {"D7", 81},
                        {"D7", 82}}));
}

TEST(LintSource, D7AppliesOnlyUnderSimulationDirs)
{
    std::string src = "namespace x {\nstatic int hits = 0;\n}\n";
    EXPECT_EQ(ruleLines(lintSource("src/hub/h.cc", src)),
              (Expected{{"D7", 2}}));
    EXPECT_TRUE(lintSource("tools/t.cc", src).empty());
    EXPECT_TRUE(lintSource("tests/helpers/h.hh", src).empty());
}

TEST(LintSource, D7ConstAndThreadLocalPass)
{
    // Only const passes: one thread runs every system, so a
    // thread_local is as shared as any other global.
    std::string src = "static const int a = 1;\n"
                      "static constexpr int b = 2;\n"
                      "static thread_local int c = 3;\n"
                      "inline void f() { static int d = 4; ++d; }\n";
    EXPECT_EQ(ruleLines(lintSource("src/sim/s.hh", src)),
              (Expected{{"D7", 3}, {"D7", 4}}));
}

TEST(LintSource, D7StaticFunctionsAndClassesPass)
{
    std::string src = "static int helper(int x) { return x + 1; }\n"
                      "static inline int twice(int x)\n"
                      "{\n"
                      "    return helper(helper(x));\n"
                      "}\n";
    EXPECT_TRUE(lintSource("src/sim/s.cc", src).empty());
}

TEST(LintSource, D7NamespaceScopeFunctionsAndTypesPass)
{
    // Every namespace-scope statement is read as a declaration; only
    // the mutable variable at the end may fire.
    std::string src = "#include \"sim/x.hh\"\n"
                      "#define TWICE(x) \\\n"
                      "    ((x) * 2)\n"
                      "namespace n {\n"
                      "using Id = int;\n"
                      "class Box;\n"
                      "enum class Mode : int { a, b };\n"
                      "struct Pair { int a; int b; };\n"
                      "int f(int x);\n"
                      "Pair make(int a) { return Pair{a, a}; }\n"
                      "int Box::size() const { return 1; }\n"
                      "static_assert(sizeof(int) == 4);\n"
                      "const Pair origin{0, 0};\n"
                      "Pair last{1, 2};\n"
                      "} // namespace n\n";
    EXPECT_EQ(ruleLines(lintSource("src/sim/s.cc", src)),
              (Expected{{"D7", 14}}));
}

TEST(LintSource, D7FunctionDeclarationsPassParenthesisedGlobalsFire)
{
    // A parameter list never starts with a numeric literal, so `(42`
    // is an initializer; declarations with parameters or none pass.
    std::string src = "namespace n {\n"
                      "int f(int);\n"
                      "void g();\n"
                      "sim::Random rng(42);\n"
                      "std::vector<int> seen(16, 0);\n"
                      "} // namespace n\n";
    EXPECT_EQ(ruleLines(lintSource("src/sim/s.cc", src)),
              (Expected{{"D7", 4}, {"D7", 5}}));
}

TEST(LintSource, RetiredTagsFailA1)
{
    // mediated-ok and foreign-ref-ok waived the retired access-graph
    // rules; a waiver that still names one is an unknown tag.
    std::string src = "// nectar-lint: mediated-ok fiber chokepoint\n"
                      "int a = 0;\n"
                      "// nectar-lint: foreign-ref-ok wired by the builder\n"
                      "int b = 0;\n";
    EXPECT_EQ(ruleLines(lintSource("x.cc", src)),
              (Expected{{"A1", 1}, {"A1", 3}}));
}

// --------------------------------------------------------------------
// Rule scopes: the path below the linted directory.
// --------------------------------------------------------------------

TEST(LintPaths, DirectoriesAboveTheArgumentScopeNoRule)
{
    // A checkout under a directory named src (or hub) must lint as
    // any other: the D3 and D7 fixtures fire under the checkout's
    // src/ exactly as they do at an ordinary path, and not at all
    // under its tests/.
    namespace fs = std::filesystem;
    const fs::path corpus(NECTAR_LINT_CORPUS_DIR);
    const fs::path tmp = fs::path(testing::TempDir()) /
        ("nectar-lint-scope-" + std::to_string(::getpid()));
    fs::remove_all(tmp);
    const std::pair<const char *, const char *> placed[] = {
        {"hub/d3_copies.cc", "src/hub/d3_copies.cc"},
        {"src/d7_global_state.cc", "src/sim/d7_global_state.cc"},
        {"hub/d3_copies.cc", "tests/d3_copies.cc"},
        {"src/d7_global_state.cc", "tests/d7_global_state.cc"},
    };
    for (const char *parent : {"src", "hub"}) {
        const fs::path checkout = tmp / parent / "nectar";
        for (const auto &[fixture, where] : placed) {
            fs::create_directories((checkout / where).parent_path());
            fs::copy_file(corpus / fixture, checkout / where);
        }
        for (const auto &[arg, total] :
             {std::pair<const char *, std::size_t>{"src", 3 + 18},
              {"tests", 0}}) {
            std::size_t found = 0;
            for (const auto &file :
                 collectSources((checkout / arg).string())) {
                const std::string ordinary =
                    fs::path(file.path)
                        .lexically_relative(checkout)
                        .generic_string();
                std::ifstream in(file.path);
                std::stringstream text;
                text << in.rdbuf();
                const auto findings = ruleLines(lintFile(file));
                EXPECT_EQ(findings,
                          ruleLines(lintSource(ordinary, text.str())))
                    << parent << "/nectar/" << ordinary;
                found += findings.size();
            }
            EXPECT_EQ(found, total) << parent << "/nectar/" << arg;
        }
    }
    fs::remove_all(tmp);
}
