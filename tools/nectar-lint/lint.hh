/**
 * @file
 * nectar-lint: domain-rule static analysis for the nectar simulator.
 *
 * The simulator's trustworthiness rests on invariants that ordinary
 * C++ tooling cannot see: seeded determinism, the zero-copy
 * Buffer/PacketView ownership discipline on the packet path, and the
 * lifetime rules of deferred events.  nectar-lint is a small lexical
 * analyzer (comment/string-aware token scanning, not a full parser)
 * that enforces them mechanically:
 *
 *  - D1  no wall-clock time or unseeded randomness
 *        (std::random_device, rand()/srand(), system_clock, ...);
 *        all stochastic behaviour must draw from sim::Random.
 *  - D2  no iteration over std::unordered_{map,set} in simulation
 *        code: hash order is unspecified, so iterating one to
 *        schedule events or mutate sim state diverges across runs.
 *  - D3  no raw payload copies (memcpy, new[], owning
 *        std::vector<uint8_t>) inside the packet path
 *        (phys/hub/datalink/transport/cab); payload bytes flow
 *        through sim::Buffer/PacketView and are counted by
 *        sim::copyStats().
 *  - D4  no by-reference lambda captures passed into schedule():
 *        a deferred event may outlive the captured frame.
 *  - D5  no bare integer time literals at schedule sites; use named
 *        sim::ticks constants (e.g. 5 * ticks::us) so units are
 *        explicit.
 *  - D7  no mutable static-storage state in simulation code
 *        (namespace-scope variables, static data members, static
 *        locals, thread_local and constinit variables): one process
 *        builds many systems (every test, bench rung and fuzz seed),
 *        and state that outlives a system carries one run's history
 *        into the next.  thread_local is no exemption; the simulator
 *        is single-threaded, so every system shares it.
 *
 * Violations are suppressed with an annotation carrying a
 * justification (rule A1 rejects annotations without one):
 *
 *     riskyCall();  // nectar-lint: copy-ok CAB memory model, not payload
 *
 * A line annotation covers its own line, and the following line when
 * the annotation stands alone on its line.  A file-wide waiver uses
 * "nectar-lint-file:" with the same tag grammar:
 *
 *     // nectar-lint-file: capture-ok test frames outlive eq.run()
 *
 * Tags: wallclock-ok (D1), ordered-ok (D2), copy-ok (D3),
 * capture-ok (D4), raw-ticks-ok (D5), global-ok (D7).
 */

#pragma once

#include <string>
#include <vector>

namespace nectar::lint {

/** One rule violation (or A1 annotation error). */
struct Finding
{
    std::string rule;    ///< "D1".."D5", "D7", or "A1" (bad annotation).
    std::string file;    ///< Path as read by the linter.
    int line = 0;        ///< 1-based line number.
    std::string message; ///< Human-readable explanation.
};

/** One-line description of a rule id ("D1".."D5", "D7", "A1"). */
const char *ruleDescription(const std::string &rule);

/** A file to lint and the path its rules are scoped by. */
struct SourceFile
{
    std::string path;  ///< Where to read it; findings report it.
    std::string scope; ///< Matched against the rule scopes.
};

/**
 * The sources one command-line argument names.  A file is itself,
 * scoped by its path as given.  A directory is scanned recursively
 * for C++ sources (build trees, dot-directories and the lint corpus
 * are skipped), and each file is scoped by the directory's own name
 * and the path below it: the directories above the argument (a
 * checkout under ~/src, a parent named hub) switch no rule on.  A
 * plain relative directory keeps every component as given, so
 * `src/hub` scopes its files as src/hub/....
 *
 * @throws std::runtime_error if @p arg does not exist.
 */
std::vector<SourceFile> collectSources(const std::string &arg);

/**
 * Lint @p text as the contents of @p path.  D3 applies when a
 * directory of @p scope is a packet-path layer (phys, hub, datalink,
 * transport, cab), and D7 when one is src.
 *
 * @return Findings sorted by line, deduplicated by (rule, line).
 */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &text,
                                const std::string &scope);

/** lintSource() scoped by @p path itself. */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &text);

/** Read @p file and lint it.  @throws std::runtime_error on I/O error. */
std::vector<Finding> lintFile(const SourceFile &file);

/** lintFile() scoped by @p path itself. */
std::vector<Finding> lintFile(const std::string &path);

} // namespace nectar::lint
