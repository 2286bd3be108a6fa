/**
 * @file
 * Source preparation for the nectar-lint rule scanners (lint.cc).
 *
 * Every scanner relies on two services:
 *
 *  - prepare(): blank comments and string/char literals so scanners
 *    only ever see code, while preserving newlines (positions map to
 *    the original lines) and collecting comment text per line;
 *  - parseAnnotations(): the annotation grammar
 *    ("// nectar-lint: <tag> <why>" and the file-wide
 *    "nectar-lint-file:" form), shared so a waiver works the same
 *    way for every rule.
 *
 * The helpers here operate on the blanked code, so bracket matching
 * and token scans cannot be confused by literals.
 */

#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.hh"

namespace nectar::lint {

/** A source file with comments and literals blanked out. */
struct Prepared
{
    /** Source with comments and literal contents replaced by spaces;
     *  newlines preserved so positions map to the original lines. */
    std::string code;
    /** Comment text concatenated per 1-based line. */
    std::vector<std::string> comments; // [0] unused
    /** True when the line holds any non-comment, non-space code. */
    std::vector<bool> hasCode; // [0] unused
};

/** Blank comments/literals in @p text; collect comments per line. */
Prepared prepare(const std::string &text);

/** True for identifier characters [A-Za-z0-9_]. */
bool identChar(char c);

/** 1-based line number of position @p pos in @p code. */
int lineOf(const std::string &code, std::size_t pos);

/** Skip whitespace (including newlines) forward from @p i. */
std::size_t skipWs(const std::string &s, std::size_t i);

/** Previous non-whitespace position before @p i, or npos. */
std::size_t prevNonWs(const std::string &s, std::size_t i);

/**
 * Position one past the bracket that closes the one at @p open
 * (code[open] must be '(', '[', '{' or '<'), or npos when unmatched.
 * Operates on blanked code, so literals cannot confuse the count.
 */
std::size_t matchBracket(const std::string &code, std::size_t open);

/** Annotation tag -> rule id ("global-ok" -> "D7", ...). */
const std::map<std::string, std::string> &tagToRule();

/** Parsed per-file rule waivers. */
struct Suppressions
{
    /** rule -> exact lines waived. */
    std::map<std::string, std::set<int>> lines;
    /** rules waived for the whole file. */
    std::set<std::string> wholeFile;

    bool
    covers(const std::string &rule, int line) const
    {
        if (wholeFile.count(rule))
            return true;
        auto it = lines.find(rule);
        return it != lines.end() && it->second.count(line) > 0;
    }
};

/**
 * Parse "nectar-lint:" annotations from @p p's comments.  Malformed
 * annotations (unknown tag, missing justification) append A1
 * findings to @p out.
 */
Suppressions parseAnnotations(const Prepared &p,
                              const std::string &file,
                              std::vector<Finding> &out);

} // namespace nectar::lint
