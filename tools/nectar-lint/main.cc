/**
 * @file
 * nectar-lint command-line driver.
 *
 * Usage: nectar-lint [--explain] <file-or-dir>...
 *
 * Directories are scanned recursively for C++ sources; build trees,
 * dot-directories and the lint-corpus fixtures (which violate rules
 * on purpose) are skipped, and each file's rules are scoped by its
 * path below the directory (lint.hh, collectSources).  Files named
 * explicitly are always linted, corpus or not — that is how the
 * corpus tests drive the binary.  --explain prints one line per
 * rule.
 *
 * Exit status: 0 clean, 1 findings, 2 usage or I/O error.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "lint.hh"

using nectar::lint::Finding;
using nectar::lint::SourceFile;

namespace {

int
usage()
{
    std::cerr << "usage: nectar-lint [--explain] <file-or-dir>...\n"
                 "Checks the nectar-sim determinism and packet-path "
                 "rules D1-D5, D7 and A1;\n"
                 "see DESIGN.md.  --explain describes each rule.\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<SourceFile> files;
    bool explain = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--explain") {
            explain = true;
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            return usage();
        } else {
            try {
                auto found = nectar::lint::collectSources(a);
                files.insert(files.end(), found.begin(), found.end());
            } catch (const std::exception &e) {
                std::cerr << e.what() << "\n";
                return 2;
            }
        }
    }
    if (explain) {
        for (const char *r : {"D1", "D2", "D3", "D4", "D5", "D7", "A1"})
            std::cout << r << "  "
                      << nectar::lint::ruleDescription(r) << "\n";
        if (files.empty())
            return 0;
    }
    if (files.empty())
        return usage();

    std::sort(files.begin(), files.end(),
              [](const SourceFile &x, const SourceFile &y) {
                  return x.path < y.path;
              });
    std::size_t nFindings = 0, nFilesWithFindings = 0;
    for (const auto &f : files) {
        std::vector<Finding> findings;
        try {
            findings = nectar::lint::lintFile(f);
        } catch (const std::exception &e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
        if (!findings.empty())
            ++nFilesWithFindings;
        for (const auto &fd : findings) {
            ++nFindings;
            std::cout << fd.file << ":" << fd.line << ": ["
                      << fd.rule << "] " << fd.message << "\n";
        }
    }

    std::cout << "nectar-lint: " << nFindings << " finding(s) in "
              << nFilesWithFindings << " of " << files.size()
              << " file(s)\n";
    return nFindings == 0 ? 0 : 1;
}
