/**
 * @file
 * nectar-lint command-line driver.
 *
 * Usage: nectar-lint [--explain] <file-or-dir>...
 *
 * Directories are scanned recursively for C++ sources; build trees,
 * dot-directories and the lint-corpus fixtures (which violate rules
 * on purpose) are skipped.  Files named explicitly are always
 * linted, corpus or not — that is how the corpus tests drive the
 * binary.  --explain prints one line per rule.
 *
 * Exit status: 0 clean, 1 findings, 2 usage or I/O error.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "lint.hh"

namespace fs = std::filesystem;
using nectar::lint::Finding;

namespace {

bool
isSourceFile(const fs::path &p)
{
    static const std::vector<std::string> exts = {
        ".cc", ".hh", ".cpp", ".hpp", ".h", ".cxx",
    };
    return std::find(exts.begin(), exts.end(),
                     p.extension().string()) != exts.end();
}

bool
skippedDir(const fs::path &p)
{
    std::string name = p.filename().string();
    return name.empty() || name.front() == '.' ||
           name.rfind("build", 0) == 0 || name == "lint_corpus" ||
           name == "CMakeFiles" || name == "Testing";
}

void
collect(const fs::path &root, std::vector<std::string> &files)
{
    auto it = fs::recursive_directory_iterator(
        root, fs::directory_options::skip_permission_denied);
    for (auto end = fs::end(it); it != end; ++it) {
        if (it->is_directory()) {
            if (skippedDir(it->path()))
                it.disable_recursion_pending();
            continue;
        }
        if (it->is_regular_file() && isSourceFile(it->path()))
            files.push_back(it->path().string());
    }
}

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
    std::vector<std::string> files;
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
        } else if (fs::is_directory(a)) {
            collect(a, files);
        } else if (fs::exists(a)) {
            files.push_back(a);
        } else {
            std::cerr << "nectar-lint: no such file: " << a << "\n";
            return 2;
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

    std::sort(files.begin(), files.end());
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
