#include "logging.hh"

#include <iostream>

#include "invariant.hh"

namespace nectar::sim {

namespace {

// nectar-lint: global-ok log verbosity only; no simulated behaviour reads it
LogLevel globalLevel = LogLevel::warn;

} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

LogLevel
logLevel()
{
    return globalLevel;
}

void
inform(const std::string &msg)
{
    if (globalLevel >= LogLevel::inform)
        std::cerr << "info: " << msg << "\n";
}

void
warn(const std::string &msg)
{
    if (globalLevel >= LogLevel::warn)
        std::cerr << "warn: " << msg << "\n";
}

void
debugLog(const std::string &msg)
{
    if (globalLevel >= LogLevel::debug)
        std::cerr << "debug: " << msg << "\n";
}

void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

void
panic(const std::string &msg)
{
    throw PanicError(msg);
}

void
invariantFailed(const char *file, int line, const char *expr,
                const std::string &what)
{
    panic("invariant violated: " + what + " [" + expr + "] at " +
          file + ":" + std::to_string(line));
}

} // namespace nectar::sim
