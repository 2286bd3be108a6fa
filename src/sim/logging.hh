/**
 * @file
 * Error reporting and logging for the simulator.
 *
 * Follows the gem5 convention: fatal() is for user error (bad
 * configuration), panic() is for simulator bugs.  Both throw so that
 * library users and tests can recover; inform()/warn() write to a
 * configurable stream.
 */

#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace nectar::sim {

/** Exception thrown by fatal(): a configuration or usage error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error("fatal: " + what)
    {}
};

/** Exception thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &what)
        : std::logic_error("panic: " + what)
    {}
};

/** Verbosity levels for the message log. */
enum class LogLevel { quiet, warn, inform, debug };

/** Set the global log verbosity (default: warn). */
void setLogLevel(LogLevel level);

/** Current global log verbosity. */
LogLevel logLevel();

/** Report a condition the user should know about but not worry about. */
void inform(const std::string &msg);

/** Report suspicious but non-fatal behaviour. */
void warn(const std::string &msg);

/** Report fine-grained debugging detail. */
void debugLog(const std::string &msg);

/**
 * Abort the current operation due to a user error.
 *
 * @param msg Description of the configuration problem.
 * @throws FatalError always.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Abort the current operation due to an internal bug.
 *
 * @param msg Description of the violated invariant.
 * @throws PanicError always.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Check an internal invariant, panicking with a message if it fails.
 * The message is a literal, so a passing check builds no string.
 */
inline void
simAssert(bool cond, const char *msg)
{
    if (!cond)
        panic(msg);
}

} // namespace nectar::sim
