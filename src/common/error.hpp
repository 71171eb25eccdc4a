/**
 * @file
 * Error-handling primitives shared by every YOUTIAO subsystem.
 *
 * Mirrors the gem5 fatal()/panic() split: ConfigError is the user's fault
 * (bad parameters), InternalError means the library itself is broken.
 */

#ifndef YOUTIAO_COMMON_ERROR_HPP
#define YOUTIAO_COMMON_ERROR_HPP

#include <stdexcept>
#include <string>
#include <string_view>

namespace youtiao {

/** Raised when user-supplied configuration or arguments are invalid. */
class ConfigError : public std::runtime_error
{
  public:
    /** Start of every what(). */
    static constexpr std::string_view kPrefix = "youtiao config error: ";

    explicit ConfigError(const std::string &msg)
        : std::runtime_error(std::string(kPrefix) + msg)
    {}

    /** what() without kPrefix: the message as thrown. */
    std::string_view message() const
    {
        return std::string_view(what()).substr(kPrefix.size());
    }
};

/** Raised when an internal invariant is violated (a library bug). */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string &msg)
        : std::logic_error("youtiao internal error: " + msg)
    {}
};

namespace detail {

[[noreturn, gnu::cold, gnu::noinline]] inline void
throwConfigError(std::string_view msg)
{
    throw ConfigError(std::string(msg));
}

[[noreturn, gnu::cold, gnu::noinline]] inline void
throwInternalError(std::string_view msg)
{
    throw InternalError(std::string(msg));
}

} // namespace detail

/**
 * Throw ConfigError unless @p cond holds. The message is copied into a
 * std::string only when the check fails, so a passing check with a
 * literal message never allocates (checks run inside the router's inner
 * loop). A message built with `+` or std::to_string allocates before the
 * call on every pass: write `if (!cond) throw ConfigError(...)` instead.
 */
inline void
requireConfig(bool cond, std::string_view msg)
{
    if (!cond) [[unlikely]]
        detail::throwConfigError(msg);
}

/** Throw InternalError unless @p cond holds (same allocation rule). */
inline void
requireInternal(bool cond, std::string_view msg)
{
    if (!cond) [[unlikely]]
        detail::throwInternalError(msg);
}

} // namespace youtiao

#endif // YOUTIAO_COMMON_ERROR_HPP
