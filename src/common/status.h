#pragma once
// Error handling for cimtpu.
//
// Policy (C++ Core Guidelines E.2/E.3): programming-contract violations and
// invalid user configuration raise exceptions derived from cimtpu::Error so
// that callers (examples, tests) can report and terminate cleanly.
// Hot-path invariants additionally use CIMTPU_DCHECK which compiles out in
// release builds.

#include <sstream>
#include <stdexcept>
#include <string>

namespace cimtpu {

/// Base class for all cimtpu errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when a user-supplied configuration is invalid or inconsistent.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// Raised when an internal invariant is violated (a bug in cimtpu).
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

/// Raised when a requested feature/operator is not supported by a model.
class UnsupportedError : public Error {
 public:
  explicit UnsupportedError(const std::string& what) : Error(what) {}
};

namespace detail {

[[noreturn]] void throw_check_failure(const char* kind, const char* expr,
                                      const char* file, int line,
                                      const std::string& message);

/// Stream-style message builder used by the CHECK macros.
class MessageBuilder {
 public:
  template <typename T>
  MessageBuilder& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }
  std::string str() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace cimtpu

/// Always-on invariant check; throws InternalError on failure.
#define CIMTPU_CHECK(expr)                                                 \
  if (!(expr))                                                             \
  ::cimtpu::detail::throw_check_failure(                                   \
      "CHECK", #expr, __FILE__, __LINE__,                                  \
      ::cimtpu::detail::MessageBuilder{}.str())

/// Always-on invariant check with a streamed message:
///   CIMTPU_CHECK_MSG(x > 0) << "x was " << x;
#define CIMTPU_CHECK_MSG(expr, msg_expr)                                   \
  do {                                                                     \
    if (!(expr)) {                                                         \
      ::cimtpu::detail::MessageBuilder builder;                            \
      builder << msg_expr;                                                 \
      ::cimtpu::detail::throw_check_failure("CHECK", #expr, __FILE__,      \
                                            __LINE__, builder.str());      \
    }                                                                      \
  } while (false)

/// Configuration validation; throws ConfigError on failure.
#define CIMTPU_CONFIG_CHECK(expr, msg_expr)                                \
  do {                                                                     \
    if (!(expr)) {                                                         \
      ::cimtpu::detail::MessageBuilder builder;                            \
      builder << msg_expr;                                                 \
      throw ::cimtpu::ConfigError(builder.str());                          \
    }                                                                      \
  } while (false)

#ifdef NDEBUG
#define CIMTPU_DCHECK(expr) ((void)0)
#else
#define CIMTPU_DCHECK(expr) CIMTPU_CHECK(expr)
#endif
