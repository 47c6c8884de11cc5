// A small result type used across the SNIPE libraries.
//
// C++20 has no std::expected, and exceptions are a poor fit for the
// high-frequency failure paths of a networked system (lookup misses, lost
// packets, permission denials), so every fallible SNIPE API returns a
// Result<T>.  Errors carry a code plus a human-readable message.
#pragma once

#include <cassert>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

namespace snipe {

/// Machine-readable failure categories shared by all SNIPE components.
enum class Errc {
  ok = 0,
  not_found,          ///< name/URI/replica/task does not exist
  already_exists,     ///< duplicate registration
  permission_denied,  ///< failed authentication or authorization (§4)
  unreachable,        ///< no route / all links down / host dead
  timeout,            ///< operation exceeded its deadline
  invalid_argument,   ///< malformed URI, bad message, bad parameter
  quota_exceeded,     ///< playground or daemon resource quota hit (§3.6)
  state_error,        ///< operation illegal in current state
  corrupt,            ///< integrity check (hash/signature) failed
  io_error,           ///< file server or sink/source failure
  cancelled,          ///< task killed or migrated away mid-operation
};

/// Returns the canonical short name for an error code ("not_found", ...).
const char* errc_name(Errc c);

/// An error: a category code plus context.
struct Error {
  Errc code = Errc::ok;
  std::string message;

  std::string to_string() const {
    return std::string(errc_name(code)) + (message.empty() ? "" : ": " + message);
  }
};

/// Result<T> holds either a value or an Error.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  Result(Error err) : state_(std::in_place_index<1>, std::move(err)) {}
  Result(Errc code, std::string message)
      : state_(std::in_place_index<1>, Error{code, std::move(message)}) {}
  /// Moves a Result whose value converts to T (Result<Bytes> into
  /// Result<Payload>, say) without copying the value.
  template <typename U,
            typename = std::enable_if_t<!std::is_same_v<U, T> && std::is_convertible_v<U&&, T>>>
  Result(Result<U>&& other)  // NOLINT(google-explicit-constructor)
      : state_(other.ok() ? std::variant<T, Error>(std::in_place_index<0>, std::move(other).take())
                          : std::variant<T, Error>(std::in_place_index<1>, other.error())) {}

  bool ok() const { return state_.index() == 0; }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<0>(state_);
  }
  T& value() & {
    assert(ok());
    return std::get<0>(state_);
  }
  T&& take() && {
    assert(ok());
    return std::get<0>(std::move(state_));
  }
  /// Returns the value, or `fallback` on error.
  T value_or(T fallback) const& { return ok() ? std::get<0>(state_) : std::move(fallback); }

  const Error& error() const {
    assert(!ok());
    return std::get<1>(state_);
  }
  Errc code() const { return ok() ? Errc::ok : error().code; }

 private:
  std::variant<T, Error> state_;
};

/// Specialization for operations that produce no value.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error err) : err_(std::move(err)), failed_(true) {}
  Result(Errc code, std::string message)
      : err_{code, std::move(message)}, failed_(true) {}

  bool ok() const { return !failed_; }
  explicit operator bool() const { return ok(); }
  /// Asserts success; mirrors Result<T>::value() so call sites can uniformly
  /// write `op().value()` to mean "must succeed".
  void value() const { assert(ok()); }
  const Error& error() const {
    assert(failed_);
    return err_;
  }
  Errc code() const { return failed_ ? err_.code : Errc::ok; }

 private:
  Error err_;
  bool failed_ = false;
};

/// Convenience constructor for the common "no value" success.
inline Result<void> ok_result() { return Result<void>(); }

}  // namespace snipe
