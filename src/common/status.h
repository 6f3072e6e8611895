// Status / Result error handling, following the Arrow/RocksDB idiom:
// fallible operations return a Status (or Result<T>) instead of throwing.
#ifndef COLSGD_COMMON_STATUS_H_
#define COLSGD_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <utility>

namespace colsgd {

/// \brief Error categories used across the library.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kIOError = 2,
  kOutOfMemory = 3,
  kNotFound = 4,
  kAlreadyExists = 5,
  kFailedPrecondition = 6,
  kUnavailable = 7,        // e.g. a failed worker
  kSerializationError = 8,
  kInternal = 9,
};

/// \brief Returns a human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation.
///
/// An OK status carries no allocation; error statuses carry a code and a
/// message. Statuses are cheap to move and to test for success.
class Status {
 public:
  Status() = default;  // OK

  Status(StatusCode code, std::string msg) {
    if (code != StatusCode::kOk) {
      state_ = std::make_unique<State>(State{code, std::move(msg)});
    }
  }

  Status(const Status& other) { CopyFrom(other); }
  Status& operator=(const Status& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status SerializationError(std::string msg) {
    return Status(StatusCode::kSerializationError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  const std::string& message() const {
    static const std::string kEmpty;
    return ok() ? kEmpty : state_->msg;
  }

  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsOutOfMemory() const { return code() == StatusCode::kOutOfMemory; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsFailedPrecondition() const {
    return code() == StatusCode::kFailedPrecondition;
  }

  /// \brief "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };

  void CopyFrom(const Status& other) {
    state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
  }

  std::unique_ptr<State> state_;
};

}  // namespace colsgd

/// \brief Propagates a non-OK Status to the caller.
#define COLSGD_RETURN_NOT_OK(expr)                 \
  do {                                             \
    ::colsgd::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                     \
  } while (0)

#define COLSGD_CONCAT_IMPL(a, b) a##b
#define COLSGD_CONCAT(a, b) COLSGD_CONCAT_IMPL(a, b)

/// \brief Assigns the value of a Result<T> expression or propagates its error.
#define COLSGD_ASSIGN_OR_RETURN(lhs, rexpr)                        \
  auto COLSGD_CONCAT(_result_, __LINE__) = (rexpr);                \
  if (!COLSGD_CONCAT(_result_, __LINE__).ok())                     \
    return COLSGD_CONCAT(_result_, __LINE__).status();             \
  lhs = std::move(COLSGD_CONCAT(_result_, __LINE__)).ValueUnsafe()

#endif  // COLSGD_COMMON_STATUS_H_
