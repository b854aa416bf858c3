#ifndef OPINEDB_COMMON_DEADLINE_H_
#define OPINEDB_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>

namespace opinedb {

/// A cooperative cancellation flag. The owner keeps it alive for the
/// duration of the queries it controls; any thread may Cancel() while
/// query threads poll cancelled() at operator checkpoints.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// Re-arms the token for reuse across queries.
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A wall-clock budget plus an optional external cancellation token,
/// polled at coarse checkpoints (per condition, per chunk — never per
/// arithmetic op). A default-constructed deadline never expires, so
/// unconditioned code can thread a pointer through without branching on
/// "is there a deadline at all".
///
/// Checkpoints only ever *stop starting new work*; work already begun
/// for an entity always completes, which is what makes partial results
/// prefix-consistent (every emitted score is the exact full score).
class QueryDeadline {
 public:
  QueryDeadline() = default;

  // Copyable (the atomic latch is snapshotted) so factory returns and
  // struct members work; don't copy a deadline other threads are
  // actively polling — hand them a pointer to one instance instead.
  QueryDeadline(const QueryDeadline& other)
      : has_deadline_(other.has_deadline_),
        deadline_(other.deadline_),
        token_(other.token_),
        expired_(other.expired_.load(std::memory_order_relaxed)) {}
  QueryDeadline& operator=(const QueryDeadline& other) {
    has_deadline_ = other.has_deadline_;
    deadline_ = other.deadline_;
    token_ = other.token_;
    expired_.store(other.expired_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    return *this;
  }

  /// A deadline `budget_ms` from now. Non-positive budgets produce an
  /// already-expired deadline (useful for tests).
  static QueryDeadline AfterMillis(double budget_ms) {
    QueryDeadline d;
    d.has_deadline_ = true;
    d.deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          budget_ms > 0.0 ? budget_ms : 0.0));
    return d;
  }

  void set_token(const CancellationToken* token) { token_ = token; }

  /// True when there is anything to poll (a budget or a token).
  bool active() const { return has_deadline_ || token_ != nullptr; }

  /// The poll. Expiry latches: once a deadline has been observed
  /// expired, every later check reports expired too (a clock that is
  /// adjusted or a token that is Reset cannot un-cancel a query).
  bool Expired() const {
    if (expired_.load(std::memory_order_relaxed)) return true;
    bool now_expired = false;
    if (token_ != nullptr && token_->cancelled()) now_expired = true;
    if (!now_expired && has_deadline_ &&
        std::chrono::steady_clock::now() >= deadline_) {
      now_expired = true;
    }
    if (now_expired) expired_.store(true, std::memory_order_relaxed);
    return now_expired;
  }

 private:
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  const CancellationToken* token_ = nullptr;
  /// Latch so every checkpoint after the first expiry agrees; mutable
  /// because polling a const deadline from many threads is the point.
  mutable std::atomic<bool> expired_{false};
};

}  // namespace opinedb

#endif  // OPINEDB_COMMON_DEADLINE_H_
