// In-memory span tracer for the campaign benchmark.
//
// Spans are recorded only around the benchmark's own calls into the
// program's public functions (nothing inside the program is instrumented).
// Each span has a name, a start and end on the steady clock, the thread
// that ran it, and the span that caused it (the innermost open span on the
// same thread, or an explicit parent for work handed to another thread).
// Spans stay in memory until the benchmark writes them out at the end.
//
// A span's self time is its duration minus the part of its interval that
// its children cover; concurrent children on other threads are merged as a
// union, so overlapping children are not counted twice.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;      // 1-based; 0 means "no span"
  std::uint64_t parent = 0;  // 0 for a root span
  std::string name;
  unsigned thread = 0;       // small per-process thread index
  std::int64_t startNs = 0;  // steady clock, relative to the tracer epoch
  std::int64_t endNs = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and its scopes cost one branch.
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Open span; closes (and is recorded) when destroyed.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();
    std::uint64_t id() const noexcept { return span_.id; }

   private:
    friend class Tracer;
    Scope(Tracer* tracer, std::string_view name, std::uint64_t parent);
    Tracer* tracer_;  // null when tracing is off
    Span span_;
  };

  /// Opens a span caused by the innermost open span on this thread.
  Scope span(std::string_view name) { return Scope(this, name, kInnermost); }
  /// Opens a span caused by `parent` (a span open on another thread).
  Scope spanUnder(std::string_view name, std::uint64_t parent) {
    return Scope(this, name, parent);
  }

  /// Completed spans in id order.
  std::vector<Span> spans() const;

 private:
  /// Nanoseconds since this tracer's epoch on the steady clock.
  std::int64_t nowNs() const noexcept;
  static constexpr std::uint64_t kInnermost = ~0ULL;
  void record(const Span& span);

  bool enabled_;
  std::int64_t epochNs_;
  mutable std::mutex mutex_;  // guards spans_ and nextId_
  std::vector<Span> spans_;
  std::uint64_t nextId_ = 1;
};

/// Self time of every span, keyed by span id.
std::map<std::uint64_t, std::int64_t> selfTimesNs(const std::vector<Span>& spans);

/// Summed self time per span name, in seconds.
std::map<std::string, double> selfSecondsByName(const std::vector<Span>& spans);

/// Problems with the span tree: a parent that is not recorded, a child
/// interval outside its parent's, an end before a start. Empty when sound.
std::vector<std::string> nestingViolations(const std::vector<Span>& spans);

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples, as
/// numpy's default; the samples are sorted in place. Throws on no samples.
double percentile(std::vector<double>& samples, double p);

/// Median of unsorted samples (percentile 50).
double median(std::vector<double> samples);

/// One JSON object per line per span, with its self time.
std::string spansJsonLines(const std::vector<Span>& spans);

}  // namespace perfbench
