#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t steadyNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

unsigned threadIndex() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index = next.fetch_add(1);
  return index;
}

// Open spans of this thread, innermost last (ids only; one stack per thread
// is enough because the benchmark runs one tracer at a time).
thread_local std::vector<std::uint64_t> openSpans;

std::string jsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epochNs_(steadyNs()) {}

std::int64_t Tracer::nowNs() const noexcept { return steadyNs() - epochNs_; }

Tracer::Scope::Scope(Tracer* tracer, std::string_view name,
                     std::uint64_t parent)
    : tracer_(tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  {
    std::scoped_lock lock(tracer_->mutex_);
    span_.id = tracer_->nextId_++;
  }
  span_.parent = parent != kInnermost
                     ? parent
                     : (openSpans.empty() ? 0 : openSpans.back());
  span_.name = std::string(name);
  span_.thread = threadIndex();
  openSpans.push_back(span_.id);
  span_.startNs = tracer_->nowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.endNs = tracer_->nowNs();
  // Scopes are stack objects, so this span is the innermost open one.
  if (!openSpans.empty()) openSpans.pop_back();
  tracer_->record(span_);
}

void Tracer::record(const Span& span) {
  std::scoped_lock lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  {
    std::scoped_lock lock(mutex_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

std::map<std::uint64_t, std::int64_t> selfTimesNs(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, const Span*> byId;
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) byId[s.id] = &s;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::uint64_t, std::int64_t> self;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const Span* c : children[s.id]) {
      const std::int64_t lo = std::max(c->startNs, s.startNs);
      const std::int64_t hi = std::min(c->endNs, s.endNs);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t coveredNs = 0;
    std::int64_t runLo = 0;
    std::int64_t runHi = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > runHi) {
        if (runHi > runLo) coveredNs += runHi - runLo;
        runLo = lo;
        runHi = hi;
      } else {
        runHi = std::max(runHi, hi);
      }
    }
    if (runHi > runLo) coveredNs += runHi - runLo;
    self[s.id] = (s.endNs - s.startNs) - coveredNs;
  }
  return self;
}

std::map<std::string, double> selfSecondsByName(
    const std::vector<Span>& spans) {
  const auto self = selfTimesNs(spans);
  std::map<std::string, double> out;
  for (const Span& s : spans) out[s.name] += 1e-9 * self.at(s.id);
  return out;
}

std::vector<std::string> nestingViolations(const std::vector<Span>& spans) {
  std::map<std::uint64_t, const Span*> byId;
  for (const Span& s : spans) byId[s.id] = &s;
  std::vector<std::string> out;
  for (const Span& s : spans) {
    const std::string what = s.name + " #" + std::to_string(s.id);
    if (s.endNs < s.startNs) out.push_back(what + " ends before it starts");
    if (s.parent == 0) continue;
    const auto it = byId.find(s.parent);
    if (it == byId.end()) {
      out.push_back(what + " has unrecorded parent #" +
                    std::to_string(s.parent));
      continue;
    }
    const Span& p = *it->second;
    if (s.startNs < p.startNs || s.endNs > p.endNs) {
      out.push_back(what + " lies outside its parent " + p.name + " #" +
                    std::to_string(p.id));
    }
  }
  return out;
}

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile out of [0, 100]");
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return percentile(samples, 50.0);
}

std::string spansJsonLines(const std::vector<Span>& spans) {
  const auto self = selfTimesNs(spans);
  std::string out;
  for (const Span& s : spans) {
    out += "{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"name\":" + jsonString(s.name) +
           ",\"thread\":" + std::to_string(s.thread) +
           ",\"start_ns\":" + std::to_string(s.startNs) +
           ",\"end_ns\":" + std::to_string(s.endNs) +
           ",\"self_ns\":" + std::to_string(self.at(s.id)) + "}\n";
  }
  return out;
}

}  // namespace perfbench
