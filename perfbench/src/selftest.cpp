// Tests for the benchmark's own percentile, self-time and span-nesting
// code. run.py runs this before every benchmark run and refuses to report
// numbers when it fails.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "trace.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Span span(std::uint64_t id, std::uint64_t parent, const char* name,
                     std::int64_t start, std::int64_t end) {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.startNs = start;
  s.endNs = end;
  return s;
}

void testPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted
  expect(near(perfbench::percentile(v, 50), 50.5), "p50 of 1..100");
  expect(near(perfbench::percentile(v, 99), 99.01), "p99 of 1..100");
  expect(near(perfbench::percentile(v, 0), 1.0), "p0 is the minimum");
  expect(near(perfbench::percentile(v, 100), 100.0), "p100 is the maximum");
  std::vector<double> one = {7.0};
  expect(near(perfbench::percentile(one, 99), 7.0), "single sample");
  expect(near(perfbench::median({3.0, 1.0, 2.0, 10.0}), 2.5), "even median");
  bool threw = false;
  try {
    std::vector<double> none;
    perfbench::percentile(none, 50);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "percentile of no samples throws");
}

void testSelfTime() {
  // root [0,100): children [10,30) and [20,50) overlap on two threads, so
  // together they cover [10,50) = 40; grandchild [12,18) sits in the first.
  const std::vector<perfbench::Span> spans = {
      span(1, 0, "root", 0, 100), span(2, 1, "a", 10, 30),
      span(3, 1, "b", 20, 50), span(4, 2, "c", 12, 18)};
  const auto self = perfbench::selfTimesNs(spans);
  expect(self.at(1) == 60, "root self time subtracts the union of children");
  expect(self.at(2) == 14, "child self time subtracts its own child");
  expect(self.at(3) == 30, "leaf self time is its duration");
  expect(self.at(4) == 6, "grandchild self time");
  const auto byName = perfbench::selfSecondsByName(spans);
  expect(near(byName.at("root"), 60e-9), "self seconds by name");
  // A child that sticks out of its parent is clipped, never negative.
  const auto clipped =
      perfbench::selfTimesNs({span(1, 0, "p", 0, 10), span(2, 1, "x", 5, 20)});
  expect(clipped.at(1) == 5, "child clipped to parent interval");
}

void testNesting() {
  expect(perfbench::nestingViolations({span(1, 0, "p", 0, 10),
                                       span(2, 1, "c", 2, 8)})
             .empty(),
         "nested spans are sound");
  expect(perfbench::nestingViolations({span(1, 0, "p", 0, 10),
                                       span(2, 1, "c", 5, 12)})
                 .size() == 1,
         "child past its parent's end is reported");
  expect(perfbench::nestingViolations({span(2, 9, "orphan", 0, 1)}).size() ==
             1,
         "unrecorded parent is reported");
}

void testTracer() {
  perfbench::Tracer tracer(true);
  std::uint64_t outer = 0;
  {
    auto a = tracer.span("outer");
    outer = a.id();
    { auto b = tracer.span("inner"); }
    std::thread t([&] { auto c = tracer.spanUnder("remote", outer); });
    t.join();
  }
  const auto spans = tracer.spans();
  expect(spans.size() == 3, "three spans recorded");
  expect(perfbench::nestingViolations(spans).empty(), "recorded spans nest");
  for (const auto& s : spans) {
    if (s.name == "inner" || s.name == "remote") {
      expect(s.parent == outer, "parent is the caused-by span");
    }
  }
  perfbench::Tracer off(false);
  { auto a = off.span("ignored"); }
  expect(off.spans().empty(), "disabled tracer records nothing");
}

}  // namespace

int main() {
  testPercentile();
  testSelfTime();
  testNesting();
  testTracer();
  if (failures != 0) return 1;
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
