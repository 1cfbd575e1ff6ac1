// perfbench: the campaign benchmark's main program (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --state-dir DIR --reference-dir DIR
//
// --trace 0 times the workload with tracing off and prints the end-to-end
// metrics; --trace 1 runs it once untraced and once traced, runs the
// per-layer probes and prints the per-layer metrics plus the tracing
// overhead. Both check the outputs and exit non-zero when a check fails.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"
#include "support/rng.h"
#include "support/strings.h"
#include "vm/jit.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string stateDir;
  std::string referenceDir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --state-dir DIR --reference-dir DIR\n",
               why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      const auto seed = refine::parseU64(value);
      if (!seed) usage("--seed expects a whole number");
      args.seed = *seed;
    } else if (flag == "--seconds") {
      const auto seconds = refine::parseF64(value);
      if (!seconds || *seconds <= 0) usage("--seconds expects a positive number");
      args.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--state-dir") {
      args.stateDir = value;
    } else if (flag == "--reference-dir") {
      args.referenceDir = value;
    } else {
      usage("unknown argument " + flag);
    }
  }
  if (args.workload.empty() || args.stateDir.empty() ||
      args.referenceDir.empty()) {
    usage("--workload, --state-dir and --reference-dir are required");
  }
  return args;
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return std::string(refine::trim(line.substr(colon + 1)));
    }
  }
  return "unknown";
}

/// Host and build fingerprint: numbers from different fingerprints are not
/// comparable.
std::string fingerprint() {
  return refine::strf(
      "nproc=%ld cpu=\"%s\" compiler=\"%s\" build=%s exec_tier=%s "
      "jit_supported=%d",
      sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, refine::vm::execTierEnabled() ? "on" : "off",
      refine::vm::JitProgram::supported() ? 1 : 0);
}

/// Returns freed heap memory to the kernel and restarts the kernel's
/// peak-resident mark at the current resident size, so the next peakRssMb()
/// is one campaign's peak from a near-fresh heap. Where the mark cannot be
/// restarted, the peak stays the process's.
void restartPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string hex(std::uint64_t v) { return refine::strf("%016llx", static_cast<unsigned long long>(v)); }

/// The deterministic counters and report hash of earlier runs of this
/// binary at this seed must match this run's (a run records the ones it
/// computed; traced and untraced runs compute different subsets).
void compareWithEarlierRuns(const std::string& path, const Counters& counters,
                            Checks& checks) {
  std::ifstream self("/proc/self/exe", std::ios::binary);
  std::stringstream bytes;
  bytes << self.rdbuf();
  const std::string binary = hex(refine::fnv1a(bytes.str()));

  Counters stored;
  std::ifstream in(path);
  std::string line;
  if (std::getline(in, line) && line == "binary " + binary) {
    while (std::getline(in, line)) {
      const auto space = line.find(' ');
      if (space != std::string::npos) {
        stored[line.substr(0, space)] = line.substr(space + 1);
      }
    }
  }
  for (const auto& [name, value] : counters) {
    const auto it = stored.find(name);
    if (it != stored.end() && it->second != value) {
      checks.fail(name + " is " + value + " but an earlier run of this seed "
                  "had " + it->second);
    }
    stored[name] = value;
  }
  std::string out = "binary " + binary + "\n";
  for (const auto& [name, value] : stored) out += name + " " + value + "\n";
  refine::writeFile(path, out);
}

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  LayerMetrics metrics;
};

/// Trials in failed cells of one campaign run.
std::uint64_t failedTrials(const CampaignRun& run, const Checks& checks) {
  std::uint64_t failed = 0;
  for (const auto& cell : run.cells) {
    if (checks.failedCells.count(cellKey(cell.app, cell.tool))) {
      failed += cell.counts.total();
    }
  }
  return failed;
}

/// Trials a workload campaign attempts (planned: the per-cell cap).
std::uint64_t plannedTrials(const Workload& w) {
  return w.trials * w.jobs.size();
}

/// Runs the campaign, checking its counts and that its report repeats
/// byte for byte; a campaign that throws fails every trial it attempted.
std::optional<CampaignRun> checkedCampaign(const Workload& w,
                                           std::uint64_t baseSeed,
                                           const std::string& workDir,
                                           Tracer& tracer,
                                           const std::string* firstReport,
                                           Result& result, Checks& checks) {
  try {
    CampaignRun run = runWorkloadCampaign(w, baseSeed, workDir, tracer);
    const std::size_t before = checks.problems.size();
    checkCounts(w, run, checks);
    if (firstReport != nullptr && run.report != *firstReport) {
      checks.fail("report differs between two campaigns of one seed");
    }
    // A failure no cell explains (the report moved) fails every trial.
    const std::uint64_t failed = failedTrials(run, checks);
    result.attempted += run.trials;
    result.failed +=
        failed == 0 && checks.problems.size() > before ? run.trials : failed;
    return run;
  } catch (const std::exception& e) {
    checks.fail(std::string("campaign failed: ") + e.what());
    result.attempted += plannedTrials(w);
    result.failed += plannedTrials(w);
    return std::nullopt;
  }
}

/// Prints the metrics and the result line; returns the exit code.
int finish(const Checks& checks, Result& result) {
  for (const auto& problem : checks.problems) {
    std::printf("# FAIL %s\n", problem.c_str());
    std::fprintf(stderr, "perfbench: FAIL %s\n", problem.c_str());
  }
  // Any failure counts against the trials: a failed cell its own, a failure
  // no cell explains all of them.
  if (!checks.problems.empty() && result.failed == 0) {
    result.failed = result.attempted;
  }
  const bool correct = checks.problems.empty() && result.attempted > 0;
  std::string json;
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s %s %s\n", name.c_str(), exactText(metric.value).c_str(),
                metric.unit.c_str());
    if (!json.empty()) json += ", ";
    json += refine::strf("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                         name.c_str(), exactText(metric.value).c_str(),
                         metric.unit.c_str());
  }
  std::printf("failed_share %s share (%llu of %llu trials)\n",
              exactText(result.attempted > 0
                            ? static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted)
                            : 1.0)
                  .c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// End-to-end run: campaigns until `seconds` of campaign wall time are
/// measured, then set-up several times; medians are reported. Campaigns
/// come first so their resident peaks exclude the set-up builds.
void endToEnd(const Workload& w, std::uint64_t baseSeed, const Args& args,
              const std::string& workDir, Result& result, Counters& counters,
              Checks& checks, std::string& report) {
  Tracer off(false);
  // As many campaigns as fill `seconds`, judged by the first one's wall
  // time (at least one).
  std::vector<double> throughput;
  std::vector<double> peaks;
  std::size_t campaigns = 1;
  while (throughput.size() < campaigns) {
    restartPeakRss();
    const auto run = checkedCampaign(w, baseSeed, workDir, off,
                                     report.empty() ? nullptr : &report,
                                     result, checks);
    if (!run) return;
    if (report.empty()) {
      report = run->report;
      LayerMetrics unused;
      campaignFigures(w, *run, unused, counters);
      counters["campaign.persist.records"] =
          exactText(static_cast<double>(run->records.size()));
      campaigns = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(args.seconds / run->wallSeconds)));
    }
    throughput.push_back(static_cast<double>(run->trials) / run->wallSeconds);
    peaks.push_back(peakRssMb());
    std::printf("# campaign %zu: %llu trials in %.4f s, peak %.1f MB\n",
                throughput.size(), static_cast<unsigned long long>(run->trials),
                run->wallSeconds, peaks.back());
  }
  result.metrics["trials_per_s"] = {median(throughput), "1/s"};
  result.metrics["peak_rss_mb"] = {median(peaks), "MB"};

  // Set-up: buildInstances over the distinct cells, repeated for about
  // kSetupSeconds (at least three times); the last build's goldens feed the
  // oracle.
  constexpr double kSetupSeconds = 3.0;
  std::vector<double> setupSeconds;
  double spent = 0.0;
  while (setupSeconds.size() < 3 || spent < kSetupSeconds) {
    const SetupRun setup = buildWorkloadInstances(w);
    setupSeconds.push_back(setup.seconds);
    spent += setup.seconds;
    const bool last = setupSeconds.size() >= 3 && spent >= kSetupSeconds;
    if (last) checkGoldens(w, setup, checks);
  }
  result.metrics["setup_s"] = {median(setupSeconds), "s"};
}

/// Traced run: the campaign untraced, then traced, then the per-layer
/// probes; spans are written to `tracePath`.
void traced(const Workload& w, std::uint64_t baseSeed,
            const std::string& workDir, const std::string& tracePath,
            Result& result, Counters& counters, Checks& checks,
            std::string& report) {
  checkGoldens(w, buildWorkloadInstances(w), checks);
  Tracer off(false);
  const auto untraced =
      checkedCampaign(w, baseSeed, workDir, off, nullptr, result, checks);
  if (!untraced) return;
  report = untraced->report;

  Tracer tracer(true);
  std::optional<CampaignRun> run;
  {
    auto root = tracer.span("workload.campaign");
    run = checkedCampaign(w, baseSeed, workDir, tracer, &report, result,
                          checks);
  }
  if (!run) return;
  // Untraced again after the traced one, so warm-up does not bias the
  // overhead either way.
  const auto untracedAfter =
      checkedCampaign(w, baseSeed, workDir, off, &report, result, checks);
  if (!untracedAfter) return;
  try {
    runProbes(w, baseSeed, *run, workDir, tracer, result.metrics, counters,
              checks);
  } catch (const std::exception& e) {
    checks.fail(std::string("probe failed: ") + e.what());
    return;
  }
  const auto spans = tracer.spans();
  for (const auto& violation : nestingViolations(spans)) {
    checks.fail("trace: " + violation);
  }
  refine::writeFile(tracePath, spansJsonLines(spans));
  const double untracedWall =
      0.5 * (untraced->wallSeconds + untracedAfter->wallSeconds);
  const double overhead = run->wallSeconds - untracedWall;
  result.metrics["trace.overhead_s"] = {overhead, "s"};
  result.metrics["trace.overhead_share"] = {overhead / untracedWall, "share"};
  result.metrics["trace.spans"] = {static_cast<double>(spans.size()), "count"};
  std::printf("# trace: %zu spans in %s\n", spans.size(), tracePath.c_str());
}

int run(const Args& args) {
  const auto workload = makeWorkload(args.workload);
  if (!workload) usage("unknown workload " + args.workload);
  const Workload& w = *workload;
  const std::uint64_t baseSeed = baseSeedFor(args.seed);
  const std::string workDir = args.stateDir + "/work";
  std::filesystem::create_directories(workDir);
  const std::string tag =
      w.name + "-seed" + std::to_string(static_cast<unsigned long long>(args.seed));

  std::printf("# perfbench workload=%s seed=%llu base_seed=%s trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              hex(baseSeed).c_str(), args.trace ? 1 : 0);
  std::printf("# host %s\n", fingerprint().c_str());

  Checks checks;
  Counters counters;
  Result result;
  std::string report;
  if (args.trace) {
    traced(w, baseSeed, workDir, args.stateDir + "/trace-" + tag + ".jsonl",
           result, counters, checks, report);
  } else {
    endToEnd(w, baseSeed, args, workDir, result, counters, checks, report);
  }

  if (!report.empty()) {
    counters["report.fnv1a"] = hex(refine::fnv1a(report));
    refine::writeFile(args.stateDir + "/report-" + tag + ".csv", report);
    if (args.seed == 0) {
      const std::string referencePath =
          args.referenceDir + "/" + w.name + ".csv";
      std::string reference;
      try {
        reference = refine::readFile(referencePath);
      } catch (const std::exception&) {
        checks.fail("no reference report at " + referencePath);
      }
      if (!reference.empty() && reference != report) {
        checks.fail("report differs from the reference " + referencePath);
      }
    }
  }
  compareWithEarlierRuns(args.stateDir + "/counters-" + tag + ".txt", counters,
                         checks);
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) checks.fail(name + " is not finite");
  }
  return finish(checks, result);
}

}  // namespace

int main(int argc, char** argv) {
  refine::vm::setExecTierMode(refine::vm::ExecTierMode::On);
  try {
    return run(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
