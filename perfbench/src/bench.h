// Shared declarations of the campaign benchmark (see README.md).
//
// workloads.cpp runs one workload's campaign through the same public entry
// points refine-campaign uses and checks its outputs; probes.cpp holds the
// traced per-layer probes; main.cpp drives a run and prints the metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "campaign/engine.h"
#include "campaign/planner.h"
#include "campaign/runner.h"
#include "trace.h"

namespace perfbench {

using refine::campaign::CampaignResult;
using refine::campaign::MatrixJob;
using refine::campaign::PlanSpec;
using refine::campaign::PlannedCell;

/// One benchmark workload: a campaign matrix and how it is run.
struct Workload {
  std::string name;
  unsigned threads = 3;                // busy engine threads in total
  std::vector<std::string> apps;       // matrix axes, canonical order
  std::vector<std::string> tools;      // canonical registry keys
  std::vector<MatrixJob> jobs;         // apps x tools, the distinct cells
  std::uint64_t trials = 0;            // flat trials per cell (planned: max)
  std::optional<PlanSpec> plan;        // planned campaign
  bool served = false;                 // coordinator + 2 workers, loopback
  bool protectSuite = false;           // report with protectionSuiteCsv
};

/// Builds a workload by name; nullopt for an unknown name.
std::optional<Workload> makeWorkload(const std::string& name);

/// Base seed of the campaign for a benchmark seed. Seed 0 is the default:
/// it maps to refine-campaign's default base seed.
std::uint64_t baseSeedFor(std::uint64_t seed);

/// One campaign of a workload, from the campaign call to report bytes.
struct CampaignRun {
  double wallSeconds = 0.0;
  std::string report;
  std::vector<CampaignResult> cells;    // per cell totals, job order
  std::vector<CampaignResult> records;  // checkpoint records as persisted
  std::vector<PlannedCell> planned;     // planned workloads only
  /// Seconds from the campaign call at which each cell was seen complete
  /// (engine callbacks in process; coordinator status polls when served,
  /// traced runs only).
  std::vector<double> cellDoneSeconds;
  std::uint64_t trials = 0;             // trials completed
};

/// Runs the workload's campaign once. `workDir` holds its checkpoint.
/// Throws on any campaign failure.
CampaignRun runWorkloadCampaign(const Workload& workload,
                                std::uint64_t baseSeed,
                                const std::string& workDir, Tracer& tracer);

/// Instances of every distinct cell, built as CampaignEngine::buildInstances
/// builds them at the workload's thread count; `seconds` is its wall time.
struct SetupRun {
  double seconds = 0.0;
  std::vector<std::unique_ptr<refine::campaign::ToolInstance>> instances;
};
SetupRun buildWorkloadInstances(const Workload& workload);

/// Outcome of the correctness checks on one workload run.
struct Checks {
  std::vector<std::string> problems;  // empty when every check passed
  std::set<std::string> failedCells;  // "app|tool" keys
  void fail(const std::string& what) { problems.push_back(what); }
};

/// Golden-output oracle: every instance's profiled golden output must equal
/// the reference interpreter's output for the same O2 module (with the
/// cell's protection applied). Records mismatching cells as failed.
void checkGoldens(const Workload& workload, const SetupRun& setup,
                  Checks& checks);

/// Count checks: every job has a cell, and each cell's counts sum to its
/// trials (flat) or to the replayed plan's trials_used (planned).
void checkCounts(const Workload& workload, const CampaignRun& run,
                 Checks& checks);

/// Deterministic counters the benchmark must reproduce exactly per seed.
using Counters = std::map<std::string, std::string>;

/// Per-layer metrics of a traced run, by metric name.
struct LayerMetric {
  double value = 0.0;
  std::string unit;
};
using LayerMetrics = std::map<std::string, LayerMetric>;

/// Engine, planner and outcome figures of one campaign run: per-tool trial
/// seconds, trial share, tail, benign share, trials used and rounds.
void campaignFigures(const Workload& workload, const CampaignRun& run,
                     LayerMetrics& metrics, Counters& counters);

/// Runs every per-layer probe of the traced run and fills `metrics` (and
/// the deterministic `counters`). `traced` is the traced campaign run;
/// `checks` collects probe self-check failures.
void runProbes(const Workload& workload, std::uint64_t baseSeed,
               const CampaignRun& traced, const std::string& workDir,
               Tracer& tracer, LayerMetrics& metrics, Counters& counters,
               Checks& checks);

/// Seconds on the steady clock since `start`.
inline double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// "app|tool" key of a cell.
inline std::string cellKey(const std::string& app, const std::string& tool) {
  return app + "|" + tool;
}

/// Metric text for a deterministic counter: every digit of the value.
std::string exactText(double value);

}  // namespace perfbench
