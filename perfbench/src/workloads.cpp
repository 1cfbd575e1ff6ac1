// Workload definitions, the campaign run of each, and the output checks.
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <future>
#include <thread>

#include "apps/apps.h"
#include "bench.h"
#include "campaign/coordinator.h"
#include "campaign/net.h"
#include "campaign/persist.h"
#include "campaign/report.h"
#include "campaign/spec.h"
#include "campaign/worker.h"
#include "frontend/compile.h"
#include "ir/interp.h"
#include "opt/passes.h"
#include "opt/protect.h"
#include "support/check.h"
#include "support/strings.h"

namespace perfbench {

namespace rc = refine::campaign;

namespace {

const std::vector<std::string> kPaperTools = {"LLFI", "REFINE", "PINFI"};
constexpr const char* kServedPlan = "ci=0.05,conf=0.95,min=32,max=1068";

std::vector<std::string> paperApps() {
  std::vector<std::string> names;
  for (const auto& app : refine::apps::benchmarkApps()) {
    names.push_back(app.name);
  }
  return names;
}

/// refine-campaign's --protect-suite expansion: each paper tool's fault
/// model under the four protection schemes, as canonical spec keys.
std::vector<std::string> protectSuiteTools() {
  std::vector<std::string> out;
  for (const auto& tool : kPaperTools) {
    rc::ToolSpec spec = rc::parseToolSpec(tool);
    for (const auto scheme :
         {refine::opt::ProtectScheme::None, refine::opt::ProtectScheme::DWC,
          refine::opt::ProtectScheme::TMR,
          refine::opt::ProtectScheme::CFCSS}) {
      spec.protect = scheme;
      out.push_back(rc::resolveToolSpec(spec.canonical()));
    }
  }
  return out;
}

void removeIfPresent(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

double realtimeSeconds(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// cells_done field of a coordinator status line; nullopt when absent.
std::optional<std::uint64_t> statusCellsDone(const std::string& status) {
  const std::string key = "\"cells_done\":";
  const auto at = status.find(key);
  if (at == std::string::npos) return std::nullopt;
  const auto end = status.find_first_not_of("0123456789", at + key.size());
  return refine::parseU64(status.substr(at + key.size(), end - at - key.size()));
}

CampaignRun runInProcess(const Workload& w, std::uint64_t baseSeed,
                         const std::string& checkpoint, Tracer& tracer) {
  CampaignRun run;
  const auto start = std::chrono::steady_clock::now();
  std::vector<CampaignResult> results;
  {
    auto scope = tracer.span("campaign.engine.runMatrix");
    rc::CampaignConfig config;
    config.trials = w.trials;
    config.threads = w.threads;
    config.baseSeed = baseSeed;
    rc::CampaignEngine engine(config);
    rc::CheckpointStore store(checkpoint);
    rc::MatrixOptions options;
    options.checkpoint = &store;
    // The engine serializes callbacks, so the push needs no lock.
    results = engine.runMatrix(w.jobs, options, [&](const CampaignResult&) {
      run.cellDoneSeconds.push_back(secondsSince(start));
    });
    run.records = store.records();
  }
  {
    auto scope = tracer.span("campaign.report.render");
    run.report = w.protectSuite ? rc::protectionSuiteCsv(results)
                                : rc::countsCsv(results);
  }
  run.wallSeconds = secondsSince(start);
  run.cells = std::move(results);
  return run;
}

CampaignRun runServed(const Workload& w, std::uint64_t baseSeed,
                      const std::string& checkpoint,
                      const std::string& reportPath, Tracer& tracer) {
  removeIfPresent(checkpoint + ".generation");
  removeIfPresent(reportPath);

  rc::ServeOptions serve;
  serve.config.apps = w.apps;
  serve.config.tools = w.tools;
  serve.config.plan = w.plan->canonical();
  serve.config.trials = w.plan->maxTrials;
  serve.config.baseSeed = baseSeed;
  serve.port = 0;
  serve.checkpointPath = checkpoint;
  serve.reportPath = reportPath;
  std::promise<std::uint16_t> listening;
  serve.onListening = [&](std::uint16_t port) { listening.set_value(port); };

  CampaignRun run;
  auto outer = tracer.span("campaign.served");
  int serveExit = -1;
  std::exception_ptr serveError;
  timespec startRealtime{};
  clock_gettime(CLOCK_REALTIME, &startRealtime);
  const auto start = std::chrono::steady_clock::now();
  std::thread coordinator([&] {
    auto scope = tracer.spanUnder("campaign.serve", outer.id());
    try {
      serveExit = rc::serveCampaign(serve);
    } catch (...) {
      serveError = std::current_exception();
      try {
        listening.set_exception(std::current_exception());
      } catch (const std::future_error&) {
        // Already listening: the error surfaces after the join.
      }
    }
  });
  std::uint16_t port = 0;
  try {
    port = listening.get_future().get();
  } catch (...) {
    coordinator.join();
    throw;
  }

  int workerExit[2] = {-1, -1};
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&, i] {
      auto scope = tracer.spanUnder("campaign.worker", outer.id());
      rc::WorkerOptions options;
      options.threads = 1;
      options.backoffSeed = 0x5EED0000ULL + static_cast<unsigned>(i);
      try {
        workerExit[i] = rc::runWorker("127.0.0.1", port, options);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[perfbench] worker %d: %s\n", i, e.what());
      }
    });
  }

  // Traced runs poll the coordinator's status line for when cells finish
  // (the engine callbacks are inside the workers).
  std::atomic<bool> served{false};
  std::thread poller;
  if (tracer.enabled()) {
    poller = std::thread([&] {
      std::uint64_t seen = 0;
      while (!served.load()) {
        {
          auto scope = tracer.spanUnder("campaign.net.status", outer.id());
          try {
            const auto done = statusCellsDone(
                rc::requestStatusLine("127.0.0.1", port, 2.0));
            const double at = secondsSince(start);
            for (; done && seen < *done; ++seen) {
              run.cellDoneSeconds.push_back(at);
            }
          } catch (const std::exception&) {
            // The coordinator has stopped listening; the join ends us.
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }
  for (auto& t : workers) t.join();
  coordinator.join();
  served.store(true);
  if (poller.joinable()) poller.join();

  if (serveError) std::rethrow_exception(serveError);
  RF_CHECK(serveExit == rc::kServeExitOk,
           "serveCampaign exited " + std::to_string(serveExit));
  for (const int code : workerExit) {
    RF_CHECK(code == rc::kWorkerExitOk,
             "runWorker exited " + std::to_string(code));
  }

  // Wall time ends when the coordinator wrote the report, not when its
  // linger for departing workers ended.
  struct stat st {};
  RF_CHECK(::stat(reportPath.c_str(), &st) == 0, "no report at " + reportPath);
  run.wallSeconds =
      realtimeSeconds(st.st_mtim) - realtimeSeconds(startRealtime);
  run.report = refine::readFile(reportPath);
  run.records = rc::CheckpointStore::readAll(checkpoint);
  run.planned = rc::foldPlannedRecords(run.records, *w.plan);
  for (const auto& cell : run.planned) run.cells.push_back(cell.total);
  return run;
}

}  // namespace

std::optional<Workload> makeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  w.apps = paperApps();
  w.tools = kPaperTools;
  if (name == "paper-matrix") {
    w.threads = 3;
    w.trials = 1068;
  } else if (name == "protect-sweep") {
    w.threads = 3;
    w.trials = 16;
    w.protectSuite = true;
    w.tools = protectSuiteTools();
  } else if (name == "served-planned") {
    w.threads = 2;  // two workers with one engine thread each
    w.plan = rc::parsePlanSpec(kServedPlan);
    w.trials = w.plan->maxTrials;
    w.served = true;
  } else {
    return std::nullopt;
  }
  w.jobs = rc::buildMatrixJobs(w.apps, w.tools);
  return w;
}

std::uint64_t baseSeedFor(std::uint64_t seed) {
  return rc::CampaignConfig{}.baseSeed + seed;
}

CampaignRun runWorkloadCampaign(const Workload& workload,
                                std::uint64_t baseSeed,
                                const std::string& workDir, Tracer& tracer) {
  const std::string checkpoint = workDir + "/" + workload.name + ".ckpt";
  removeIfPresent(checkpoint);
  CampaignRun run =
      workload.served
          ? runServed(workload, baseSeed, checkpoint,
                      workDir + "/" + workload.name + ".report.csv", tracer)
          : runInProcess(workload, baseSeed, checkpoint, tracer);
  for (const auto& cell : run.cells) run.trials += cell.counts.total();
  return run;
}

SetupRun buildWorkloadInstances(const Workload& workload) {
  rc::CampaignConfig config;
  config.threads = workload.threads;
  rc::CampaignEngine engine(config);
  SetupRun setup;
  const auto start = std::chrono::steady_clock::now();
  setup.instances = engine.buildInstances(workload.jobs);
  setup.seconds = secondsSince(start);
  return setup;
}

void checkGoldens(const Workload& workload, const SetupRun& setup,
                  Checks& checks) {
  // One reference interpretation per (app, protection scheme).
  std::map<std::string, std::string> reference;
  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    const MatrixJob& job = workload.jobs[i];
    const auto scheme = rc::parseToolSpec(job.tool).protect;
    const std::string refKey =
        job.app + "|" + refine::opt::protectSchemeName(scheme);
    if (!reference.count(refKey)) {
      auto module = refine::fe::compileToIR(job.source);
      refine::opt::optimize(*module, refine::opt::OptLevel::O2);
      refine::opt::applyProtection(*module, scheme);
      const auto result = refine::ir::interpret(*module);
      if (result.trapped) {
        checks.fail("reference interpreter trapped on " + refKey);
      }
      reference[refKey] = result.output;
    }
    const auto& golden = setup.instances[i]->profile().goldenOutput;
    if (golden != reference[refKey]) {
      checks.fail("golden output of " + job.app + " x " + job.tool +
                  " differs from the interpreted O2 module");
      checks.failedCells.insert(cellKey(job.app, job.tool));
    }
  }
}

void checkCounts(const Workload& workload, const CampaignRun& run,
                 Checks& checks) {
  std::map<std::string, const CampaignResult*> byCell;
  for (const auto& cell : run.cells) byCell[cellKey(cell.app, cell.tool)] = &cell;
  if (run.cells.size() != workload.jobs.size()) {
    checks.fail("campaign returned " + std::to_string(run.cells.size()) +
                " cells for " + std::to_string(workload.jobs.size()) +
                " jobs");
  }
  for (const auto& job : workload.jobs) {
    const std::string key = cellKey(job.app, job.tool);
    const auto it = byCell.find(key);
    if (it == byCell.end()) {
      checks.fail("no result for cell " + key);
      checks.failedCells.insert(key);
      continue;
    }
    const CampaignResult& cell = *it->second;
    if (!workload.plan) {
      if (cell.counts.total() != workload.trials) {
        checks.fail("counts of " + key + " sum to " +
                    std::to_string(cell.counts.total()) + ", not " +
                    std::to_string(workload.trials));
        checks.failedCells.insert(key);
      }
      continue;
    }
    // Planned: the cell's round records, replayed through the plan, must
    // add up to the cell's trials_used.
    std::vector<const CampaignResult*> rounds;
    for (const auto& record : run.records) {
      if (record.app == job.app && record.tool == job.tool) {
        rounds.push_back(&record);
      }
    }
    std::sort(rounds.begin(), rounds.end(),
              [](const CampaignResult* a, const CampaignResult* b) {
                return a->planRound.value_or(0) < b->planRound.value_or(0);
              });
    try {
      const auto progress = rc::replayPlanRounds(*workload.plan, rounds, key);
      if (progress.counts.total() != cell.counts.total() ||
          progress.counts != cell.counts) {
        checks.fail("replayed plan of " + key + " uses " +
                    std::to_string(progress.counts.total()) +
                    " trials but the report cell counts " +
                    std::to_string(cell.counts.total()));
        checks.failedCells.insert(key);
      }
    } catch (const std::exception& e) {
      checks.fail("plan replay of " + key + " failed: " + e.what());
      checks.failedCells.insert(key);
    }
  }
}

std::string exactText(double value) { return refine::strf("%.17g", value); }

}  // namespace perfbench
