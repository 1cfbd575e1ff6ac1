// Per-layer probes of a traced run. Each probe calls one module's public
// functions itself, with a span around every call, so the layer's time and
// counts are measured where the work happens without instrumenting the
// program. The traced campaign (workloads.cpp) supplies the inputs: its
// cells, checkpoint records and report.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "backend/compile.h"
#include "bench.h"
#include "campaign/coordinator.h"
#include "campaign/net.h"
#include "campaign/outcome.h"
#include "campaign/persist.h"
#include "campaign/registry.h"
#include "campaign/report.h"
#include "campaign/scratch.h"
#include "campaign/spec.h"
#include "fi/llfi_pass.h"
#include "fi/pinfi.h"
#include "fi/refine_pass.h"
#include "frontend/compile.h"
#include "ir/ir.h"
#include "opt/passes.h"
#include "opt/protect.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/socket.h"
#include "vm/decoded.h"
#include "vm/jit.h"

namespace perfbench {

namespace rc = refine::campaign;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t irInstructionCount(const refine::ir::Module& module) {
  std::uint64_t n = 0;
  for (const auto& fn : module.functions()) {
    for (const auto& block : fn->blocks()) n += block->instructions().size();
  }
  return n;
}

std::string baseTool(const std::string& key) {
  return rc::parseToolSpec(key).base;
}

void put(LayerMetrics& metrics, const std::string& name, double value,
         const char* unit) {
  metrics[name] = {value, unit};
}

/// Deterministic counter: reported as a metric and kept for the cross-run
/// comparison.
void putCounter(LayerMetrics& metrics, Counters& counters,
                const std::string& name, double value, const char* unit) {
  put(metrics, name, value, unit);
  counters[name] = exactText(value);
}

// ---------------------------------------------------------------------------
// Setup layers: frontend -> opt (+ protect) -> FI -> backend -> predecode ->
// JIT, then the instance the engine builds (create) and its profiling run.
// ---------------------------------------------------------------------------

struct SetupTotals {
  std::uint64_t irInstrs = 0;
  std::uint64_t staticSites = 0;
  std::uint64_t binaryInstrs = 0;
};

/// Replays ToolInstance construction one layer at a time; returns the
/// final binary's instruction count.
std::uint64_t replayLayers(const MatrixJob& job, Tracer& tracer,
                           SetupTotals& totals) {
  const rc::ToolSpec spec = rc::parseToolSpec(job.tool);
  const refine::fi::FiConfig config = spec.apply(job.fiConfig);
  std::unique_ptr<refine::ir::Module> module;
  {
    auto s = tracer.span("frontend.compile");
    module = refine::fe::compileToIR(job.source);
  }
  {
    auto s = tracer.span("opt.optimize");
    refine::opt::optimize(*module, refine::opt::OptLevel::O2);
  }
  {
    auto s = tracer.span("opt.protect");
    refine::opt::applyProtection(*module, config.protect);
  }
  totals.irInstrs += irInstructionCount(*module);

  auto predecodeAndJit = [&](const refine::backend::Program& program) {
    std::optional<refine::vm::DecodedProgram> decoded;
    {
      auto s = tracer.span("vm.predecode");
      decoded.emplace(program);
    }
    auto s = tracer.span("vm.jit_compile");
    refine::vm::JitProgram jit(*decoded);
    jit.entry();
  };

  if (spec.base == "REFINE") {
    // REFINE instruments inside the backend: one call does both.
    std::optional<refine::fi::RefineCompileResult> compiled;
    {
      auto s = tracer.span("fi.instrument");
      compiled.emplace(refine::fi::compileWithRefine(*module, config));
    }
    totals.staticSites += compiled->staticSites;
    predecodeAndJit(compiled->program);
    return compiled->program.code.size();
  }
  if (spec.base == "LLFI") {
    {
      auto s = tracer.span("fi.instrument");
      totals.staticSites +=
          refine::fi::applyLlfiPass(*module, config).staticTargets;
    }
    refine::backend::CodegenResult compiled;
    {
      auto s = tracer.span("backend.compile");
      compiled = refine::backend::compileBackend(*module);
    }
    predecodeAndJit(compiled.program);
    return compiled.program.code.size();
  }
  RF_CHECK(spec.base == "PINFI", "unknown tool base " + spec.base);
  refine::backend::CodegenResult compiled;
  {
    auto s = tracer.span("backend.compile");
    compiled = refine::backend::compileBackend(*module);
  }
  // PINFI scans the binary and predecodes it inside its constructor.
  std::optional<refine::fi::Pinfi> pinfi;
  {
    auto s = tracer.span("fi.instrument");
    pinfi.emplace(compiled.program, config);
  }
  totals.staticSites += pinfi->staticTargets();
  {
    auto s = tracer.span("vm.jit_compile");
    refine::vm::JitProgram jit(pinfi->decoded());
    jit.entry();
  }
  return compiled.program.code.size();
}

std::vector<std::unique_ptr<rc::ToolInstance>> setupProbe(
    const Workload& w, Tracer& tracer, LayerMetrics& metrics,
    Counters& counters, Checks& checks) {
  auto probe = tracer.span("probe.setup");
  SetupTotals totals;
  std::vector<std::unique_ptr<rc::ToolInstance>> instances;
  for (const MatrixJob& job : w.jobs) {
    auto cell = tracer.span("campaign.tools.cell");
    std::uint64_t replayBinary = 0;
    {
      auto s = tracer.span("campaign.tools.layers");
      replayBinary = replayLayers(job, tracer, totals);
    }
    std::unique_ptr<rc::ToolInstance> instance;
    {
      auto s = tracer.span("campaign.tools.create");
      instance = rc::InjectorRegistry::global().get(job.tool).create(
          job.source, job.fiConfig);
    }
    {
      auto s = tracer.span("campaign.tools.profile");
      instance->profile();
    }
    if (instance->binarySize() != replayBinary) {
      checks.fail("layer replay of " + job.app + " x " + job.tool +
                  " built a " + std::to_string(replayBinary) +
                  "-instruction binary; the instance has " +
                  std::to_string(instance->binarySize()));
    }
    totals.binaryInstrs += replayBinary;
    instances.push_back(std::move(instance));
  }
  putCounter(metrics, counters, "opt.ir_instrs",
             static_cast<double>(totals.irInstrs), "count");
  putCounter(metrics, counters, "fi.static_sites",
             static_cast<double>(totals.staticSites), "count");
  putCounter(metrics, counters, "backend.binary_instrs",
             static_cast<double>(totals.binaryInstrs), "count");
  return instances;
}

/// Trace self-checks of the setup probe: each cell's time is accounted for
/// by its create, profile and layer spans, and the layer replay accounts
/// for what create does (same calls, so the same order of time).
void checkSetupAccounting(const std::vector<Span>& spans, Checks& checks) {
  const auto self = selfTimesNs(spans);
  std::map<std::uint64_t, const Span*> byId;
  for (const Span& s : spans) byId[s.id] = &s;
  double layerSeconds = 0.0;
  double createSeconds = 0.0;
  for (const Span& s : spans) {
    const double seconds = 1e-9 * static_cast<double>(s.endNs - s.startNs);
    if (s.name == "campaign.tools.cell") {
      const double selfSeconds = 1e-9 * static_cast<double>(self.at(s.id));
      if (selfSeconds > 0.1 * seconds + 1e-3) {
        checks.fail("setup cell span #" + std::to_string(s.id) + " has " +
                    exactText(selfSeconds) +
                    " s not covered by its create, profile and layer spans");
      }
    } else if (s.name == "campaign.tools.create") {
      createSeconds += seconds;
    } else if (s.parent != 0 && byId.count(s.parent) &&
               byId.at(s.parent)->name == "campaign.tools.layers" &&
               s.name != "vm.jit_compile") {
      // Direct children of the replay, minus the JIT (which instances
      // compile lazily on their first trial, not in create).
      layerSeconds += seconds;
    }
  }
  if (createSeconds > 0 &&
      (layerSeconds < 0.5 * createSeconds || layerSeconds > 2.0 * createSeconds)) {
    checks.fail("setup layer spans (" + exactText(layerSeconds) +
                " s) do not account for campaign.tools.create (" +
                exactText(createSeconds) + " s)");
  }
}

// ---------------------------------------------------------------------------
// Trial layer: ToolInstance::runTrial on a TrialScratch, draws from
// drawTrialChunk, one chunk per cell as bench/trial_throughput runs it.
// ---------------------------------------------------------------------------

struct CellTrials {
  std::vector<double> micros;
  rc::OutcomeCounts counts;
  std::uint64_t executed = 0;
  std::uint64_t jit = 0;
  std::uint64_t restored = 0;
  double suffixSum = 0.0;
};

void trialProbe(const Workload& w, std::uint64_t baseSeed,
                const CampaignRun& traced,
                const std::vector<std::unique_ptr<rc::ToolInstance>>& instances,
                Tracer& tracer, LayerMetrics& metrics, Counters& counters,
                Checks& checks) {
  auto probe = tracer.span("probe.trials");
  std::map<std::string, const CampaignResult*> campaignCells;
  for (const auto& cell : traced.cells) {
    campaignCells[cellKey(cell.app, cell.tool)] = &cell;
  }
  std::vector<CellTrials> cells(w.jobs.size());
  std::atomic<std::size_t> next{0};
  const double timeoutFactor = rc::CampaignConfig{}.timeoutFactor;
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < w.jobs.size();) {
      const MatrixJob& job = w.jobs[i];
      const auto it = campaignCells.find(cellKey(job.app, job.tool));
      if (it == campaignCells.end()) continue;  // reported by checkCounts
      auto s = tracer.spanUnder("campaign.tools.trials", probe.id());
      const rc::ToolInstance& instance = *instances[i];
      const auto& profile = instances[i]->profile();
      const std::uint64_t budget = static_cast<std::uint64_t>(
          timeoutFactor * static_cast<double>(profile.instrCount));
      std::vector<rc::TrialDraw> draws;
      rc::drawTrialChunk(baseSeed, refine::fnv1a(job.app),
                         rc::injectorSeedKey(job.tool), profile.dynamicTargets,
                         0, it->second->counts.total(), draws);
      rc::TrialScratch scratch;
      scratch.setGolden(&profile.goldenOutput);
      CellTrials& out = cells[i];
      out.micros.reserve(draws.size());
      for (const rc::TrialDraw& d : draws) {
        const auto start = Clock::now();
        const auto& run = instance.runTrial(d.target, d.seed, budget, scratch);
        out.micros.push_back(1e6 * secondsSince(start));
        out.counts.add(rc::classify(run.exec, profile.goldenOutput));
        const std::uint64_t executed =
            run.exec.instrCount - run.fastForwardedInstrs;
        out.executed += executed;
        out.jit += run.exec.jitInstrCount;
        out.restored += run.restoredBytes;
        if (run.exec.instrCount > 0) {
          out.suffixSum += static_cast<double>(executed) /
                           static_cast<double>(run.exec.instrCount);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < w.threads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  std::vector<double> micros;
  CellTrials sum;
  std::uint64_t snapshots = 0;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const CellTrials& c = cells[i];
    const auto it = campaignCells.find(cellKey(w.jobs[i].app, w.jobs[i].tool));
    if (it != campaignCells.end() && c.counts != it->second->counts) {
      checks.fail("trial replay of " + w.jobs[i].app + " x " +
                  w.jobs[i].tool + " classified differently from the "
                  "campaign");
    }
    micros.insert(micros.end(), c.micros.begin(), c.micros.end());
    sum.executed += c.executed;
    sum.jit += c.jit;
    sum.restored += c.restored;
    sum.suffixSum += c.suffixSum;
    snapshots += instances[i]->snapshots().size();
  }
  RF_CHECK(!micros.empty(), "trial probe ran no trials");
  double trialSeconds = 0.0;
  for (const double us : micros) trialSeconds += 1e-6 * us;
  const auto n = static_cast<double>(micros.size());
  put(metrics, "campaign.tools.trial_us.p50", percentile(micros, 50), "us");
  put(metrics, "campaign.tools.trial_us.p99", percentile(micros, 99), "us");
  put(metrics, "campaign.tools.trial_us.samples", n, "count");
  put(metrics, "vm.mips", static_cast<double>(sum.executed) / trialSeconds / 1e6,
      "Minstr/s");
  putCounter(metrics, counters, "vm.instrs_per_trial",
             static_cast<double>(sum.executed) / n, "instr");
  putCounter(metrics, counters, "vm.jit_coverage",
             sum.executed > 0 ? static_cast<double>(sum.jit) /
                                    static_cast<double>(sum.executed)
                              : 0.0,
             "share");
  putCounter(metrics, counters, "vm.snapshot.restored_bytes_per_trial",
             static_cast<double>(sum.restored) / n, "B");
  putCounter(metrics, counters, "vm.snapshot.suffix_fraction",
             sum.suffixSum / n, "share");
  putCounter(metrics, counters, "vm.snapshot.count",
             static_cast<double>(snapshots), "count");
}

// ---------------------------------------------------------------------------
// Coordinator: the workload's matrix leased to one worker, fed the traced
// campaign's own records (Coordinator::onRequest / onRecord on a fake
// clock).
// ---------------------------------------------------------------------------

void coordinatorProbe(const Workload& w, std::uint64_t baseSeed,
                      const CampaignRun& traced, const std::string& workDir,
                      Tracer& tracer, LayerMetrics& metrics,
                      Counters& counters, Checks& checks) {
  auto probe = tracer.span("probe.coordinator");
  std::map<std::string, const CampaignResult*> records;  // app|tool|round
  for (const auto& r : traced.records) {
    records[cellKey(r.app, r.tool) + "|" +
            (r.planRound ? std::to_string(*r.planRound) : "-")] = &r;
  }
  rc::CoordinatorConfig config;
  config.apps = w.apps;
  config.tools = w.tools;
  config.trials = w.trials;
  config.plan = w.plan ? w.plan->canonical() : "";
  config.baseSeed = baseSeed;
  const std::string path = workDir + "/coordinator-probe.ckpt";
  std::filesystem::remove(path);
  rc::CheckpointStore store(path);
  rc::Coordinator core(config, store, 0.0);
  const std::uint64_t worker = core.addWorker();
  std::vector<double> grantMicros;
  std::vector<double> ingestMicros;
  std::uint64_t leases = 0;
  double now = 0.0;
  auto ingest = [&](const rc::LeaseRef& ref, const std::string& key) {
    const auto it = records.find(key);
    if (it == records.end()) {
      checks.fail("coordinator asked for " + key +
                  ", which the campaign did not record");
      return false;
    }
    const std::string payload =
        rc::encodeRecord(ref, rc::CheckpointStore::encode(*it->second));
    rc::Coordinator::Ingest result;
    {
      auto s = tracer.span("campaign.coordinator.ingest");
      const auto start = Clock::now();
      result = core.onRecord(worker, payload, now);
      ingestMicros.push_back(1e6 * secondsSince(start));
    }
    if (result != rc::Coordinator::Ingest::Accepted) {
      checks.fail("coordinator did not accept the record of " + key);
      return false;
    }
    return true;
  };
  while (!core.complete()) {
    rc::Coordinator::RequestReply reply;
    {
      auto s = tracer.span("campaign.coordinator.grant");
      const auto start = Clock::now();
      reply = core.onRequest(worker, now);
      grantMicros.push_back(1e6 * secondsSince(start));
    }
    if (reply.kind != rc::Coordinator::RequestKind::Grant) {
      checks.fail("coordinator stopped granting before the campaign was "
                  "complete");
      break;
    }
    ++leases;
    const rc::LeaseRef ref{reply.grant.leaseId, reply.grant.epoch};
    bool ok = true;
    if (reply.grant.batch) {
      const MatrixJob& job = w.jobs.at(reply.grant.shard.index);
      ok = ingest(ref, cellKey(job.app, job.tool) + "|" +
                           std::to_string(reply.grant.batch->round));
    } else {
      for (std::size_t i = 0; ok && i < w.jobs.size(); ++i) {
        if (!reply.grant.shard.contains(i)) continue;
        ok = ingest(ref, cellKey(w.jobs[i].app, w.jobs[i].tool) + "|-");
      }
    }
    if (!ok) break;
    core.onLeaseDone(worker, rc::encodeLeaseRef(ref), now);
    now += 1e-3;
  }
  RF_CHECK(!grantMicros.empty() && !ingestMicros.empty(),
           "coordinator probe granted nothing");
  put(metrics, "campaign.coordinator.grant_us", median(grantMicros), "us");
  put(metrics, "campaign.coordinator.ingest_us", median(ingestMicros), "us");
  putCounter(metrics, counters, "campaign.worker.leases",
             static_cast<double>(leases), "count");
  put(metrics, "campaign.worker.trials_per_lease",
      static_cast<double>(traced.trials) / static_cast<double>(leases),
      "count");
}

// ---------------------------------------------------------------------------
// Persistence and framing.
// ---------------------------------------------------------------------------

void persistProbe(const Workload& w, std::uint64_t baseSeed,
                  const CampaignRun& traced, const std::string& workDir,
                  Tracer& tracer, LayerMetrics& metrics, Counters& counters) {
  auto probe = tracer.span("probe.persist");
  const std::string path = workDir + "/persist-probe.ckpt";
  std::filesystem::remove(path);
  std::vector<double> appendMicros;
  {
    rc::CheckpointStore store(path);
    store.bindCampaign({baseSeed, w.trials, rc::CampaignConfig{}.timeoutFactor,
                        rc::checkpointToolList(w.jobs),
                        w.plan ? w.plan->canonical() : ""});
    for (const auto& record : traced.records) {
      auto s = tracer.span("campaign.persist.append");
      const auto start = Clock::now();
      store.append(record);
      appendMicros.push_back(1e6 * secondsSince(start));
    }
  }
  std::vector<double> openSeconds;
  for (int i = 0; i < 5; ++i) {
    auto s = tracer.span("campaign.persist.open");
    const auto start = Clock::now();
    rc::CheckpointStore reopened(path);
    openSeconds.push_back(secondsSince(start));
    RF_CHECK(reopened.records().size() == traced.records.size(),
             "reopened store lost records");
  }
  put(metrics, "campaign.persist.append_us", median(appendMicros), "us");
  put(metrics, "campaign.persist.open_s", median(openSeconds), "s");
  putCounter(metrics, counters, "campaign.persist.records",
             static_cast<double>(traced.records.size()), "count");
}

void netProbe(const CampaignRun& traced, Tracer& tracer, LayerMetrics& metrics,
              Checks& checks) {
  auto probe = tracer.span("probe.net");
  RF_CHECK(!traced.records.empty(), "net probe: the campaign recorded nothing");
  auto [a, b] = refine::localSocketPair();
  std::vector<double> micros;
  constexpr std::size_t kFrames = 4096;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto& record = traced.records[i % traced.records.size()];
    const std::string payload = rc::encodeRecord(
        {i + 1, 1}, rc::CheckpointStore::encode(record));
    const auto start = Clock::now();
    rc::writeFrame(a.get(), rc::MsgType::Record, payload);
    const auto frame = rc::readFrame(b.get());
    micros.push_back(1e6 * secondsSince(start));
    if (!frame || frame->payload != payload) {
      checks.fail("a frame did not survive the socket pair");
      break;
    }
  }
  put(metrics, "campaign.net.frame_us", median(micros), "us");
}

void reportProbe(const Workload& w, const CampaignRun& traced, Tracer& tracer,
                 LayerMetrics& metrics, Checks& checks) {
  auto probe = tracer.span("probe.report");
  std::vector<double> seconds;
  for (int i = 0; i < 5; ++i) {
    auto s = tracer.span("campaign.report.render");
    const auto start = Clock::now();
    std::string report;
    if (w.plan) {
      report = rc::plannedCountsCsv(
          rc::foldPlannedRecords(traced.records, *w.plan), *w.plan);
    } else {
      report = w.protectSuite ? rc::protectionSuiteCsv(traced.cells)
                              : rc::countsCsv(traced.cells);
    }
    seconds.push_back(secondsSince(start));
    if (report != traced.report) {
      checks.fail("re-rendered report differs from the campaign's");
    }
  }
  put(metrics, "campaign.report.render_s", median(seconds), "s");
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine, planner and outcome figures of the traced campaign itself.
// ---------------------------------------------------------------------------

void campaignFigures(const Workload& w, const CampaignRun& traced,
                     LayerMetrics& metrics, Counters& counters) {
  std::map<std::string, double> trialSeconds = {
      {"LLFI", 0.0}, {"REFINE", 0.0}, {"PINFI", 0.0}};
  double total = 0.0;
  for (const auto& record : traced.records) {
    trialSeconds[baseTool(record.tool)] += record.totalTrialSeconds;
    total += record.totalTrialSeconds;
  }
  for (const auto& [tool, seconds] : trialSeconds) {
    put(metrics, "campaign.engine.trial_s." + tool, seconds, "s");
  }
  put(metrics, "campaign.engine.trial_share",
      total / (static_cast<double>(w.threads) * traced.wallSeconds), "share");
  // The tail starts when fewer cells than threads are still running.
  std::vector<double> done = traced.cellDoneSeconds;
  std::sort(done.begin(), done.end());
  double tail = 0.0;
  if (done.size() >= w.threads) {
    tail = std::max(0.0, traced.wallSeconds - done[done.size() - w.threads]);
  }
  put(metrics, "campaign.engine.tail_s", tail, "s");

  rc::OutcomeCounts counts;
  for (const auto& cell : traced.cells) counts += cell.counts;
  putCounter(metrics, counters, "campaign.outcome.benign_share",
             static_cast<double>(counts.benign) /
                 static_cast<double>(counts.total()),
             "share");
  putCounter(metrics, counters, "campaign.planner.trials_used",
             static_cast<double>(counts.total()), "count");
  // A flat cell is one round; planned cells report their rounds.
  std::uint64_t rounds = traced.cells.size();
  if (w.plan) {
    rounds = 0;
    for (const auto& cell : traced.planned) rounds += cell.rounds;
  }
  putCounter(metrics, counters, "campaign.planner.rounds",
             static_cast<double>(rounds), "count");
}

void runProbes(const Workload& workload, std::uint64_t baseSeed,
               const CampaignRun& traced, const std::string& workDir,
               Tracer& tracer, LayerMetrics& metrics, Counters& counters,
               Checks& checks) {
  campaignFigures(workload, traced, metrics, counters);
  {
    const auto instances =
        setupProbe(workload, tracer, metrics, counters, checks);
    trialProbe(workload, baseSeed, traced, instances, tracer, metrics,
               counters, checks);
  }
  coordinatorProbe(workload, baseSeed, traced, workDir, tracer, metrics,
                   counters, checks);
  persistProbe(workload, baseSeed, traced, workDir, tracer, metrics, counters);
  netProbe(traced, tracer, metrics, checks);
  reportProbe(workload, traced, tracer, metrics, checks);

  const auto spans = tracer.spans();
  checkSetupAccounting(spans, checks);
  const auto self = selfSecondsByName(spans);
  for (const char* layer :
       {"frontend.compile", "opt.optimize", "opt.protect", "fi.instrument",
        "backend.compile", "vm.predecode", "vm.jit_compile",
        "campaign.tools.create", "campaign.tools.profile"}) {
    const auto it = self.find(layer);
    put(metrics, std::string(layer) + "_s", it == self.end() ? 0.0 : it->second,
        "s");
  }
}

}  // namespace perfbench
