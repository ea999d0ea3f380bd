// sweep-l2: the paper's audit of the authentic MicroRV32 / RISC-V VP pair.
//
// Unguided (every 32-bit word may be fetched), instruction limit 2, DFS,
// a 3000-path budget, all solver layers, test vectors collected, on a
// 4-job ParallelEngine. Seed-free: DFS over one symbolic program. About
// 80% of its host time is the solver phase, so solver and exploration
// changes show here; the co-simulation models are a minor share.
#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "core/classify.hpp"
#include "core/coverage.hpp"
#include "core/cosim.hpp"
#include "expr/eval.hpp"
#include "expr/serialize.hpp"
#include "solver/bitblast.hpp"
#include "solver/sat.hpp"
#include "solver/solver.hpp"
#include "symex/parallel.hpp"

namespace rvsym::perfbench {
namespace {

constexpr unsigned kJobs = 4;
constexpr std::uint64_t kPathBudget = 3000;

core::CosimConfig cosimConfig() {
  core::CosimConfig cfg;  // authentic RTL core and ISS, 2 sliced registers
  cfg.instr_limit = 2;
  return cfg;
}

symex::ParallelEngineOptions engineOptions(unsigned jobs) {
  symex::ParallelEngineOptions o;
  o.searcher = symex::EngineOptions::Searcher::Dfs;
  o.max_paths = kPathBudget;
  o.stop_on_error = false;  // an audit wants every mismatch
  o.collect_test_vectors = true;
  o.solver_opt = solver::SolverOptions::all();
  o.path_tagger = core::instrClassTagger();  // as VerificationSession does
  o.jobs = jobs;
  return o;
}

std::string decisionKey(const std::vector<bool>& d) {
  std::string k(d.size(), '0');
  for (std::size_t i = 0; i < d.size(); ++i)
    if (d[i]) k[i] = '1';
  return k;
}

/// One invocation of the engine's program callable (traced runs).
struct PathProbe {
  std::string decisions;
  double seconds = 0;
  solver::QueryStats stats;
  std::vector<expr::ExprRef> constraints;
};

/// Per-worker probe storage: each worker appends only to its own slot.
struct WorkerProbes {
  std::vector<PathProbe> paths;
  std::size_t interned_nodes = 0;  ///< the worker builder's, at last path
};

struct SweepResult {
  symex::EngineReport report;
  std::vector<core::Finding> findings;
  double wall_s = 0;
  double engine_s = 0;
  double classify_s = 0;
  std::vector<WorkerProbes> probes;  ///< traced runs only
};

/// One audit. `first_unit` is called once, by whichever worker starts the
/// first path; `ins` (traced runs) attaches the program's instruments and
/// wraps every path in a span and a "runPath" phase.
SweepResult runOnce(unsigned jobs, Instruments* ins,
                    FirstUnit* first_unit) {
  core::CosimConfig cfg = cosimConfig();
  symex::ParallelEngineOptions opts = engineOptions(jobs);
  SweepResult res;
  std::uint64_t workload_id = 0, engine_id = 0;
  if (ins) {
    cfg.metrics = &ins->registry;
    opts.metrics = &ins->registry;
    opts.telemetry = &ins->telemetry;
    opts.profiler = &ins->profiler;
    res.probes.resize(jobs);
    workload_id = ins->tree.newId();
    engine_id = ins->tree.newId();
  }

  const auto factory = [&](symex::WorkerContext& ctx) -> symex::PathProgram {
    auto cosim = std::make_shared<core::CoSimulation>(ctx.builder, cfg);
    WorkerProbes* probes = ins ? &res.probes[ctx.worker_id] : nullptr;
    const unsigned worker = ctx.worker_id;
    return [cosim, probes, worker, ins, engine_id, 
            first_unit](symex::ExecState& st) {
      if (first_unit) (*first_unit)();
      if (!probes) {
        cosim->runPath(st);
        return;
      }
      // Records the span and probe on every exit, including the
      // PathTerminated unwinding that ends most paths.
      struct Finish {
        symex::ExecState& st;
        WorkerProbes& probes;
        SpanTree& tree;
        obs::PhaseProfiler* profiler;
        std::uint64_t parent;
        unsigned worker;
        Clock::time_point start = Clock::now();
        ~Finish() {
          const Clock::time_point end = Clock::now();
          // The probe's own cost is the benchmark's, not the engine's.
          const obs::PhaseTimer bench(profiler, "bench");
          PathProbe p;
          p.decisions = decisionKey(st.decisions());
          p.seconds = secondsBetween(start, end);
          p.stats = st.solverStats();
          p.constraints = st.constraints();
          Digest d;
          d.add(p.decisions);
          tree.record(tree.newId(), parent, "runPath", start, end,
                      {{"worker", std::to_string(worker)},
                       {"path", quoted(d.hex())}});
          probes.interned_nodes = st.builder().numInternedNodes();
          probes.paths.push_back(std::move(p));
        }
      } finish{st, *probes, ins->tree, &ins->profiler, engine_id, worker};
      const obs::PhaseTimer phase(&ins->profiler, "runPath");
      cosim->runPath(st);
    };
  };

  const Clock::time_point t0 = Clock::now();
  symex::ParallelEngine engine(opts);
  res.report = engine.run(factory);
  const Clock::time_point t1 = Clock::now();
  res.findings = core::classifyReport(res.report);
  const Clock::time_point t2 = Clock::now();
  res.engine_s = secondsBetween(t0, t1);
  res.classify_s = secondsBetween(t1, t2);
  res.wall_s = secondsBetween(t0, t2);
  if (ins) {
    ins->tree.record(engine_id, workload_id, "ParallelEngine::run", t0, t1,
                     {{"jobs", std::to_string(jobs)}});
    ins->tree.record(ins->tree.newId(), workload_id, "classifyReport", t1, t2);
    ins->tree.record(workload_id, 0, "sweep-l2", t0, t2);
  }
  return res;
}

/// The golden record: deterministic EngineReport counters, the findings
/// set and a digest of every path record including its test vector.
/// Identical for any job count (ParallelEngine's determinism contract).
std::vector<std::string> goldenLines(const SweepResult& r) {
  const symex::EngineReport& e = r.report;
  std::vector<std::string> lines;
  const auto counter = [&lines](const char* name, std::uint64_t v) {
    lines.push_back(std::string("counter ") + name + " " + std::to_string(v));
  };
  counter("completed_paths", e.completed_paths);
  counter("error_paths", e.error_paths);
  counter("infeasible_paths", e.infeasible_paths);
  counter("limited_paths", e.limited_paths);
  counter("unexplored_forks", e.unexplored_forks);
  counter("instructions", e.instructions);
  counter("test_vectors", e.test_vectors);
  counter("branches", e.branches);
  counter("const_decided", e.const_decided);
  counter("knownbits_decided", e.knownbits_decided);
  counter("solver_decided", e.solver_decided);
  counter("solver_checks", e.solver_checks);
  counter("stopped_early", e.stopped_early ? 1 : 0);
  for (const core::Finding& f : r.findings)
    lines.push_back("finding " + f.key() + "|" + f.example + "|" + f.r_class);
  Digest d;
  for (const symex::PathRecord& p : e.paths) {
    d.add(static_cast<std::uint64_t>(p.end));
    d.add(p.message);
    d.add(decisionKey(p.decisions));
    d.add(p.instructions);
    d.add(static_cast<std::uint64_t>(p.has_test));
    for (const symex::TestValue& v : p.test.values) {
      d.add(v.name);
      d.add(static_cast<std::uint64_t>(v.width));
      d.add(v.value);
    }
    for (const std::string& t : p.tags) d.add(t);
  }
  lines.push_back("digest " + d.hex());
  return lines;
}

std::string goldenPath(const RunConfig& cfg) {
  return cfg.golden_dir + "/sweep-l2.golden";
}

std::vector<std::string> readLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string l; std::getline(in, l);)
    if (!l.empty()) lines.push_back(l);
  return lines;
}

/// Fails the run's paths per the workload's failure rule: a path fails
/// if it ended on a solver or engine budget, and every path fails if the
/// golden check does.
void check(const SweepResult& r, const std::vector<std::string>& golden,
           Outcome& out) {
  const std::uint64_t committed = r.report.paths.size();
  out.attempted += committed;
  std::uint64_t failed = 0;
  for (const symex::PathRecord& p : r.report.paths)
    if (p.end == symex::PathEnd::SolverLimit ||
        p.end == symex::PathEnd::Budget)
      ++failed;
  const std::vector<std::string> got = goldenLines(r);
  if (got != golden) {
    failed = committed;
    for (std::size_t i = 0; i < std::max(got.size(), golden.size()); ++i) {
      const std::string g = i < got.size() ? got[i] : "<missing>";
      const std::string w = i < golden.size() ? golden[i] : "<missing>";
      if (g != w) {
        out.errors.push_back("sweep-l2 golden mismatch: got '" + g +
                             "', want '" + w + "'");
        break;
      }
    }
  }
  out.failed += failed;
}

/// Replays each committed path's final constraint set the way model()
/// does for its test vector: a fresh builder (the set parsed back from
/// its serialization), a fresh BitBlaster + SatSolver, then the model
/// itself, checked against every constraint.
struct Replay {
  double lower_us = 0, sat_us = 0;
  double clauses = 0, vars = 0;
  std::uint64_t paths = 0;
  std::uint64_t bad_models = 0;
};

void replayPath(const std::vector<expr::ExprRef>& constraints, Replay& rp) {
  const std::optional<std::string> text = expr::serializeNodes(constraints);
  expr::ExprBuilder eb;
  const std::optional<std::vector<expr::ExprRef>> roots =
      text ? expr::parseNodes(eb, *text) : std::nullopt;
  if (!roots) {
    ++rp.bad_models;
    return;
  }
  solver::SatSolver sat;
  solver::BitBlaster blaster(sat, eb);
  const Clock::time_point t0 = Clock::now();
  for (const expr::ExprRef& c : *roots)
    if (!c->isConstant()) blaster.assertTrue(c);
  const Clock::time_point t1 = Clock::now();
  const bool sat_ok = sat.solve() == solver::SatSolver::Result::Sat;
  const Clock::time_point t2 = Clock::now();
  rp.lower_us += secondsBetween(t0, t1) * 1e6;
  rp.sat_us += secondsBetween(t1, t2) * 1e6;
  rp.clauses += static_cast<double>(sat.numProblemClauses());
  rp.vars += static_cast<double>(sat.numVars());
  ++rp.paths;

  solver::PathSolver ps(eb);
  for (const expr::ExprRef& c : *roots) ps.addConstraint(c);
  const std::optional<expr::Assignment> m = ps.model();
  bool ok = sat_ok && m.has_value();
  if (ok)
    for (const expr::ExprRef& c : *roots)
      ok = ok && expr::evaluate(c, *m) == 1;
  if (!ok) ++rp.bad_models;
}

void addLayerMetrics(const std::vector<SweepResult>& traced, Instruments& ins,
                     double untraced_wall, Outcome& out) {
  const double n = static_cast<double>(traced.size());
  const auto per = [n](double v) { return v / n; };
  const auto put = [&out](const std::string& k, double v, const char* unit) {
    out.per_layer[k] = {v, unit};
  };

  double executed = 0, committed = 0, runpath_s = 0, engine_cap = 0;
  double interned = 0, checks = 0, sat_solves = 0, models = 0;
  double qc_hits = 0, qc_misses = 0, cex_hits = 0, rewrites = 0, sliced = 0;
  double branches = 0, knownbits = 0, solver_decided = 0, classify_s = 0;
  Replay rp;
  for (const SweepResult& r : traced) {
    std::unordered_map<std::string, const PathProbe*> by_key;
    for (const WorkerProbes& w : r.probes) {
      interned += static_cast<double>(w.interned_nodes);
      for (const PathProbe& p : w.paths) {
        executed += 1;
        runpath_s += p.seconds;
        by_key.emplace(p.decisions, &p);
      }
    }
    engine_cap += r.engine_s * kJobs;
    classify_s += r.classify_s;
    branches += static_cast<double>(r.report.branches);
    knownbits += static_cast<double>(r.report.knownbits_decided);
    solver_decided += static_cast<double>(r.report.solver_decided);
    for (const symex::PathRecord& rec : r.report.paths) {
      const auto it = by_key.find(decisionKey(rec.decisions));
      if (it == by_key.end()) {
        out.errors.push_back("sweep-l2: committed path without a probe");
        continue;
      }
      const solver::QueryStats& s = it->second->stats;
      committed += 1;
      checks += static_cast<double>(s.checks);
      sat_solves += static_cast<double>(s.sat_solves);
      // In-program concretizations plus the engine's test-vector solve.
      models += static_cast<double>(s.model_queries) +
                (rec.end == symex::PathEnd::Completed ||
                         rec.end == symex::PathEnd::Error
                     ? 1
                     : 0);
      qc_hits += static_cast<double>(s.cache_hits);
      qc_misses += static_cast<double>(s.cache_misses);
      cex_hits += static_cast<double>(s.cex_model_hits + s.cex_core_hits);
      rewrites += static_cast<double>(s.rewrite_decided);
      sliced += static_cast<double>(s.sliced_solves);
      if (rec.has_test) replayPath(it->second->constraints, rp);
    }
  }
  if (rp.bad_models != 0)
    out.errors.push_back("sweep-l2 replay: " + std::to_string(rp.bad_models) +
                         " path(s) unreplayable or with a model violating "
                         "their constraint set");

  const std::map<std::string, double> leaf = leafSelfSeconds(ins.profiler);
  const auto leafS = [&leaf](const char* k) {
    const auto it = leaf.find(k);
    return it == leaf.end() ? 0.0 : it->second;
  };
  const obs::Histogram& rtl_h = ins.registry.histogram("cosim.rtl_instr_us");
  const obs::Histogram& iss_h = ins.registry.histogram("cosim.iss_step_us");
  const double sat_s =
      static_cast<double>(ins.registry.histogram("solver.sat_us").sumMicros()) *
      1e-6;
  const double lower_s =
      static_cast<double>(
          ins.registry.histogram("solver.bitblast_us").sumMicros()) *
      1e-6;

  put("symex.paths_executed", per(executed), "count");
  put("symex.commit_ratio", executed > 0 ? committed / executed : 0, "frac");
  put("symex.worker_busy_frac", engine_cap > 0 ? runpath_s / engine_cap : 0,
      "frac");
  put("symex.self_s", per(leafS("path")), "s");
  put("symex.branches", per(branches), "count");
  put("symex.knownbits_decided", per(knownbits), "count");
  put("symex.solver_decided", per(solver_decided), "count");
  put("core.runpath_s", per(runpath_s), "s");
  put("core.voter_s", per(leafS("voter")), "s");
  put("rtl.self_s", per(leafS("rtl")), "s");
  put("rtl.instr_us_p50", static_cast<double>(rtl_h.quantileMicros(0.5)), "us");
  put("rtl.instr_us_p99", static_cast<double>(rtl_h.quantileMicros(0.99)), "us");
  put("iss.self_s", per(leafS("iss")), "s");
  put("iss.step_us_p50", static_cast<double>(iss_h.quantileMicros(0.5)), "us");
  put("iss.step_us_p99", static_cast<double>(iss_h.quantileMicros(0.99)), "us");
  put("expr.interned_nodes", per(interned), "count");
  put("solver.checks", per(checks), "count");
  put("solver.sat_solves", per(sat_solves), "count");
  put("solver.model_queries", per(models), "count");
  put("solver.phase_s", per(leafS("solver")), "s");
  put("solver.sat_s", per(sat_s), "s");
  put("solver.lower_s", per(lower_s), "s");
  put("solver.unattributed_s", per(leafS("solver") - sat_s - lower_s), "s");
  const double rpn = rp.paths > 0 ? static_cast<double>(rp.paths) : 1;
  put("solver.replay_lower_us_per_path", rp.lower_us / rpn, "us");
  put("solver.replay_sat_us_per_path", rp.sat_us / rpn, "us");
  put("solver.replay_clauses_per_path", rp.clauses / rpn, "count");
  put("solver.replay_vars_per_path", rp.vars / rpn, "count");
  put("solver.qcache_hit_frac",
      qc_hits + qc_misses > 0 ? qc_hits / (qc_hits + qc_misses) : 0, "frac");
  put("solver.cex_hit_frac", qc_misses > 0 ? cex_hits / qc_misses : 0, "frac");
  put("solver.cache_decided_frac",
      checks > 0 ? (checks - sat_solves) / checks : 0, "frac");
  put("solver.rewrite_decided", per(rewrites), "count");
  put("solver.sliced_solves", per(sliced), "count");

  Ledger ledger;
  ledger.threads = kJobs;
  for (const SweepResult& r : traced) ledger.wall_s += r.wall_s;
  ledger.wall_s /= n;
  ledger.layer_s["symex"] = per(leafS("path"));
  ledger.layer_s["core"] =
      per(leafS("runPath") + leafS("voter") + classify_s);
  ledger.layer_s["rtl"] = per(leafS("rtl"));
  ledger.layer_s["iss"] = per(leafS("iss"));
  ledger.layer_s["solver"] = per(leafS("solver"));
  ledger.layer_s["bench"] = per(leafS("bench"));
  for (const auto& [name, s] : leaf)
    if (name != "path" && name != "runPath" && name != "voter" &&
        name != "rtl" && name != "iss" && name != "solver" && name != "bench")
      out.errors.push_back("sweep-l2: unmapped profiler phase '" + name + "'");
  ledger.report(out, untraced_wall);
}

}  // namespace

Outcome runSweep(const RunConfig& cfg) {
  Outcome out;
  FirstUnit first_unit(cfg);

  if (cfg.mode == Mode::Golden) {
    const SweepResult r = runOnce(kJobs, nullptr, nullptr);
    std::ofstream f(goldenPath(cfg));
    for (const std::string& l : goldenLines(r)) f << l << "\n";
    out.attempted = r.report.paths.size();
    out.notes.push_back("wrote " + goldenPath(cfg));
    return out;
  }
  if (cfg.mode == Mode::SelfTest) {
    // Counters, findings and the test-vector digest must be
    // byte-identical at 1 and 4 jobs.
    const SweepResult one = runOnce(1, nullptr, nullptr);
    const SweepResult four = runOnce(kJobs, nullptr, nullptr);
    out.attempted = 2;
    if (goldenLines(one) != goldenLines(four)) {
      ++out.failed;
      out.errors.push_back("sweep-l2: 1-job and 4-job golden lines differ");
    }
    const std::vector<std::string> golden = readLines(goldenPath(cfg));
    if (goldenLines(one) != golden) {
      ++out.failed;
      out.errors.push_back("sweep-l2: 1-job run differs from the golden");
    }
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "sweep-l2 self-test: 1 job %.3f s, %u jobs %.3f s", one.wall_s,
                  kJobs, four.wall_s);
    out.notes.emplace_back(buf);
    return out;
  }

  const std::vector<std::string> golden = readLines(goldenPath(cfg));
  if (golden.empty()) {
    out.errors.push_back("missing golden " + goldenPath(cfg));
    return out;
  }
  if (!cfg.trace) {
    std::vector<double> rates;
    const std::vector<double> walls = repeatFor(cfg.seconds, [&] {
      const SweepResult r = runOnce(kJobs, nullptr, &first_unit);
      check(r, golden, out);
      rates.push_back(static_cast<double>(r.report.paths.size()) / r.engine_s);
      return r.wall_s;
    });
    out.iterations = walls.size();
    out.end_to_end["paths_per_s"] = {median(rates), "1/s"};
    out.iteration_rates = rates;
    out.end_to_end["sweep_s"] = {median(walls), "s"};
    return out;
  }

  // Traced: one untraced reference audit, then traced audits.
  const SweepResult ref = runOnce(kJobs, nullptr, &first_unit);
  check(ref, golden, out);
  Instruments ins;
  std::vector<SweepResult> traced;
  repeatFor(cfg.seconds - ref.wall_s, [&] {
    traced.push_back(runOnce(kJobs, &ins, nullptr));
    check(traced.back(), golden, out);
    return traced.back().wall_s;
  });
  out.iterations = 1 + traced.size();
  addLayerMetrics(traced, ins, ref.wall_s, out);
  if (!cfg.trace_out.empty() &&
      !ins.spans.writeChromeTrace(cfg.trace_out))
    out.errors.push_back("cannot write " + cfg.trace_out);
  return out;
}

}  // namespace rvsym::perfbench
