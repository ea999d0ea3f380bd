// campaign: a mutation campaign on the fixed DUT against the spec-correct
// ISS.
//
// The mutants are the ten Table II mutants plus a seeded sample of the
// rest of the mutation space, stratified by kind and golden verdict
// (README.md explains the one stratum left out). Four workers judge
// them with the campaign-wide shared query and counterexample caches,
// one engine job per hunt, limits 1..2 with stop-on-error — the
// CampaignRunner configuration. The benchmark schedules the workers
// itself (the same claim-next-index loop CampaignRunner uses) so that it
// can time each decodeBitIsEquivalent / judgeMutant call from outside;
// the self-test checks its verdicts against CampaignRunner::run.
//
// Many short hunts replay near-identical decode cascades, so the shared
// caches are read and written concurrently: cache, locking and per-hunt
// set-up changes show here, engine-level parallelism does not.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "bench.hpp"
#include "mut/campaign.hpp"
#include "mut/space.hpp"
#include "solver/cexcache.hpp"
#include "solver/querycache.hpp"

namespace rvsym::perfbench {
namespace {

constexpr unsigned kWorkers = 4;
/// Sampled mutants beyond the ten paper mutants.
constexpr std::size_t kSampled = 110;
/// Per-hunt path budget: survivors stop here at limit 2.
constexpr std::uint64_t kPathsPerHunt = 100;
/// The stratum left out of every sample: stuck-at-0 on LUI/AUIPC result
/// bits those results never set within two instructions. Each of these
/// survivors costs more host time than the rest of a sample together
/// (its first limit-2 paths meet very hard SAT queries, whatever the
/// path budget), so one draw would set the campaign's wall time alone.
constexpr const char* kExcludedStratum = "stuck:utype:survived";

/// The sampling stratum of a mutant: its kind and golden verdict. Stuck
/// bits on LUI/AUIPC results are strata of their own: the survivors among
/// them (stuck-at-0 on bits those results never set within two
/// instructions) meet far harder SAT queries than any other class, so
/// mixing them with the other stuck bits would let the campaign's cost
/// swing with the seed.
std::string stratum(const mut::Mutant& m, const std::string& golden_line) {
  std::string key = mut::mutantKindName(m.kind);
  if (m.kind == mut::MutantKind::StuckBit &&
      (m.op == rv32::Opcode::Lui || m.op == rv32::Opcode::Auipc))
    key += ":utype";
  const std::size_t sp = golden_line.find(' ');
  return key + ":" + golden_line.substr(sp + 1, golden_line.rfind(' ') - sp - 1);
}

/// The ten paper mutants plus kSampled more drawn with `seed` from every
/// stratum but kExcludedStratum, apportioned by stratum size (largest
/// remainder); the whole list in enumeration order.
std::vector<mut::Mutant> sampleMutants(
    std::uint64_t seed, const std::map<std::string, std::string>& golden) {
  const std::vector<mut::Mutant> space = mut::enumerateSpace();
  std::set<std::string> paper;
  for (const mut::PaperMutant& p : mut::paperMutants())
    paper.insert(p.mutant.id());

  std::map<std::string, std::vector<std::size_t>> strata;
  std::size_t rest = 0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const std::string id = space[i].id();
    const auto g = golden.find(id);
    if (paper.count(id) || g == golden.end()) continue;
    const std::string key = stratum(space[i], g->second);
    if (key == kExcludedStratum) continue;
    strata[key].push_back(i);
    ++rest;
  }

  std::map<std::string, std::size_t> take;
  std::vector<std::pair<std::size_t, std::string>> remainders;
  std::size_t total = 0;
  for (const auto& [key, idx] : strata) {
    take[key] = idx.size() * kSampled / rest;
    total += take[key];
    remainders.emplace_back(idx.size() * kSampled % rest, key);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t r = 0; total < kSampled; ++r, ++total)
    ++take[remainders[r].second];

  std::vector<std::size_t> chosen;
  std::uint64_t rng = seed;
  for (auto& [key, idx] : strata)
    for (std::size_t i = 0; i < take[key]; ++i) {  // partial Fisher-Yates
      const std::size_t j = i + splitmix64(rng) % (idx.size() - i);
      std::swap(idx[i], idx[j]);
      chosen.push_back(idx[i]);
    }
  for (std::size_t i = 0; i < space.size(); ++i)
    if (paper.count(space[i].id())) chosen.push_back(i);
  std::sort(chosen.begin(), chosen.end());
  std::vector<mut::Mutant> out;
  for (std::size_t i : chosen) out.push_back(space[i]);
  return out;
}

mut::CampaignOptions campaignOptions() {
  mut::CampaignOptions o;
  o.jobs = kWorkers;
  o.engine_jobs = 1;
  o.min_instr_limit = 1;
  o.max_instr_limit = 2;
  // A path budget rather than a time budget keeps every verdict a pure
  // function of the mutant, so the golden holds on any host.
  o.max_paths_per_hunt = kPathsPerHunt;
  o.max_seconds_per_hunt = 0;
  o.solver_opt = solver::SolverOptions::all();
  o.use_query_cache = true;
  return o;
}

std::string goldenLine(const mut::MutantResult& r) {
  return r.mutant.id() + " " + mut::verdictName(r.verdict) + " " +
         std::to_string(r.kill_instr_limit);
}

struct Judged {
  mut::MutantResult result;
  double seconds = 0;  ///< equivalence check + judgeMutant, as timed here
  double equiv_s = 0;
};

struct CampaignResult {
  std::vector<Judged> judged;  ///< input order
  double wall_s = 0;
  solver::QueryCache::Stats qcache;
  solver::CexCache::Stats cex;
};

/// Judges `mutants` on kWorkers threads around campaign-wide caches.
/// `progress` prints one stderr line per judged mutant.
CampaignResult runOnce(const std::vector<mut::Mutant>& mutants,
                       Instruments* ins, FirstUnit* first_unit,
                       bool progress = false) {
  mut::CampaignOptions opts = campaignOptions();
  // Equivalence is checked below, where it can be timed on its own.
  opts.check_decode_equivalence = false;
  std::uint64_t workload_id = 0, campaign_id = 0;
  if (ins) {
    opts.metrics = &ins->registry;
    opts.telemetry = &ins->telemetry;
    opts.profiler = &ins->profiler;
    workload_id = ins->tree.newId();
    campaign_id = ins->tree.newId();
  }
  solver::QueryCache cache(16);
  solver::CexCache cex(16);
  opts.shared_cex_cache = &cex;

  CampaignResult res;
  res.judged.resize(mutants.size());
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;

  const auto worker = [&](unsigned w) {
    try {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= mutants.size()) return;
        if (first_unit) (*first_unit)();
        const mut::Mutant& m = mutants[i];
        Judged& j = res.judged[i];
        const Clock::time_point t0 = Clock::now();
        bool equivalent = false;
        if (m.kind == mut::MutantKind::DecodeBit) {
          const obs::PhaseTimer phase(ins ? &ins->profiler : nullptr, "equiv");
          equivalent = mut::decodeBitIsEquivalent(m);
        }
        const Clock::time_point t1 = Clock::now();
        if (equivalent) {
          j.result.mutant = m;
          j.result.verdict = mut::Verdict::Equivalent;
        } else {
          const obs::PhaseTimer phase(ins ? &ins->profiler : nullptr, "judge");
          j.result = mut::judgeMutant(m, opts, &cache, {});
        }
        const Clock::time_point t2 = Clock::now();
        j.seconds = secondsBetween(t0, t2);
        j.equiv_s = secondsBetween(t0, t1);
        if (progress)
          std::fprintf(stderr, "judged %zu/%zu %s %.3f s\n", i + 1,
                       mutants.size(), goldenLine(j.result).c_str(),
                       j.seconds);
        if (ins) {
          const auto args = [&](bool verdict) {
            std::vector<std::pair<std::string, std::string>> a = {
                {"worker", std::to_string(w)}, {"mutant", quoted(m.id())}};
            if (verdict)
              a.emplace_back("verdict",
                             quoted(mut::verdictName(j.result.verdict)));
            return a;
          };
          if (m.kind == mut::MutantKind::DecodeBit)
            ins->tree.record(ins->tree.newId(), campaign_id,
                             "decodeBitIsEquivalent", t0, t1, args(equivalent));
          if (!equivalent)
            ins->tree.record(ins->tree.newId(), campaign_id, "judgeMutant", t1,
                             t2, args(true));
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lk(error_mu);
      if (!error) error = std::current_exception();
      next.store(mutants.size());
    }
  };

  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kWorkers; ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();
  const Clock::time_point t1 = Clock::now();
  if (error) std::rethrow_exception(error);
  res.wall_s = secondsBetween(t0, t1);
  res.qcache = cache.stats();
  res.cex = cex.stats();
  if (ins) {
    ins->tree.record(campaign_id, workload_id, "campaign", t0, t1,
                     {{"workers", std::to_string(kWorkers)}});
    ins->tree.record(workload_id, 0, "campaign-workload", t0, t1);
  }
  return res;
}

std::string goldenPath(const RunConfig& cfg) {
  return cfg.golden_dir + "/campaign.golden";
}

/// id -> golden line, for the whole mutation space.
std::map<std::string, std::string> readGolden(const RunConfig& cfg) {
  std::map<std::string, std::string> g;
  std::ifstream in(goldenPath(cfg));
  for (std::string l; std::getline(in, l);)
    if (!l.empty()) g[l.substr(0, l.find(' '))] = l;
  return g;
}

/// A mutant fails if its verdict or kill limit differs from the golden.
void check(const CampaignResult& r,
           const std::map<std::string, std::string>& golden, Outcome& out) {
  for (const Judged& j : r.judged) {
    ++out.attempted;
    const std::string got = goldenLine(j.result);
    const auto it = golden.find(j.result.mutant.id());
    if (it != golden.end() && it->second == got) continue;
    ++out.failed;
    if (out.errors.size() < 10)
      out.errors.push_back("campaign golden mismatch: got '" + got +
                           "', want '" +
                           (it == golden.end() ? "<none>" : it->second) + "'");
  }
}

std::uint64_t hunts(const mut::MutantResult& r) {
  switch (r.verdict) {
    case mut::Verdict::Equivalent: return 0;
    case mut::Verdict::Killed: return r.kill_instr_limit;
    case mut::Verdict::Survived: return 2;
  }
  return 0;
}

void addLayerMetrics(const std::vector<CampaignResult>& traced,
                     Instruments& ins, double untraced_wall, Outcome& out) {
  const double n = static_cast<double>(traced.size());
  const auto per = [n](double v) { return v / n; };
  const auto put = [&out](const std::string& k, double v, const char* unit) {
    out.per_layer[k] = {v, unit};
  };
  double paths = 0, checks = 0, hunt_count = 0, judge_span_s = 0, wall = 0;
  double qc_hits = 0, qc_misses = 0;
  std::vector<double> judge_ms;
  for (const CampaignResult& r : traced) {
    wall += r.wall_s;
    qc_hits += static_cast<double>(r.qcache.hits);
    qc_misses += static_cast<double>(r.qcache.misses);
    for (const Judged& j : r.judged) {
      paths += static_cast<double>(j.result.paths + j.result.partial_paths);
      checks += static_cast<double>(j.result.solver_checks);
      hunt_count += static_cast<double>(hunts(j.result));
      judge_span_s += j.seconds;
      judge_ms.push_back(j.seconds * 1e3);
    }
  }
  const std::map<std::string, double> leaf = leafSelfSeconds(ins.profiler);
  const auto leafS = [&leaf](const char* k) {
    const auto it = leaf.find(k);
    return it == leaf.end() ? 0.0 : it->second;
  };
  obs::MetricsRegistry& reg = ins.registry;
  const obs::Histogram& rtl_h = reg.histogram("cosim.rtl_instr_us");
  const obs::Histogram& iss_h = reg.histogram("cosim.iss_step_us");
  const double sat_solves =
      static_cast<double>(reg.histogram("solver.check_us").count());
  const double sat_s =
      static_cast<double>(reg.histogram("solver.sat_us").sumMicros()) * 1e-6;
  const double lower_s =
      static_cast<double>(reg.histogram("solver.bitblast_us").sumMicros()) *
      1e-6;
  const double cex_hits =
      static_cast<double>(reg.counter("solver.cex_model_hits").get() +
                          reg.counter("solver.cex_core_hits").get());

  // Paths come from the hunts' reports: at one engine job every executed
  // path commits, so the commit ratio is 1 by construction.
  put("symex.paths_executed", per(paths), "count");
  put("symex.commit_ratio", paths > 0 ? 1.0 : 0.0, "frac");
  put("symex.worker_busy_frac", wall > 0 ? judge_span_s / (kWorkers * wall) : 0,
      "frac");
  put("symex.self_s", per(leafS("path")), "s");
  put("core.voter_s", per(leafS("voter")), "s");
  put("rtl.self_s", per(leafS("rtl")), "s");
  put("rtl.instr_us_p50", static_cast<double>(rtl_h.quantileMicros(0.5)), "us");
  put("rtl.instr_us_p99", static_cast<double>(rtl_h.quantileMicros(0.99)), "us");
  put("iss.self_s", per(leafS("iss")), "s");
  put("iss.step_us_p50", static_cast<double>(iss_h.quantileMicros(0.5)), "us");
  put("iss.step_us_p99", static_cast<double>(iss_h.quantileMicros(0.99)), "us");
  put("solver.checks", per(checks), "count");
  put("solver.sat_solves", per(sat_solves), "count");
  put("solver.phase_s", per(leafS("solver")), "s");
  put("solver.sat_s", per(sat_s), "s");
  put("solver.lower_s", per(lower_s), "s");
  put("solver.unattributed_s", per(leafS("solver") - sat_s - lower_s), "s");
  put("solver.qcache_hit_frac",
      qc_hits + qc_misses > 0 ? qc_hits / (qc_hits + qc_misses) : 0, "frac");
  put("solver.cex_hit_frac", qc_misses > 0 ? cex_hits / qc_misses : 0, "frac");
  put("solver.cache_decided_frac",
      checks > 0 ? (checks - sat_solves) / checks : 0, "frac");
  put("solver.rewrite_decided",
      per(static_cast<double>(reg.counter("solver.rewrite_decided").get())),
      "count");
  put("solver.sliced_solves",
      per(static_cast<double>(reg.counter("solver.sliced_solves").get())),
      "count");
  put("mut.equiv_s", per(leafS("equiv")), "s");
  put("mut.hunts", per(hunt_count), "count");
  put("mut.judge_ms_p50", quantile(judge_ms, 0.5), "ms");
  put("mut.judge_ms_p90", quantile(judge_ms, 0.9), "ms");

  Ledger ledger;
  ledger.threads = kWorkers;
  ledger.wall_s = per(wall);
  ledger.layer_s["mut"] = per(leafS("judge") + leafS("equiv"));
  ledger.layer_s["symex"] = per(leafS("path"));
  ledger.layer_s["core"] = per(leafS("voter"));
  ledger.layer_s["rtl"] = per(leafS("rtl"));
  ledger.layer_s["iss"] = per(leafS("iss"));
  ledger.layer_s["solver"] = per(leafS("solver"));
  for (const auto& [name, s] : leaf)
    if (name != "judge" && name != "equiv" && name != "path" &&
        name != "voter" && name != "rtl" && name != "iss" && name != "solver")
      out.errors.push_back("campaign: unmapped profiler phase '" + name + "'");
  ledger.report(out, untraced_wall);
}

void addEndToEnd(const std::vector<CampaignResult>& runs, Outcome& out) {
  std::vector<double> rates, verdict_s;
  for (const CampaignResult& r : runs) {
    rates.push_back(static_cast<double>(r.judged.size()) / r.wall_s);
    for (const Judged& j : r.judged) verdict_s.push_back(j.seconds);
  }
  out.end_to_end["mutants_per_s"] = {median(rates), "1/s"};
  out.iteration_rates = rates;
  out.end_to_end["verdict_p50_s"] = {quantile(verdict_s, 0.5), "s"};
  out.end_to_end["verdict_p90_s"] = {quantile(verdict_s, 0.9), "s"};
  out.end_to_end["verdict_samples"] = {static_cast<double>(verdict_s.size()),
                                       "count"};
}

}  // namespace

Outcome runCampaign(const RunConfig& cfg) {
  Outcome out;
  FirstUnit first_unit(cfg);

  if (cfg.mode == Mode::Golden) {
    // The golden covers the whole space, so every seed's sample is checked.
    std::vector<mut::Mutant> all = mut::enumerateSpace();
    const CampaignResult r = runOnce(all, nullptr, nullptr, true);
    std::ofstream f(goldenPath(cfg));
    for (const Judged& j : r.judged) f << goldenLine(j.result) << "\n";
    out.attempted = r.judged.size();
    out.notes.push_back("wrote " + goldenPath(cfg));
    return out;
  }

  const std::map<std::string, std::string> golden = readGolden(cfg);
  if (golden.empty()) {
    out.errors.push_back("missing golden " + goldenPath(cfg));
    return out;
  }
  const std::vector<mut::Mutant> mutants = sampleMutants(cfg.seed, golden);
  std::map<std::string, std::size_t> strata;
  for (const mut::Mutant& m : mutants)
    ++strata[stratum(m, golden.at(m.id()))];
  std::string mix = "sample:";
  for (const auto& [k, c] : strata) mix += " " + k + "=" + std::to_string(c);
  out.notes.push_back(mix);

  if (cfg.mode == Mode::SelfTest) {
    // The benchmark's own scheduler must reach CampaignRunner's verdicts.
    const CampaignResult mine = runOnce(mutants, nullptr, nullptr);
    const mut::CampaignReport theirs =
        mut::CampaignRunner(campaignOptions()).run(mutants);
    out.attempted = mutants.size();
    for (std::size_t i = 0; i < mutants.size(); ++i)
      if (goldenLine(mine.judged[i].result) != goldenLine(theirs.results[i])) {
        ++out.failed;
        out.errors.push_back("campaign: CampaignRunner disagrees on " +
                             mutants[i].id());
      }
    return out;
  }

  if (!cfg.trace) {
    std::vector<CampaignResult> runs;
    const std::vector<double> walls = repeatFor(cfg.seconds, [&] {
      runs.push_back(runOnce(mutants, nullptr, &first_unit));
      check(runs.back(), golden, out);
      return runs.back().wall_s;
    });
    out.iterations = walls.size();
    addEndToEnd(runs, out);
    return out;
  }

  const CampaignResult ref = runOnce(mutants, nullptr, &first_unit);
  check(ref, golden, out);
  Instruments ins;
  std::vector<CampaignResult> traced;
  repeatFor(cfg.seconds - ref.wall_s, [&] {
    traced.push_back(runOnce(mutants, &ins, nullptr));
    check(traced.back(), golden, out);
    return traced.back().wall_s;
  });
  out.iterations = 1 + traced.size();
  addLayerMetrics(traced, ins, ref.wall_s, out);
  if (!cfg.trace_out.empty() && !ins.spans.writeChromeTrace(cfg.trace_out))
    out.errors.push_back("cannot write " + cfg.trace_out);
  return out;
}

}  // namespace rvsym::perfbench
