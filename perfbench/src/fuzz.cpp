// fuzz: CosimFuzzer on the fault-free fixed DUT (the campaign's RTL
// configuration against the spec-correct ISS), instruction limit 2, a
// fixed test count per call, a seeded stimulus stream, one thread.
//
// Every value folds to a constant, so the solver never runs: host time is
// expression building, decode, RTL ticks, ISS steps and the voter. The
// prediction for any solver or exploration change here is no change.
// CosimFuzzer exposes no phase profile, so its traced ledger has one
// "fuzz" row covering those layers together.
#include <sched.h>

#include <cstdio>
#include <vector>

#include "bench.hpp"
#include "core/cosim.hpp"
#include "fuzz/fuzzer.hpp"

namespace rvsym::perfbench {
namespace {

/// Tests per CosimFuzzer::run call; every call must end with no mismatch
/// after exactly this many tests.
constexpr std::uint64_t kTests = 5000;

core::CosimConfig fixedDut() {
  core::CosimConfig cfg;
  cfg.rtl = rtl::fixedRtlConfig();
  cfg.iss.csr = iss::CsrConfig::specCorrect();
  cfg.instr_limit = 2;
  return cfg;
}

/// The stimulus seed of call `k` in the run seeded with `seed`.
std::uint32_t callSeed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t s = seed * 0x100000001B3ull + k;
  return static_cast<std::uint32_t>(splitmix64(s));
}

/// Moves the calling thread to the next CPU it may run on, round-robin.
/// The host's CPUs run at speeds that differ and drift over tens of
/// seconds; a single thread left where it started inherits one CPU's
/// speed for the whole run, while one rotated per call samples them all,
/// which halves the run-to-run spread of tests_per_s.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
  ~CpuRotation() { sched_setaffinity(0, sizeof allowed_, &allowed_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Call {
  fuzz::FuzzReport report;
  double wall_s = 0;
};

Call runOnce(const core::CosimConfig& dut, std::uint64_t seed, std::uint64_t k,
             FirstUnit* first_unit, SpanTree* tree, std::uint64_t parent) {
  fuzz::FuzzOptions opts;
  opts.max_tests = kTests;
  opts.max_seconds = 0;
  opts.seed = callSeed(seed, k);
  opts.instr_limit = 2;
  if (first_unit) (*first_unit)();
  Call c;
  const Clock::time_point t0 = Clock::now();
  c.report = fuzz::CosimFuzzer().run(dut, opts);
  const Clock::time_point t1 = Clock::now();
  c.wall_s = secondsBetween(t0, t1);
  if (tree)
    tree->record(tree->newId(), parent, "CosimFuzzer::run", t0, t1,
                 {{"seed", std::to_string(opts.seed)},
                  {"tests", std::to_string(c.report.tests)}});
  return c;
}

/// A test fails if it reports a mismatch on the fault-free DUT; tests the
/// call did not run count as failed too.
void check(const Call& c, Outcome& out) {
  out.attempted += kTests;
  const std::uint64_t ran = std::min(c.report.tests, kTests);
  const std::uint64_t failed = (kTests - ran) + (c.report.found ? 1 : 0);
  out.failed += failed;
  if (failed != 0 && out.errors.size() < 10)
    out.errors.push_back("fuzz: " + std::to_string(c.report.tests) +
                         " tests, mismatch: " + c.report.mismatch_message);
}

}  // namespace

Outcome runFuzz(const RunConfig& cfg) {
  Outcome out;
  FirstUnit first_unit(cfg);
  const core::CosimConfig dut = fixedDut();
  if (cfg.mode == Mode::Golden || cfg.mode == Mode::SelfTest) {
    out.notes.push_back("fuzz: no golden beyond zero mismatches");
    return out;
  }

  std::uint64_t k = 0;
  CpuRotation rotation;
  if (!cfg.trace) {
    std::vector<double> rates;
    const std::vector<double> walls = repeatFor(cfg.seconds, [&] {
      rotation.next();
      const Call c = runOnce(dut, cfg.seed, k++, &first_unit, nullptr, 0);
      check(c, out);
      rates.push_back(static_cast<double>(c.report.tests) / c.wall_s);
      return c.wall_s;
    });
    out.iterations = walls.size();
    out.end_to_end["tests_per_s"] = {median(rates), "1/s"};
    out.iteration_rates = rates;
    return out;
  }

  // Traced: the first half of the budget untraced, the rest traced.
  const std::vector<double> ref_walls = repeatFor(cfg.seconds / 2, [&] {
    rotation.next();
    const Call c = runOnce(dut, cfg.seed, k++, &first_unit, nullptr, 0);
    check(c, out);
    return c.wall_s;
  });
  obs::SpanCollector spans;
  SpanTree tree(spans);
  double fuzz_s = 0, instructions = 0;
  std::uint64_t j = 0;
  const std::vector<double> walls = repeatFor(cfg.seconds / 2, [&] {
    rotation.next();
    const std::uint64_t id = tree.newId();
    const Clock::time_point t0 = Clock::now();
    // Replays the untraced calls' stimulus, so both halves do equal work.
    const Call c = runOnce(dut, cfg.seed, j++, nullptr, &tree, id);
    const Clock::time_point t1 = Clock::now();
    tree.record(id, 0, "fuzz", t0, t1);
    check(c, out);
    fuzz_s += c.wall_s;
    instructions += static_cast<double>(c.report.instructions);
    return secondsBetween(t0, t1);
  });
  const double n = static_cast<double>(walls.size());
  out.iterations = ref_walls.size() + walls.size();
  out.per_layer["fuzz.instructions"] = {instructions / n, "count"};
  out.per_layer["fuzz.self_s"] = {fuzz_s / n, "s"};
  Ledger ledger;
  double span_wall = 0;
  for (double w : walls) span_wall += w;
  ledger.wall_s = span_wall / n;
  ledger.layer_s["fuzz"] = fuzz_s / n;
  ledger.report(out, median(ref_walls));
  if (!cfg.trace_out.empty() && !spans.writeChromeTrace(cfg.trace_out))
    out.errors.push_back("cannot write " + cfg.trace_out);
  return out;
}

}  // namespace rvsym::perfbench
