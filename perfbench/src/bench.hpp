// Shared types of rvsym-perfbench, the benchmark binary (see ../README.md).
//
// Each workload (sweep.cpp, campaign.cpp, fuzz.cpp) drives the library
// only through its public entry points and times those calls from here.
// An untraced run measures the end-to-end metrics; a traced run attaches
// the instruments the program already exports (phase profiler, metrics
// registry, solver telemetry), records the benchmark's own spans at the
// layer boundaries it calls, and derives the per-layer ledger.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace_events.hpp"
#include "solver/telemetry.hpp"

namespace rvsym::perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class Mode {
  Measure,   ///< run the workload for --seconds and report metrics
  Setup,     ///< set up, stamp the first unit of work, exit
  Golden,    ///< regenerate the committed golden outputs
  SelfTest,  ///< determinism and parity checks (README.md)
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Mode mode = Mode::Measure;
  /// The launcher's CLOCK_MONOTONIC stamp (ns) taken just before it
  /// spawned this process; steady_clock shares that timebase on Linux.
  std::int64_t t0_ns = 0;
  std::string golden_dir;  ///< directory of the committed goldens
  std::string trace_out;   ///< Chrome trace path written by traced runs
  /// Where FirstUnit stamps the launch-to-first-unit seconds.
  double* setup_s = nullptr;
};

/// Seconds from the launcher's spawn stamp to `tp` (0 without a stamp).
double sinceLaunch(const RunConfig& cfg, Clock::time_point tp);

/// Thrown by a workload in Mode::Setup once the first unit of work is
/// about to start; main() catches it.
struct SetupDone {};

/// Called by every unit of work as it starts: the first call (on any
/// thread) stamps the launch-to-first-unit time; in Mode::Setup every
/// call then throws SetupDone, so no unit runs.
class FirstUnit {
 public:
  explicit FirstUnit(const RunConfig& cfg) : cfg_(cfg) {}
  void operator()() {
    std::call_once(once_, [this] {
      if (cfg_.setup_s) *cfg_.setup_s = sinceLaunch(cfg_, Clock::now());
    });
    if (cfg_.mode == Mode::Setup) throw SetupDone{};
  }

 private:
  const RunConfig& cfg_;
  std::once_flag once_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports back to main().
struct Outcome {
  std::uint64_t iterations = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< golden-check failures
  /// Work units per second of each repeat (untraced runs), in run order.
  std::vector<double> iteration_rates;
  /// End-to-end metrics by name (untraced runs).
  std::map<std::string, Metric> end_to_end;
  /// Per-layer metrics by name (traced runs), including the ledger.
  std::map<std::string, Metric> per_layer;
  /// Notes printed with the result (e.g. the layer rows of the ledger).
  std::vector<std::string> notes;
};

using WorkloadFn = std::function<Outcome(const RunConfig&)>;
Outcome runSweep(const RunConfig& cfg);
Outcome runCampaign(const RunConfig& cfg);
Outcome runFuzz(const RunConfig& cfg);

/// Repeats `iteration` (which returns its own wall seconds) while another
/// iteration of the last one's length still fits in `seconds`; at least
/// once. Returns the per-iteration walls.
std::vector<double> repeatFor(double seconds,
                              const std::function<double()>& iteration);

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0,1].
double quantile(std::vector<double> v, double q);

/// splitmix64: advances `s` and returns the next pseudo-random word. The
/// workloads draw their seeded inputs from it (deterministic everywhere,
/// unlike the standard distributions).
inline std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// 64-bit FNV-1a, the digest the goldens use.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(const void* p, std::size_t n);
  void add(std::uint64_t v) { add(&v, sizeof v); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    add(s.data(), s.size());
  }
  std::string hex() const;
};

// --- Traced runs -------------------------------------------------------------

/// `s` as a JSON string literal (span args are pre-rendered JSON); `s`
/// holds no characters that need escaping.
inline std::string quoted(const std::string& s) {
  std::string q(1, '"');
  q += s;
  q += '"';
  return q;
}

/// The benchmark's own spans: complete spans on the calling thread's
/// track, each carrying an id and its parent's id as span args, so the
/// workload -> engine/campaign -> runPath/judgeMutant nesting survives
/// export even across threads.
class SpanTree {
 public:
  explicit SpanTree(obs::SpanCollector& spans) : spans_(spans) {}
  /// Reserves an id for a span that will be recorded later.
  std::uint64_t newId();
  void record(std::uint64_t id, std::uint64_t parent, const char* name,
              Clock::time_point start, Clock::time_point end,
              std::vector<std::pair<std::string, std::string>> args = {});
  obs::SpanCollector& collector() { return spans_; }

 private:
  obs::SpanCollector& spans_;
  std::atomic<std::uint64_t> next_{1};
};

/// The program's own instruments a traced run attaches (the registry
/// receives the solver telemetry's histograms) plus the benchmark's spans.
struct Instruments {
  obs::MetricsRegistry registry;
  solver::SolverTelemetry telemetry;
  obs::PhaseProfiler profiler;
  obs::SpanCollector spans;
  SpanTree tree{spans};
  Instruments() { telemetry.attachMetrics(registry); }
};

/// Self time per leaf phase name, in seconds, from the profiler's folded
/// stacks ("path;runPath;rtl 1234" adds 1234 us to "rtl").
std::map<std::string, double> leafSelfSeconds(const obs::PhaseProfiler& p);

/// The per-layer ledger of a traced run, in thread-seconds: each layer's
/// self time plus the unattributed residual equals `threads * wall_s`.
struct Ledger {
  double wall_s = 0;
  unsigned threads = 1;
  std::map<std::string, double> layer_s;  ///< layer -> self thread-seconds

  double capacity() const { return wall_s * threads; }
  double unattributedSeconds() const;
  /// Adds ledger.<layer>_frac for every ledger layer, ledger.wall_s,
  /// ledger.unattributed_frac and ledger.trace_overhead_frac, and one
  /// note line per row.
  void report(Outcome& out, double untraced_wall_s) const;
};

/// The layers a ledger can hold rows for: the src/ modules the benchmark
/// times from outside, plus "bench" for the traced run's own probe work.
/// expr and rv32 run inside rtl/iss/core calls and are folded into those
/// rows.
const std::vector<std::string>& ledgerLayers();

}  // namespace rvsym::perfbench
