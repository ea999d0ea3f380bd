// rvsym-perfbench: runs one benchmark workload and prints one JSON result
// document as the last line of standard output. run.py builds this
// binary, launches it and turns its results into the benchmark's metrics.
//
//   rvsym-perfbench --workload sweep-l2|campaign|fuzz --seed N --seconds S
//                   [--trace 0|1] [--mode measure|setup|golden|selftest]
//                   [--t0-ns NS] [--golden-dir DIR] [--trace-out FILE]
//
// Exit codes: 0 result printed (check "correct"), 2 usage error,
// 3 environment refused (non-Release or sanitized build, or fewer than
// four CPUs), 4 a workload threw.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "obs/json.hpp"

namespace {

using namespace rvsym;
using namespace rvsym::perfbench;

/// The threads the workloads use: ParallelEngine at 4 jobs, 4 campaign
/// workers.
constexpr unsigned kThreads = 4;

struct Env {
  unsigned nproc = 0;
  std::string compiler = __VERSION__;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string cxx_flags = PERFBENCH_CXX_FLAGS;
  std::string sanitizer = "none";
};

Env probeEnv() {
  Env e;
  cpu_set_t set;
  CPU_ZERO(&set);
  e.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? static_cast<unsigned>(CPU_COUNT(&set))
                : 0;
#if defined(__SANITIZE_ADDRESS__)
  e.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  e.sanitizer = "thread";
#endif
  if (e.sanitizer == "none" && e.cxx_flags.find("-fsanitize") != std::string::npos)
    e.sanitizer = "flags";
  return e;
}

std::string refusal(const Env& e) {
  if (e.build_type != "Release")
    return "build type is '" + e.build_type + "', not Release";
  if (e.sanitizer != "none") return "sanitized build (" + e.sanitizer + ")";
  if (e.nproc < kThreads)
    return std::to_string(e.nproc) + " CPUs available, the workloads use " +
           std::to_string(kThreads);
  return "";
}

const char* modeName(Mode m) {
  switch (m) {
    case Mode::Measure: return "measure";
    case Mode::Setup: return "setup";
    case Mode::Golden: return "golden";
    case Mode::SelfTest: return "selftest";
  }
  return "?";
}

void writeMetrics(obs::JsonWriter& w, const std::map<std::string, Metric>& m) {
  w.beginObject();
  for (const auto& [name, metric] : m) {
    w.key(name).beginObject();
    w.field("value", metric.value).field("unit", metric.unit);
    w.endObject();
  }
  w.endObject();
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "rvsym-perfbench: %s\nusage: rvsym-perfbench --workload "
               "sweep-l2|campaign|fuzz --seed N --seconds S [--trace 0|1] "
               "[--mode measure|setup|golden|selftest] [--t0-ns NS] "
               "[--golden-dir DIR] [--trace-out FILE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") cfg.workload = v;
    else if (a == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") cfg.seconds = std::atof(v.c_str());
    else if (a == "--trace") cfg.trace = v == "1";
    else if (a == "--t0-ns") cfg.t0_ns = std::strtoll(v.c_str(), nullptr, 10);
    else if (a == "--golden-dir") cfg.golden_dir = v;
    else if (a == "--trace-out") cfg.trace_out = v;
    else if (a == "--mode") {
      if (v == "measure") cfg.mode = Mode::Measure;
      else if (v == "setup") cfg.mode = Mode::Setup;
      else if (v == "golden") cfg.mode = Mode::Golden;
      else if (v == "selftest") cfg.mode = Mode::SelfTest;
      else return usage(("unknown mode " + v).c_str());
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  WorkloadFn workload;
  if (cfg.workload == "sweep-l2") workload = runSweep;
  else if (cfg.workload == "campaign") workload = runCampaign;
  else if (cfg.workload == "fuzz") workload = runFuzz;
  else return usage(("unknown workload '" + cfg.workload + "'").c_str());
  if (cfg.seconds <= 0) return usage("--seconds must be positive");

  const Env env = probeEnv();
  if (const std::string why = refusal(env); !why.empty()) {
    std::fprintf(stderr, "rvsym-perfbench: refusing to measure: %s\n",
                 why.c_str());
    return 3;
  }

  double setup_s = 0;
  cfg.setup_s = &setup_s;
  Outcome out;
  try {
    out = workload(cfg);
  } catch (const SetupDone&) {
    // Mode::Setup: the first unit of work was reached and stamped.
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rvsym-perfbench: %s failed: %s\n",
                 cfg.workload.c_str(), e.what());
    return 4;
  }

  obs::JsonWriter w;
  w.beginObject();
  w.field("workload", cfg.workload).field("seed", cfg.seed);
  w.field("mode", modeName(cfg.mode)).field("trace", cfg.trace);
  w.key("env").beginObject();
  w.field("nproc", env.nproc).field("compiler", env.compiler);
  w.field("build_type", env.build_type).field("cxx_flags", env.cxx_flags);
  w.field("sanitizer", env.sanitizer);
  w.endObject();
  w.field("setup_s", setup_s).field("iterations", out.iterations);
  w.field("attempted", out.attempted).field("failed", out.failed);
  w.field("correct", out.errors.empty() && out.failed == 0);
  w.key("errors").beginArray();
  for (const std::string& e : out.errors) w.value(e);
  w.endArray();
  w.key("iteration_rates").beginArray();
  for (double r : out.iteration_rates) w.value(r);
  w.endArray();
  w.key("end_to_end");
  writeMetrics(w, out.end_to_end);
  w.key("per_layer");
  writeMetrics(w, out.per_layer);
  w.key("notes").beginArray();
  for (const std::string& n : out.notes) w.value(n);
  w.endArray();
  w.endObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
