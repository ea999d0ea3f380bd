// Helpers shared by the workloads: the iteration loop, order statistics,
// the golden digest, the benchmark's span tree and the per-layer ledger.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench.hpp"

namespace rvsym::perfbench {

double sinceLaunch(const RunConfig& cfg, Clock::time_point tp) {
  if (cfg.t0_ns == 0) return 0;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      tp.time_since_epoch())
                      .count();
  return static_cast<double>(ns - cfg.t0_ns) * 1e-9;
}

std::vector<double> repeatFor(double seconds,
                              const std::function<double()>& iteration) {
  std::vector<double> walls;
  const Clock::time_point start = Clock::now();
  do {
    walls.push_back(iteration());
  } while (secondsBetween(start, Clock::now()) + walls.back() <= seconds);
  return walls;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

void Digest::add(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t SpanTree::newId() {
  return next_.fetch_add(1, std::memory_order_relaxed);
}

void SpanTree::record(std::uint64_t id, std::uint64_t parent, const char* name,
                      Clock::time_point start, Clock::time_point end,
                      std::vector<std::pair<std::string, std::string>> args) {
  obs::Span s;
  s.name = name;
  s.cat = "bench";
  s.tid = spans_.threadTrack();
  s.ts_us = spans_.sinceEpochUs(start);
  s.dur_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count());
  s.args.emplace_back("id", std::to_string(id));
  s.args.emplace_back("parent", std::to_string(parent));
  for (auto& a : args) s.args.push_back(std::move(a));
  spans_.add(std::move(s));
}

std::map<std::string, double> leafSelfSeconds(const obs::PhaseProfiler& p) {
  std::map<std::string, double> out;
  std::istringstream in(p.folded());
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    const std::string stack = line.substr(0, sp);
    const std::size_t semi = stack.rfind(';');
    const std::string leaf =
        semi == std::string::npos ? stack : stack.substr(semi + 1);
    out[leaf] += std::stod(line.substr(sp + 1)) * 1e-6;
  }
  return out;
}

const std::vector<std::string>& ledgerLayers() {
  static const std::vector<std::string> layers = {
      "symex", "core", "rtl", "iss", "solver", "mut", "fuzz", "bench"};
  return layers;
}

double Ledger::unattributedSeconds() const {
  double sum = 0;
  for (const auto& [layer, s] : layer_s) sum += s;
  return capacity() - sum;
}

void Ledger::report(Outcome& out, double untraced_wall_s) const {
  const double cap = capacity();
  const auto frac = [cap](double s) { return cap > 0 ? s / cap : 0.0; };
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "ledger: %u thread(s) x %.4f s wall = %.4f thread-s", threads,
                wall_s, cap);
  out.notes.emplace_back(buf);
  for (const std::string& layer : ledgerLayers()) {
    const auto it = layer_s.find(layer);
    const double s = it == layer_s.end() ? 0.0 : it->second;
    out.per_layer["ledger." + layer + "_frac"] = {frac(s), "frac"};
    if (it == layer_s.end()) continue;
    std::snprintf(buf, sizeof buf, "  %-13s %10.4f thread-s  %6.2f%%",
                  layer.c_str(), s, 100 * frac(s));
    out.notes.emplace_back(buf);
  }
  const double residual = unattributedSeconds();
  std::snprintf(buf, sizeof buf, "  %-13s %10.4f thread-s  %6.2f%%",
                "unattributed", residual, 100 * frac(residual));
  out.notes.emplace_back(buf);
  out.per_layer["ledger.unattributed_frac"] = {frac(residual), "frac"};
  out.per_layer["ledger.wall_s"] = {wall_s, "s"};
  out.per_layer["ledger.trace_overhead_frac"] = {
      untraced_wall_s > 0 ? wall_s / untraced_wall_s - 1 : 0.0, "frac"};
}

}  // namespace rvsym::perfbench
