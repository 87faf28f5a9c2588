#include "bench.hpp"

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "core/hybrid.hpp"
#include "core/profile_table.hpp"
#include "sim/sweep_grid.hpp"
#include "trace/solar.hpp"

namespace gs::bench {

// --- Samples ----------------------------------------------------------------

void Samples::sort() const {
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  sort();
  const double pos = std::clamp(q, 0.0, 1.0) * double(v_.size() - 1);
  const auto lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = pos - double(lo);
  return v_[lo] + (v_[hi] - v_[lo]) * frac;
}

double Samples::tail_level() const {
  const double n = double(v_.size());
  if (n < 20.0) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / n);
}

// --- Report -----------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    // Keep the first few; a systematic failure repeats once per unit.
    if (errors.size() < 8) errors.push_back(what);
  }
}

Metric& Report::add(const std::string& name, const std::string& unit,
                    double value, Samples samples) {
  metrics.push_back({name, unit, value, std::move(samples)});
  return metrics.back();
}

Metric& Report::add_median(const std::string& name, const std::string& unit,
                           Samples samples) {
  const double v = samples.median();
  return add(name, unit, v, std::move(samples));
}

Metric& Report::add_fast(const std::string& name, const std::string& unit,
                         Samples per_unit, bool higher_is_better) {
  const double v = per_unit.quantile(higher_is_better ? 0.9 : 0.1);
  return add(name, unit, v, std::move(per_unit));
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::absorb_checks(const Report& other) {
  attempted += other.attempted;
  failed += other.failed;
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  notes.insert(notes.end(), other.notes.begin(), other.notes.end());
}

// --- Tracer -----------------------------------------------------------------

namespace {

struct ThreadSpans {
  std::vector<std::uint32_t> open;  // slots of the spans open on this thread
  std::uint16_t tid = 0;
};

std::atomic<std::uint16_t> g_next_tid{1};

ThreadSpans& thread_spans() {
  thread_local ThreadSpans t;
  if (t.tid == 0) t.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::enable(std::size_t capacity) {
  buf_.assign(capacity, Span{});
  next_.store(0, std::memory_order_relaxed);
  epoch_ = Clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

std::uint64_t Tracer::now_ns() const {
  return std::uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

std::uint16_t Tracer::intern(const char* name) {
  std::lock_guard<std::mutex> lock(names_mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return std::uint16_t(i);
  }
  names_.emplace_back(name);
  return std::uint16_t(names_.size() - 1);
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t unit) {
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= buf_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return kNone;
  }
  ThreadSpans& t = thread_spans();
  Span& s = buf_[slot];
  s.parent = t.open.empty() ? 0 : t.open.back() + 1;
  s.unit = unit;
  s.name = intern(name);
  s.tid = t.tid;
  t.open.push_back(std::uint32_t(slot));
  s.start_ns = now_ns();
  return std::uint32_t(slot);
}

void Tracer::end(std::uint32_t slot, std::uint32_t count) {
  Span& s = buf_[slot];
  s.end_ns = now_ns();
  s.count = std::max<std::uint32_t>(count, 1);
  ThreadSpans& t = thread_spans();
  if (!t.open.empty() && t.open.back() == slot) t.open.pop_back();
}

std::vector<Span> Tracer::spans() const {
  const std::size_t n = std::min(next_.load(), buf_.size());
  return {buf_.begin(), buf_.begin() + std::ptrdiff_t(n)};
}

Samples Tracer::per_call_ns(const char* name) const {
  Samples out;
  std::size_t id = names_.size();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) id = i;
  }
  if (id == names_.size()) return out;
  for (const Span& s : spans()) {
    if (s.name == id && s.end_ns >= s.start_ns) {
      out.add(double(s.end_ns - s.start_ns) / double(s.count));
    }
  }
  return out;
}

bool Tracer::check_nesting(std::string* why) const {
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_ns < s.start_ns) {
      *why = "span " + names_[s.name] + " never ended";
      return false;
    }
    if (s.parent == 0) continue;
    const std::size_t p = s.parent - 1;
    if (p >= i) {
      *why = "span " + names_[s.name] + " starts before its parent";
      return false;
    }
    const Span& ps = all[p];
    if (ps.tid != s.tid || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns) {
      *why = "span " + names_[s.name] + " escapes its parent " +
             names_[ps.name];
      return false;
    }
  }
  return true;
}

void Tracer::print_self_times() const {
  const std::vector<Span> all = spans();
  std::vector<std::uint64_t> child_ns(all.size(), 0);
  for (const Span& s : all) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  struct Row {
    std::uint64_t spans = 0, calls = 0, total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    Row& r = rows[names_[s.name]];
    const std::uint64_t d = s.end_ns - s.start_ns;
    ++r.spans;
    r.calls += s.count;
    r.total_ns += d;
    r.self_ns += d - std::min(d, child_ns[i]);
  }
  std::printf("\n%-40s %9s %11s %12s %12s %12s\n", "span", "spans", "calls",
              "total_ms", "self_ms", "self_ns/call");
  for (const auto& [name, r] : rows) {
    std::printf("%-40s %9llu %11llu %12.3f %12.3f %12.1f\n", name.c_str(),
                (unsigned long long)r.spans, (unsigned long long)r.calls,
                double(r.total_ns) / 1e6, double(r.self_ns) / 1e6,
                double(r.self_ns) / double(std::max<std::uint64_t>(r.calls, 1)));
  }
  if (dropped() > 0) {
    std::printf("(%llu spans dropped: buffer full)\n",
                (unsigned long long)dropped());
  }
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << "{\"traceEvents\":[\n";
  const std::vector<Span> all = spans();
  char buf[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%u,\"unit\":%u,\"count\":%u}}%s\n",
                  names_[s.name].c_str(), unsigned(s.tid),
                  double(s.start_ns) / 1e3,
                  double(s.end_ns - s.start_ns) / 1e3, i + 1, s.parent,
                  s.unit, s.count, i + 1 < all.size() ? "," : "");
    os << buf;
  }
  os << "]}\n";
  return bool(os);
}

void add_span_metric(Report& r, const std::string& name,
                     const std::string& unit, const char* span,
                     double ns_per_unit) {
  Samples s = Tracer::instance().per_call_ns(span).map(
      [ns_per_unit](double ns) { return ns / ns_per_unit; });
  if (s.empty()) r.fail("no spans recorded for " + std::string(span));
  r.add_median(name, unit, std::move(s));
}

// --- Machine ----------------------------------------------------------------

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::size_t(std::max(1, CPU_COUNT(&set)));
}

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --- Shared workload inputs -------------------------------------------------

void clear_substrate_caches() {
  trace::clear_solar_cache();
  core::ProfileTable::clear_shared_cache();
  core::HybridStrategy::clear_seed_cache();
}

std::uint64_t substrate_cache_misses() {
  return trace::solar_cache_stats().misses +
         core::ProfileTable::shared_cache_stats().misses +
         core::HybridStrategy::seed_cache_stats().misses;
}

std::vector<sim::Scenario> sweep_grid(std::uint64_t seed) {
  auto grid = sim::replicate_grid(sim::perf_grid(false), 1152);
  for (auto& sc : grid) sc.seed += (seed - 1) * kSweepSeedStride;
  return grid;
}

std::size_t sweep_threads() { return std::min<std::size_t>(4, nproc()); }

sim::DayRunConfig day_config(std::uint64_t seed, bool storm) {
  sim::DayRunConfig cfg;
  cfg.days = 3;
  cfg.cluster.servers = 16;
  cfg.cluster.strategy = core::StrategyKind::Hybrid;
  cfg.cluster.allocation = sim::ReAllocation::EqualShare;
  cfg.daily_bursts = sim::default_daily_bursts();
  for (auto& b : cfg.daily_bursts) b.duration = b.duration * 6.0;
  cfg.solar_seed += seed - 1;
  cfg.diurnal.seed += seed - 1;
  if (storm) cfg.faults = faults::FaultSpec::uniform(0.3, seed);
  return cfg;
}

sim::DayRunConfig daemon_day_config(std::uint64_t seed, double seconds) {
  sim::DayRunConfig cfg;
  cfg.days = std::max(1, int(std::lround(56.0 * seconds)));
  cfg.daily_bursts = sim::default_daily_bursts();
  cfg.solar_seed += seed - 1;
  cfg.diurnal.seed += seed - 1;
  return cfg;
}

}  // namespace gs::bench
