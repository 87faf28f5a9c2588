// gs_bench shared pieces: options, sample statistics, the metric report,
// the span tracer and the machine header. Everything here lives in the
// benchmark; the GreenSprint sources under src/ are only called, never
// instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "sim/day_runner.hpp"
#include "sim/scenario.hpp"

namespace gs::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Measured time per e2e pass.
  bool trace = false;
  bool smoke = false;
  /// Flip a bit of every reference fingerprint: each check must then fail
  /// and the run must exit non-zero (the smoke lane's self-test).
  bool corrupt_reference = false;
  std::string trace_out;
};

/// How long a sweep/day pass repeats its unit: discard `warmup` units, then
/// run until both `seconds` and `min_units` are reached.
struct Budget {
  double seconds = 10.0;
  int warmup = 2;
  int min_units = 20;
};

// --- Samples ----------------------------------------------------------------

/// A set of measurements with the order statistics the report prints.
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  [[nodiscard]] std::size_t n() const { return v_.size(); }
  [[nodiscard]] bool empty() const { return v_.empty(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  /// The highest percentile (capped at p99) with at least ten samples
  /// beyond it; the median when there are fewer than 20 samples.
  [[nodiscard]] double tail_level() const;
  [[nodiscard]] double tail() const { return quantile(tail_level()); }
  [[nodiscard]] double max() const { return quantile(1.0); }
  /// Every sample passed through `f` (unit conversion).
  template <typename F>
  [[nodiscard]] Samples map(F&& f) const {
    Samples out;
    for (double v : v_) out.add(f(v));
    return out;
  }

 private:
  void sort() const;
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

// --- Report -----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;  ///< The reported number.
  Samples samples;     ///< What `value` summarises (printed as a table row).
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< Failed correctness checks.
  std::vector<std::string> notes;   ///< Printed warnings (not failures).

  /// One checked operation; a failed one is also recorded as an error.
  void check(bool ok, const std::string& what);
  void fail(const std::string& why) { errors.push_back(why); }
  Metric& add(const std::string& name, const std::string& unit, double value,
              Samples samples = {});
  /// Add a metric whose value is the median of `samples`.
  Metric& add_median(const std::string& name, const std::string& unit,
                     Samples samples);
  /// Add an end-to-end metric measured once per unit (rep, campaign,
  /// round). Its value is the fast decile of the units: on a shared machine
  /// other tenants only ever slow a unit down, so the fast decile tracks the
  /// program's own cost where the median tracks its neighbours'.
  Metric& add_fast(const std::string& name, const std::string& unit,
                   Samples per_unit, bool higher_is_better);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] bool correct() const { return errors.empty() && failed == 0; }
  /// Fold another report's counts and errors in (metrics are not merged).
  void absorb_checks(const Report& other);
};

// --- Tracer -----------------------------------------------------------------

/// One recorded span. `count` > 1 marks a batch of that many calls timed
/// together (calls too short to time one by one).
struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< Slot + 1 of the enclosing span; 0 = root.
  std::uint32_t unit = 0;    ///< Rep, campaign or phase index.
  std::uint32_t count = 1;
  std::uint16_t name = 0;
  std::uint16_t tid = 0;
};

/// Process-wide span recorder: a buffer preallocated when tracing is
/// enabled, written out as Chrome trace-event JSON at exit. Disabled, a
/// span costs one relaxed load.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  static Tracer& instance();

  void enable(std::size_t capacity);
  /// Suspend recording without dropping what was recorded (untraced
  /// passes inside a traced run).
  void set_recording(bool on) {
    recording_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool recording() const {
    return enabled_.load(std::memory_order_relaxed) &&
           recording_.load(std::memory_order_relaxed);
  }

  std::uint32_t begin(const char* name, std::uint32_t unit);
  void end(std::uint32_t slot, std::uint32_t count);

  /// Per-call durations (ns) of every span called `name`.
  [[nodiscard]] Samples per_call_ns(const char* name) const;
  /// Spans recorded so far (stable once recording has stopped).
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Every child lies inside its parent, on the parent's thread.
  [[nodiscard]] bool check_nesting(std::string* why) const;
  /// Per name: spans, calls, total and self time (duration minus the time
  /// covered by child spans).
  void print_self_times() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  Tracer() = default;
  std::uint16_t intern(const char* name);
  [[nodiscard]] std::uint64_t now_ns() const;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> recording_{true};
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> buf_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::mutex names_mu_;
  std::vector<std::string> names_;
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint32_t unit = 0)
      : slot_(Tracer::instance().recording()
                  ? Tracer::instance().begin(name, unit)
                  : Tracer::kNone) {}
  ~ScopedSpan() {
    if (slot_ != Tracer::kNone) Tracer::instance().end(slot_, count_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(std::uint32_t n) { count_ = n; }

 private:
  std::uint32_t slot_;
  std::uint32_t count_ = 1;
};

/// Median per-call time of the spans called `span`, converted from ns by
/// dividing by `ns_per_unit`, added to `r` as metric `name`.
void add_span_metric(Report& r, const std::string& name,
                     const std::string& unit, const char* span,
                     double ns_per_unit);

// --- Machine ----------------------------------------------------------------

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] std::size_t nproc();
/// CPU brand string from cpuid, or "unknown".
[[nodiscard]] std::string cpu_model();
/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

// --- Shared workload inputs -------------------------------------------------

/// Seeds shift by (seed - 1) times this stride so that no two cells of the
/// 1152-cell sweep grid share a substrate key under any --seed.
inline constexpr std::uint64_t kSweepSeedStride = 100003;

void clear_substrate_caches();
/// Summed misses of the solar, profile and Hybrid-seed caches.
[[nodiscard]] std::uint64_t substrate_cache_misses();

[[nodiscard]] std::vector<sim::Scenario> sweep_grid(std::uint64_t seed);
[[nodiscard]] std::size_t sweep_threads();
/// day_clean / day_storm: 3 days, 16 servers, Hybrid, EqualShare, default
/// bursts stretched x6.
[[nodiscard]] sim::DayRunConfig day_config(std::uint64_t seed, bool storm);
/// daemon_feed: the daemon's default 3-server campaign, 56 days per
/// measured second (560 days, 806,400 events at 10 s).
[[nodiscard]] sim::DayRunConfig daemon_day_config(std::uint64_t seed,
                                                  double seconds);

/// Epoch `seq` of a campaign plan as a GSRV/1 feed event.
[[nodiscard]] inline serve::FeedEvent feed_event(std::uint64_t seq,
                                                 const sim::LiveEpoch& e) {
  return {seq, e.lambda, e.irradiance, e.in_burst};
}

[[nodiscard]] inline std::uint64_t reference(std::uint64_t fp,
                                             const Options& o) {
  return o.corrupt_reference ? fp ^ 1ull : fp;
}

// --- Workloads --------------------------------------------------------------

/// End-to-end pass of one workload (metrics: throughput, latency_p50_us,
/// latency_tail_us, setup_s).
[[nodiscard]] Report sweep_e2e(const Options& o, const Budget& b);
[[nodiscard]] Report day_e2e(const Options& o, const Budget& b, bool storm);

/// What a live daemon run measures besides its e2e metrics; these feed
/// the serve/load/ckpt per-layer metrics.
struct DaemonLayers {
  Samples hello_rtt_us;
  Samples stat_rtt_us;
  Samples query_rtt_us;
  double queue_depth_max_low = 0.0;
  double queue_depth_max_high = 0.0;
  double gen_late_p99_us_low = 0.0;
  double gen_late_p99_us_high = 0.0;
  Samples commit_low_us;  ///< Low-phase per-event commit latency.
  double ckpt_bytes = 0.0;
};

/// daemon_feed at `seconds` scale. With `layers` set it also fills
/// `layers` and records spans around the checkpoint save, read and resume
/// paths.
[[nodiscard]] Report daemon_e2e(const Options& o, double seconds,
                                DaemonLayers* layers);

/// Per-layer replays; each adds its metrics to `r`.
void sweep_layers(const std::vector<sim::Scenario>& grid, std::size_t threads,
                  Report& r);
void solar_layers(const std::vector<trace::SolarTraceConfig>& configs,
                  Report& r);
void day_layers(const sim::DayRunConfig& cfg, std::size_t max_epochs,
                Report& r);
void feed_layers(const sim::DayRunConfig& cfg, std::size_t max_events,
                 Report& r);
void tsdb_layers(const sim::DayRunConfig& cfg, std::size_t max_epochs,
                 Report& r);
void daemon_layer_metrics(const DaemonLayers& d, Report& r);

}  // namespace gs::bench
