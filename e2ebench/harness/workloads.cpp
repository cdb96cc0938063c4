#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "algorithms/registry.hpp"
#include "core/fading_cr.hpp"
#include "core/link_classes.hpp"
#include "deploy/generators.hpp"
#include "ext/duty_cycle.hpp"
#include "ext/faults.hpp"
#include "ext/staggered.hpp"
#include "oracle.hpp"
#include "sim/campaign.hpp"
#include "sim/parallel_runner.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

// The paper's SINR setting, as in experiment E1.
constexpr double kAlpha = 3.0;
constexpr double kBeta = 1.5;
constexpr double kNoise = 1e-9;
constexpr double kBroadcastP = 0.2;

constexpr const char* kFadingSinr = "fading-sinr-4096";
constexpr const char* kRadioBaselines = "radio-baselines-16k";
constexpr const char* kInstrumentedExt = "instrumented-ext-1024";
constexpr const char* kCampaignPool = "campaign-pool-2t";

/// Warm-up trials draw from this fixed seed, not the run's, so set-up does
/// the same work on every seed.
constexpr std::uint64_t kWarmUpSeed = 0x5E7u;

/// Oracle-checked SINR trials that also feed the near-threshold census.
constexpr std::size_t kNearCensusTrials = 4;

/// Set-up is timed this many times and setup_s is the median: serial
/// workloads spread the set-ups evenly over the timed phase, the campaign
/// times about half before the timed phase and half after it.
constexpr std::size_t kSetupRepeats = 31;

double side_for(std::size_t n) { return 2.0 * std::sqrt(static_cast<double>(n)); }

std::uint64_t name_tag(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median_ns(const std::vector<std::int64_t>& d) {
  std::vector<double> v(d.begin(), d.end());
  return quantile(std::move(v), 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set size of this process image, from VmHWM. (getrusage's
/// ru_maxrss survives execve, so it would report a larger parent that
/// forked this process, such as e2ebench/run.py.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID) or of the whole
/// process (CLOCK_PROCESS_CPUTIME_ID), in ns. The per-trial metrics use CPU
/// time rather than wall time: on a shared VM the hypervisor steals several
/// percent of the CPU for minutes at a time, and with paravirtual steal
/// accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING) the guest does not charge
/// stolen time to the task, so CPU time tracks the program, not the host.
std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// ------------------------------------------------------------ trial kinds

/// One kind of trial: its factory triple (plain and traced), the layer its
/// channel's resolve calls are traced as, engine configuration, and
/// whether it runs under the link-class census observer. Not movable once
/// built: the executors hold references to the factories.
struct Kind {
  std::string name;
  Layer resolve_layer = Layer::kSinrResolve;
  fcr::DeploymentFactory deploy;
  fcr::ChannelFactory base_channel;  ///< undecorated; the oracle reads it
  fcr::ChannelFactory channel;
  fcr::AlgorithmFactory algorithm;
  fcr::DeploymentFactory t_deploy;
  fcr::ChannelFactory t_channel;
  fcr::AlgorithmFactory t_algorithm;
  fcr::EngineConfig engine;
  bool census = false;
  std::optional<fcr::TrialExecutor> plain;
  std::optional<fcr::TrialExecutor> traced;
};

std::unique_ptr<Kind> make_kind(std::string name, Layer resolve_layer,
                                fcr::DeploymentFactory deploy,
                                fcr::ChannelFactory channel,
                                fcr::AlgorithmFactory algorithm,
                                fcr::EngineConfig engine, bool census,
                                const ChannelDecorator& decorate) {
  auto k = std::make_unique<Kind>();
  k->name = std::move(name);
  k->resolve_layer = resolve_layer;
  k->deploy = std::move(deploy);
  k->base_channel = std::move(channel);
  if (decorate) {
    k->channel = [inner = k->base_channel, decorate](const fcr::Deployment& dep) {
      return decorate(inner(dep));
    };
  } else {
    k->channel = k->base_channel;
  }
  k->algorithm = std::move(algorithm);
  k->t_deploy = traced(k->deploy);
  k->t_channel = traced(k->channel, resolve_layer);
  k->t_algorithm = traced(k->algorithm);
  k->engine = std::move(engine);
  k->census = census;
  if (!census) {
    k->plain.emplace(k->deploy, k->channel, k->algorithm);
    k->traced.emplace(k->t_deploy, k->t_channel, k->t_algorithm);
  }
  return k;
}

fcr::DeploymentFactory uniform_factory(std::size_t n) {
  const double side = side_for(n);
  return [n, side](fcr::Rng& rng) {
    return fcr::uniform_square(n, side, rng).normalized();
  };
}

fcr::AlgorithmFactory fading_factory() {
  return [](const fcr::Deployment&) -> std::unique_ptr<fcr::Algorithm> {
    return std::make_unique<fcr::FadingContentionResolution>(kBroadcastP);
  };
}

/// The paper's algorithm under crash-stop faults, staggered starts and
/// duty cycling: wrappers with no columnar form, so the engine runs its
/// per-node virtual path.
fcr::AlgorithmFactory wrapped_fading_factory(std::uint64_t seed) {
  return [seed](const fcr::Deployment&) -> std::unique_ptr<fcr::Algorithm> {
    std::shared_ptr<const fcr::Algorithm> a =
        std::make_shared<fcr::FadingContentionResolution>(kBroadcastP);
    a = std::make_shared<fcr::DutyCycled>(a, 2, fcr::random_phases(2, seed));
    a = std::make_shared<fcr::StaggeredActivation>(
        a, fcr::uniform_activation(8, seed + 1));
    return std::make_unique<fcr::CrashFaults>(a, 0.001);
  };
}

// ------------------------------------------------------- census observer

/// Per-round link-class census (as experiments E4/E8 keep it): the active
/// set's LinkClassPartition, updated incrementally with apply_knockouts.
class Census {
 public:
  Census(const fcr::Deployment& dep, bool traced) : dep_(dep), traced_(traced) {}

  void operator()(const fcr::RoundView& view) {
    std::optional<SpanScope> observer_span;
    if (traced_) observer_span.emplace(Layer::kObserver);
    if (done_) return;
    bool rejoined = false;
    knocked_.clear();
    if (part_) {
      for (fcr::NodeId id = 0; id < view.size(); ++id) {
        const bool now = view.is_contending(id);
        if (was_active_[id] != 0 && !now) {
          knocked_.push_back(id);
          was_active_[id] = 0;
        } else if (was_active_[id] == 0 && now) {
          rejoined = true;
        }
      }
    }
    std::optional<SpanScope> census_span;
    if (traced_) census_span.emplace(Layer::kCensus);
    if (!part_ || rejoined) {
      active_.clear();
      for (fcr::NodeId id = 0; id < view.size(); ++id) {
        if (view.is_contending(id)) active_.push_back(id);
      }
      was_active_.assign(dep_.size(), 0);
      for (const fcr::NodeId id : active_) was_active_[id] = 1;
      part_.emplace(dep_, active_);
    } else {
      part_->apply_knockouts(knocked_);
    }
    const std::vector<std::size_t> sizes = part_->sizes();
    for (std::size_t i = 0; i < sizes.size(); ++i) checksum_ += (i + 1) * sizes[i];
    if (part_->active_count() <= 1) done_ = true;
  }

 private:
  const fcr::Deployment& dep_;
  bool traced_;
  bool done_ = false;
  std::optional<fcr::LinkClassPartition> part_;
  std::vector<char> was_active_;
  std::vector<fcr::NodeId> knocked_;
  std::vector<fcr::NodeId> active_;
  std::size_t checksum_ = 0;  ///< folds in each round's census output
};

// ----------------------------------------------------------- bookkeeping

struct Record {
  double ns = 0.0;            ///< CPU time of the trial (campaign: all threads)
  double wall_ns = 0.0;       ///< wall time of the trial (serial workloads)
  std::uint64_t rounds = 0;   ///< simulated rounds
  std::uint64_t trials = 1;   ///< trials the record covers
  bool traced = false;
  bool ok = false;            ///< finished without error and solved
  Outcome outcome;
};

struct OracleStats {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::vector<Outcome> sample;
  NearThreshold near;
  std::vector<std::string> notes;
};

void compare(OracleStats& o, const std::string& what, const Outcome& production,
             const Outcome& oracle) {
  ++o.checked;
  o.sample.push_back(production);
  if (production == oracle) return;
  ++o.mismatches;
  if (o.notes.size() < 8) {
    std::ostringstream s;
    s << "oracle mismatch " << what << ": production (solved " << production.solved
      << ", rounds " << production.rounds << ", winner " << production.winner
      << ") vs oracle (solved " << oracle.solved << ", rounds " << oracle.rounds
      << ", winner " << oracle.winner << ")";
    o.notes.push_back(s.str());
  }
}

/// Re-runs one trial through the oracle adapter, untimed.
Outcome oracle_outcome(const Kind& k, const fcr::Rng& master, std::size_t t,
                       NearThreshold* near) {
  fcr::Rng deploy_rng = master.split(2 * t);
  const fcr::Rng run_rng = master.split(2 * t + 1);
  const fcr::Deployment dep = k.deploy(deploy_rng);
  const std::unique_ptr<fcr::ChannelAdapter> production = k.base_channel(dep);
  const std::unique_ptr<fcr::ChannelAdapter> oracle =
      make_oracle_adapter(*production, near);
  const std::unique_ptr<fcr::Algorithm> algorithm = k.algorithm(dep);
  return outcome_of(
      fcr::run_execution(dep, *algorithm, *oracle, k.engine, run_rng));
}

/// Per-layer metrics that are 0 unless a workload sets them.
struct LayerExtras {
  double near_threshold_share = 0.0;
  double pool_efficiency = 0.0;
  double checkpoints_written = 0.0;
  double retried = 0.0;
  double quarantined = 0.0;
  std::uint64_t traced_trials = 0;
  std::uint64_t traced_rounds = 0;
  std::uint64_t census_rounds = 0;
  double overhead_share = 0.0;
};

std::vector<Metric> layer_metrics(const TraceSummary& s, const LayerExtras& x) {
  const double total = static_cast<double>(s.total_ns);
  const LayerSummary& deploy = s.of(Layer::kDeploy);
  const LayerSummary& chf = s.of(Layer::kChannelFactory);
  const LayerSummary& alf = s.of(Layer::kAlgorithmFactory);
  const LayerSummary& sinr = s.of(Layer::kSinrResolve);
  const LayerSummary& radio = s.of(Layer::kRadioResolve);
  const LayerSummary& census = s.of(Layer::kCensus);
  std::vector<std::int64_t> factory = chf.durations;
  factory.insert(factory.end(), alf.durations.begin(), alf.durations.end());
  const auto trials = static_cast<double>(x.traced_trials);
  return {
      {"deploy.gen_ms_p50", median_ns(deploy.durations) * 1e-6, "ms"},
      {"deploy.share", ratio(static_cast<double>(deploy.total_ns), total), "ratio"},
      {"sim.factory.calls_per_trial",
       ratio(static_cast<double>(chf.spans + alf.spans), trials), "count"},
      {"sim.factory.ms_p50", median_ns(factory) * 1e-6, "ms"},
      {"sinr.resolve_us_p50", median_ns(sinr.durations) * 1e-3, "us"},
      {"sinr.resolve_share", ratio(static_cast<double>(sinr.total_ns), total), "ratio"},
      {"sinr.pairs_per_round",
       ratio(static_cast<double>(sinr.count), static_cast<double>(sinr.spans)),
       "count"},
      {"sinr.ns_per_pair",
       ratio(static_cast<double>(sinr.total_ns), static_cast<double>(sinr.count)),
       "ns"},
      {"sinr.near_threshold_share", x.near_threshold_share, "ratio"},
      {"radio.resolve_share", ratio(static_cast<double>(radio.total_ns), total), "ratio"},
      {"sim.engine.self_us_per_round",
       ratio(static_cast<double>(s.engine_self_ns) * 1e-3,
             static_cast<double>(x.traced_rounds)),
       "us"},
      {"sim.engine.self_share", ratio(static_cast<double>(s.engine_self_ns), total),
       "ratio"},
      {"core.census_us_per_round",
       ratio(static_cast<double>(census.total_ns) * 1e-3,
             static_cast<double>(x.census_rounds)),
       "us"},
      {"core.census_share", ratio(static_cast<double>(census.total_ns), total), "ratio"},
      {"sim.pool.efficiency", x.pool_efficiency, "ratio"},
      {"sim.campaign.checkpoints_written", x.checkpoints_written, "count"},
      {"sim.campaign.retried", x.retried, "count"},
      {"sim.campaign.quarantined", x.quarantined, "count"},
      {"trace.overhead_share", x.overhead_share, "ratio"},
      {"trace.traced_trials", trials, "count"},
      {"trace.nesting_errors", static_cast<double>(s.nesting_errors), "count"},
  };
}

/// Fills the report's end-to-end metrics from timing samples (each covers
/// `trials` trials) and the throughput the caller measured.
void end_to_end(RunReport& report, const std::vector<Record>& samples,
                double trials_per_s, double setup_s, double rss_mb,
                std::uint64_t attempted, std::uint64_t ok) {
  std::vector<double> trial_ms;
  std::vector<double> round_us;
  for (const Record& r : samples) {
    trial_ms.push_back(r.ns * 1e-6 / static_cast<double>(r.trials));
    if (r.rounds > 0) round_us.push_back(r.ns * 1e-3 / static_cast<double>(r.rounds));
  }
  report.metrics = {
      {"trials_per_s", trials_per_s, "1/s"},
      {"trial_ms_p50", quantile(trial_ms, 0.5), "ms"},
      {"trial_ms_p90", quantile(trial_ms, 0.9), "ms"},
      {"round_us_p50", quantile(round_us, 0.5), "us"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"ok_share", ratio(static_cast<double>(ok), static_cast<double>(attempted)),
       "ratio"},
  };
  std::ostringstream s;
  s << "samples: " << samples.size() << " timing samples; p90 has "
    << samples.size() - static_cast<std::size_t>(
                            std::ceil(0.9 * static_cast<double>(samples.size())))
    << " samples beyond it";
  report.notes.push_back(s.str());
}

double overhead_share(const std::vector<Record>& records) {
  std::vector<double> plain;
  std::vector<double> traced_ms;
  for (const Record& r : records) {
    (r.traced ? traced_ms : plain).push_back(r.ns / static_cast<double>(r.trials));
  }
  const double base = quantile(plain, 0.5);
  return base > 0.0 ? quantile(traced_ms, 0.5) / base - 1.0 : 0.0;
}

void finish_oracle(RunReport& report, OracleStats& oracle) {
  report.oracle_checked = oracle.checked;
  report.oracle_mismatches = oracle.mismatches;
  report.digest = outcome_digest(oracle.sample);
  for (std::string& n : oracle.notes) report.notes.push_back(std::move(n));
  std::ostringstream s;
  s << "oracle: " << oracle.checked << " trials re-run on the reference channel, "
    << oracle.mismatches << " mismatches; outcome digest " << std::hex
    << report.digest;
  report.notes.push_back(s.str());
}

/// Times `count` set-ups into `times`.
template <class Setup>
void append_setups(std::vector<double>& times, std::size_t count, Setup&& setup) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t t0 = now_ns();
    setup();
    times.push_back(seconds_since(t0));
  }
}

// ----------------------------------------------------- serial workloads

/// Trials run one after another on the calling thread, in passes. A pass
/// runs `per_kind` trials of each kind, kind after kind, so an executor's
/// single-slot factory cache hits on a fixed deployment. Trial i of kind k
/// is trial g = k * per_kind + i of run_trials' streams (master.split(2g),
/// master.split(2g + 1)).
///
/// Every pass repeats the same trials, and a trial's time is the best of
/// its repeats. The shared host alternates between a fast state and one in
/// which memory-bound code runs up to 1.6x slower, in blocks of 0.3-3 s and
/// sometimes for minutes; a fixed memory-bound probe slows in step, so the
/// slowdown is the host's, not the program's. The best of repeats spread
/// over the whole run takes it out of each trial's time, and the spread
/// between trials (input sizes, round counts) stays in the quantiles.
class SerialWorkload {
 public:
  SerialWorkload(std::vector<std::unique_ptr<Kind>> kinds, std::size_t per_kind,
                 std::size_t oracle_per_kind, std::uint64_t seed,
                 const std::string& name)
      : kinds_(std::move(kinds)),
        per_kind_(per_kind),
        oracle_per_kind_(oracle_per_kind),
        master_(fcr::Rng(seed).split(name_tag(name))),
        warm_master_(fcr::Rng(kWarmUpSeed).split(name_tag(name))) {}

  /// Trials per pass.
  std::size_t trials() const { return per_kind_ * kinds_.size(); }
  std::size_t per_kind() const { return per_kind_; }
  const Kind& kind_of(std::size_t g) const { return *kinds_[g / per_kind_]; }
  /// The oracle re-runs the first oracle_per_kind trials of each kind.
  bool sampled(std::size_t g) const { return g % per_kind_ < oracle_per_kind_; }

  /// One untimed trial of each kind.
  void warm_up() {
    for (std::size_t k = 0; k < kinds_.size(); ++k) {
      run_trial(*kinds_[k], warm_master_, k, false);
    }
  }

  Record run_trial(const Kind& k, const fcr::Rng& master, std::size_t t,
                   bool traced) const {
    Record rec;
    rec.traced = traced;
    fcr::Rng deploy_rng = master.split(2 * t);
    const fcr::Rng run_rng = master.split(2 * t + 1);
    const std::int64_t w0 = now_ns();
    const std::int64_t t0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    try {
      fcr::RunResult r;
      if (traced) {
        const SpanScope span(Layer::kTrial);
        r = execute(k, deploy_rng, run_rng, true);
        Tracer::instance().add_count(span.ref(), r.rounds);
      } else {
        r = execute(k, deploy_rng, run_rng, false);
      }
      rec.ns = static_cast<double>(cpu_ns(CLOCK_THREAD_CPUTIME_ID) - t0);
      rec.wall_ns = static_cast<double>(now_ns() - w0);
      rec.rounds = r.rounds;
      rec.outcome = outcome_of(r);
      rec.ok = r.solved;
    } catch (const std::exception&) {
      rec.ns = static_cast<double>(cpu_ns(CLOCK_THREAD_CPUTIME_ID) - t0);
      rec.wall_ns = static_cast<double>(now_ns() - w0);
    }
    return rec;
  }

  const fcr::Rng& master() const { return master_; }
  std::size_t kinds() const { return kinds_.size(); }
  const Kind& kind(std::size_t k) const { return *kinds_[k]; }

 private:
  static fcr::RunResult execute(const Kind& k, fcr::Rng& deploy_rng,
                                const fcr::Rng& run_rng, bool traced) {
    if (!k.census) {
      const fcr::TrialExecutor& ex = traced ? *k.traced : *k.plain;
      return ex.run(k.engine, deploy_rng, run_rng);
    }
    // The census observer needs run_execution; this mirrors run_trials'
    // per-trial sequence (deployment, channel, algorithm, execution).
    const fcr::Deployment dep = (traced ? k.t_deploy : k.deploy)(deploy_rng);
    const std::unique_ptr<fcr::ChannelAdapter> channel =
        (traced ? k.t_channel : k.channel)(dep);
    const std::unique_ptr<fcr::Algorithm> algorithm =
        (traced ? k.t_algorithm : k.algorithm)(dep);
    Census census(dep, traced);
    return fcr::run_execution(dep, *algorithm, *channel, k.engine, run_rng,
                              [&census](const fcr::RoundView& v) { census(v); });
  }

  std::vector<std::unique_ptr<Kind>> kinds_;
  std::size_t per_kind_;
  std::size_t oracle_per_kind_;
  fcr::Rng master_;
  fcr::Rng warm_master_;
};

/// Trials of each kind per pass: 100 timing samples, so p90 has 10 beyond it.
constexpr std::size_t kPerKind = 100;

std::unique_ptr<SerialWorkload> make_serial(const RunOptions& o) {
  std::vector<std::unique_ptr<Kind>> kinds;
  const fcr::EngineConfig engine;
  if (o.workload == kFadingSinr) {
    kinds.push_back(make_kind("fading", Layer::kSinrResolve, uniform_factory(4096),
                              fcr::sinr_channel_factory(kAlpha, kBeta, kNoise),
                              fading_factory(), engine, false,
                              o.decorate_channel));
    return std::make_unique<SerialWorkload>(std::move(kinds), kPerKind, 12, o.seed,
                                            o.workload);
  }
  if (o.workload == kRadioBaselines) {
    // One deployment for the whole run: fixed_deployment hands every trial
    // the same position buffer, so the executors' factory cache hits.
    constexpr std::size_t n = 16384;
    fcr::Rng deploy_rng = fcr::Rng(o.seed).split(name_tag(o.workload) + 2);
    const fcr::DeploymentFactory fixed =
        fcr::fixed_deployment(fcr::uniform_square(n, side_for(n), deploy_rng));
    for (const char* key : {"decay", "fast-decay", "aloha", "sift", "backoff"}) {
      const std::string k = key;
      kinds.push_back(make_kind(
          k, Layer::kRadioResolve, fixed, fcr::radio_channel_factory(false),
          [k](const fcr::Deployment& dep) {
            return fcr::make_algorithm(k, dep.size());
          },
          engine, false, o.decorate_channel));
    }
    return std::make_unique<SerialWorkload>(std::move(kinds), kPerKind, 2, o.seed,
                                            o.workload);
  }
  if (o.workload == kInstrumentedExt) {
    fcr::EngineConfig recorded;
    recorded.record_rounds = true;
    kinds.push_back(make_kind("fading-census", Layer::kSinrResolve,
                              uniform_factory(1024),
                              fcr::sinr_channel_factory(kAlpha, kBeta, kNoise),
                              fading_factory(), recorded, true,
                              o.decorate_channel));
    kinds.push_back(make_kind("fading-crash-staggered-dutycycled",
                              Layer::kSinrResolve, uniform_factory(1024),
                              fcr::sinr_channel_factory(kAlpha, kBeta, kNoise),
                              wrapped_fading_factory(o.seed), engine, false,
                              o.decorate_channel));
    return std::make_unique<SerialWorkload>(std::move(kinds), kPerKind, 12, o.seed,
                                            o.workload);
  }
  return nullptr;
}

/// One trial's repeats: the first outcome, and the best plain and traced
/// times over all passes.
struct Repeats {
  Outcome outcome;
  std::uint64_t rounds = 0;
  std::uint64_t runs = 0;
  std::uint64_t ok_runs = 0;     ///< solved, and the same outcome as the first
  std::uint64_t traced_runs = 0;
  double cpu_ns = std::numeric_limits<double>::infinity();
  double wall_ns = std::numeric_limits<double>::infinity();
  double traced_ns = std::numeric_limits<double>::infinity();

  void add(const Record& r) {
    if (runs++ == 0) {
      outcome = r.outcome;
      rounds = r.rounds;
    }
    if (r.ok && r.outcome == outcome) ++ok_runs;
    if (r.traced) {
      ++traced_runs;
      traced_ns = std::min(traced_ns, r.ns);
    } else {
      cpu_ns = std::min(cpu_ns, r.ns);
      wall_ns = std::min(wall_ns, r.wall_ns);
    }
  }
};

RunReport run_serial(const RunOptions& o) {
  std::unique_ptr<SerialWorkload> w;
  std::vector<double> setup_times;
  append_setups(setup_times, 1, [&] {
    w = make_serial(o);
    w->warm_up();
  });
  // The other set-ups are timed between trials at evenly spaced moments of
  // the timed phase, so setup_s (the median of all) samples the host across
  // the whole run rather than in one stretch of it.
  const auto one_more_setup = [&] {
    append_setups(setup_times, 1, [&] {
      std::unique_ptr<SerialWorkload> again = make_serial(o);
      again->warm_up();
    });
  };

  Tracer::instance().clear();
  std::vector<Repeats> trials(w->trials());
  const std::int64_t start = now_ns();
  const auto setup_due = [&] {
    return setup_times.size() < kSetupRepeats &&
           seconds_since(start) >= o.seconds * static_cast<double>(setup_times.size()) /
                                       static_cast<double>(kSetupRepeats);
  };
  std::size_t passes = 0;
  for (bool done = false; !done;) {
    // Traced runs alternate plain and traced passes, so the per-layer
    // numbers and the tracing overhead come from the same time window.
    const bool traced = o.trace && passes % 2 == 1;
    for (std::size_t g = 0; g < trials.size(); ++g) {
      trials[g].add(w->run_trial(w->kind_of(g), w->master(), g, traced));
      if (setup_due()) one_more_setup();
    }
    ++passes;
    // A traced run ends after a traced pass, so both kinds of pass have the
    // same number of repeats to take the best of.
    done = seconds_since(start) >= o.seconds && (!o.trace || traced);
  }
  const double rss_mb = peak_rss_mb();
  const std::vector<std::vector<Span>> spans = Tracer::instance().snapshot();

  OracleStats oracle;
  std::vector<bool> oracle_ok(trials.size(), true);
  std::size_t near_trials = 0;
  for (std::size_t g = 0; g < trials.size(); ++g) {
    if (!w->sampled(g)) continue;
    const Kind& k = w->kind_of(g);
    const bool near = o.trace && k.resolve_layer == Layer::kSinrResolve &&
                      near_trials < kNearCensusTrials;
    near_trials += near ? 1 : 0;
    Outcome ref;
    try {
      ref = oracle_outcome(k, w->master(), g, near ? &oracle.near : nullptr);
    } catch (const std::exception& e) {
      oracle.notes.push_back(std::string("oracle re-run failed: ") + e.what());
    }
    compare(oracle, k.name + " trial " + std::to_string(g), trials[g].outcome, ref);
    oracle_ok[g] = trials[g].outcome == ref;
  }

  while (setup_times.size() < kSetupRepeats) one_more_setup();
  const double setup_s = quantile(setup_times, 0.5);

  RunReport report;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t unrepeatable = 0;
  for (std::size_t g = 0; g < trials.size(); ++g) {
    attempted += trials[g].runs;
    if (oracle_ok[g]) ok += trials[g].ok_runs;
    if (trials[g].ok_runs != trials[g].runs) ++unrepeatable;
  }
  {
    std::ostringstream s;
    s << "passes: " << passes << " of " << trials.size()
      << " trials; each trial's time is the best of its "
      << (o.trace ? "plain repeats (traced: of its traced ones)" : "repeats") << "; "
      << unrepeatable
      << " trials unsolved or with an outcome that changed between passes";
    report.notes.push_back(s.str());
  }
  for (std::size_t k = 0; k < w->kinds(); ++k) {
    std::vector<double> ms;
    std::vector<double> us;
    std::vector<double> rounds;
    for (std::size_t i = 0; i < w->per_kind(); ++i) {
      const Repeats& r = trials[k * w->per_kind() + i];
      ms.push_back(r.cpu_ns * 1e-6);
      rounds.push_back(static_cast<double>(r.rounds));
      if (r.rounds > 0) us.push_back(r.cpu_ns * 1e-3 / static_cast<double>(r.rounds));
    }
    std::ostringstream s;
    s << "kind " << w->kind(k).name << ": " << ms.size()
      << " trials, best trial_ms p50 " << quantile(ms, 0.5) << ", rounds p50 "
      << quantile(rounds, 0.5) << ", round_us p50 " << quantile(us, 0.5);
    report.notes.push_back(s.str());
  }
  report.attempted = attempted;
  report.failed = attempted - ok;
  finish_oracle(report, oracle);

  // Timing sample i: trial i of every kind, so each sample holds the kinds
  // in the same proportions. (With several kinds their costs form separate
  // clusters, and a median over single trials would sit in the gap between
  // clusters, where it swings with every small shift.)
  std::vector<Record> samples(w->per_kind());
  for (Record& s : samples) s.trials = w->kinds();
  double plain_ns = 0.0;
  double traced_ns = 0.0;
  double wall_ns = 0.0;
  for (std::size_t g = 0; g < trials.size(); ++g) {
    Record& s = samples[g % w->per_kind()];
    s.ns += trials[g].cpu_ns;
    s.rounds += trials[g].rounds;
    plain_ns += trials[g].cpu_ns;
    traced_ns += trials[g].traced_ns;
    wall_ns += trials[g].wall_ns;
  }
  if (!o.trace) {
    end_to_end(report, samples,
               ratio(static_cast<double>(trials.size()), wall_ns * 1e-9), setup_s,
               rss_mb, attempted, ok);
  } else {
    const TraceSummary s = summarize(spans, 1);
    LayerExtras x;
    for (std::size_t g = 0; g < trials.size(); ++g) {
      const Repeats& r = trials[g];
      x.traced_trials += r.traced_runs;
      x.traced_rounds += r.traced_runs * r.rounds;
      if (w->kind_of(g).census) x.census_rounds += r.traced_runs * r.rounds;
    }
    x.near_threshold_share = ratio(static_cast<double>(oracle.near.near),
                                   static_cast<double>(oracle.near.listeners));
    x.overhead_share = plain_ns > 0.0 ? traced_ns / plain_ns - 1.0 : 0.0;
    report.metrics = layer_metrics(s, x);
    report.trace_nesting_errors = s.nesting_errors;
  }
  report.correct = report.failed == 0 && oracle.mismatches == 0 &&
                   report.trace_nesting_errors == 0;
  return report;
}

// ---------------------------------------------------- campaign workload

/// CampaignRunner through the local backend on two pool threads, with
/// retries and checkpointing on, over Thomas-cluster deployments.
class CampaignWorkload {
 public:
  static constexpr std::size_t kN = 1024;
  static constexpr std::size_t kClusters = 16;
  static constexpr std::size_t kTrialsPerCampaign = 128;
  static constexpr std::size_t kThreads = 2;

  CampaignWorkload(const RunOptions& o)
      : kind_(make_kind(
            "fading-clusters", Layer::kSinrResolve, clusters_factory(),
            fcr::sinr_channel_factory(kAlpha, kBeta, kNoise), fading_factory(),
            fcr::EngineConfig{}, false, o.decorate_channel)),
        seeds_(fcr::Rng(o.seed).split(name_tag(o.workload))) {
    std::filesystem::create_directories(o.scratch_dir);
    checkpoint_ = (std::filesystem::path(o.scratch_dir) /
                   ("campaign-" + std::to_string(o.seed) + ".ckpt"))
                      .string();
  }
  CampaignWorkload(const CampaignWorkload&) = delete;
  CampaignWorkload& operator=(const CampaignWorkload&) = delete;
  ~CampaignWorkload() {
    std::error_code ec;
    std::filesystem::remove(checkpoint_, ec);
    std::filesystem::remove(checkpoint_ + ".tmp", ec);
  }

  std::uint64_t campaign_seed(std::size_t c) const {
    fcr::Rng r = seeds_.split(c);
    return r();
  }

  fcr::CampaignResult run(std::uint64_t seed, std::size_t trials,
                          std::size_t threads, bool traced) const {
    fcr::CampaignConfig config;
    config.trial.trials = trials;
    config.trial.seed = seed;
    config.threads = threads;
    config.retry.max_attempts = 3;
    config.checkpoint.path = checkpoint_;
    config.checkpoint.every = 16;
    config.identity = "e2ebench campaign-pool-2t";
    if (!traced) {
      fcr::CampaignRunner runner(kind_->deploy, kind_->channel, kind_->algorithm,
                                 config);
      return runner.run();
    }
    const SpanScope span(Layer::kCampaign);
    Tracer::instance().set_root(span.ref());
    fcr::CampaignRunner runner(kind_->t_deploy, kind_->t_channel,
                               kind_->t_algorithm, config);
    fcr::CampaignResult result = runner.run();
    Tracer::instance().set_root(SpanRef{});
    std::uint64_t rounds = 0;
    for (const std::uint64_t r : result.result.rounds) rounds += r;
    Tracer::instance().add_count(span.ref(), rounds);
    return result;
  }

  const Kind& kind() const { return *kind_; }

 private:
  static fcr::DeploymentFactory clusters_factory() {
    const double side = side_for(kN);
    return [side](fcr::Rng& rng) {
      return fcr::thomas_clusters(kN, kClusters, side / 40.0, side, rng)
          .normalized();
    };
  }

  std::unique_ptr<Kind> kind_;
  fcr::Rng seeds_;
  std::string checkpoint_;
};

Record campaign_record(const fcr::CampaignResult& r, double cpu, bool traced) {
  Record rec;
  rec.ns = cpu;
  rec.trials = r.result.trials;
  rec.traced = traced;
  for (const std::uint64_t x : r.result.rounds) rec.rounds += x;
  rec.ok = r.result.solved == r.result.trials && r.quarantined == 0;
  return rec;
}

RunReport run_campaign(const RunOptions& o) {
  std::unique_ptr<CampaignWorkload> w;
  const auto set_up = [&o](std::unique_ptr<CampaignWorkload>& into) {
    into.reset();
    into = std::make_unique<CampaignWorkload>(o);
    // Warm-up: starts the pool and warms both workers' workspaces.
    into->run(kWarmUpSeed, 8, CampaignWorkload::kThreads, false);
  };
  std::vector<double> setup_times;
  append_setups(setup_times, kSetupRepeats / 2 + 1, [&] { set_up(w); });

  Tracer::instance().clear();
  std::vector<Record> records;
  std::vector<double> efficiency;
  std::optional<fcr::CampaignResult> first;
  std::uint64_t trials = 0;
  std::uint64_t ok_trials = 0;
  std::uint64_t invariance_mismatches = 0;
  double checkpoints = 0.0;
  double retried = 0.0;
  double quarantined = 0.0;
  std::size_t campaigns = 0;

  // Returns the campaign with its wall time and its CPU time (all threads).
  const auto timed = [&](std::uint64_t seed, std::size_t threads, bool traced) {
    const std::int64_t t0 = now_ns();
    const std::int64_t c0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    fcr::CampaignResult r =
        w->run(seed, CampaignWorkload::kTrialsPerCampaign, threads, traced);
    const double cpu = static_cast<double>(cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - c0);
    const double ns = static_cast<double>(now_ns() - t0);
    ++campaigns;
    checkpoints += static_cast<double>(r.checkpoints_written);
    retried += static_cast<double>(r.retried);
    quarantined += static_cast<double>(r.quarantined);
    return std::make_tuple(std::move(r), ns, cpu);
  };

  const std::int64_t start = now_ns();
  for (std::size_t c = 0;; ++c) {
    const std::uint64_t seed = w->campaign_seed(c);
    auto [plain, plain_ns, plain_cpu] = timed(seed, CampaignWorkload::kThreads, false);
    Record rec = campaign_record(plain, plain_cpu, false);
    trials += rec.trials;
    if (rec.ok) ok_trials += rec.trials;
    records.push_back(rec);
    if (o.trace) {
      // Same trial set traced, and on one thread: outcomes must not move,
      // and the 1-thread time is the base of the pool efficiency.
      auto [with_trace, traced_ns, traced_cpu] =
          timed(seed, CampaignWorkload::kThreads, true);
      auto [serial, serial_ns, serial_cpu] = timed(seed, 1, false);
      records.push_back(campaign_record(with_trace, traced_cpu, true));
      if (with_trace.result.rounds != plain.result.rounds) ++invariance_mismatches;
      if (serial.result.rounds != plain.result.rounds) ++invariance_mismatches;
      efficiency.push_back(serial_ns / (2.0 * plain_ns));
    }
    if (!first) first = std::move(plain);
    if (seconds_since(start) >= o.seconds) break;
  }
  const double wall_s = seconds_since(start);
  const double rss_mb = peak_rss_mb();
  const std::vector<std::vector<Span>> spans = Tracer::instance().snapshot();

  // Oracle: the first campaign's leading trials. The campaign reports
  // (solved, rounds) per trial; the winner comes from re-running the trial
  // through a TrialExecutor on the production channel, which must agree
  // with the campaign and then with the reference channel.
  OracleStats oracle;
  constexpr std::size_t sample = 24;
  const Kind& k = w->kind();
  const fcr::Rng master(w->campaign_seed(0));
  const bool all_solved = first->result.solved == first->result.trials;
  for (std::size_t t = 0; t < sample; ++t) {
    Outcome production;
    Outcome ref;
    try {
      const fcr::RunResult r =
          k.plain->run(k.engine, master.split(2 * t), master.split(2 * t + 1));
      production = Outcome{all_solved, all_solved ? first->result.rounds[t] : 0,
                           r.winner};
      if (!(outcome_of(r) == production)) ++invariance_mismatches;
      NearThreshold* near = o.trace && t < kNearCensusTrials ? &oracle.near : nullptr;
      ref = oracle_outcome(k, master, t, near);
    } catch (const std::exception& e) {
      oracle.notes.push_back(std::string("oracle re-run failed: ") + e.what());
    }
    compare(oracle, "campaign 0 trial " + std::to_string(t), production, ref);
  }
  if (invariance_mismatches > 0) {
    oracle.notes.push_back(std::to_string(invariance_mismatches) +
                           " outcome disagreements between the campaign and "
                           "the same trials traced, on one thread, or run "
                           "through a TrialExecutor");
  }

  append_setups(setup_times, kSetupRepeats / 2, [&] {
    std::unique_ptr<CampaignWorkload> again;
    set_up(again);
  });
  const double setup_s = quantile(setup_times, 0.5);

  RunReport report;
  report.attempted = trials;
  report.failed = trials - ok_trials + oracle.mismatches + invariance_mismatches;
  finish_oracle(report, oracle);
  if (!o.trace) {
    std::ostringstream note;
    note << "campaigns: " << records.size() << " over " << trials << " trials in "
         << wall_s << " s";
    report.notes.push_back(note.str());
    end_to_end(report, records, ratio(static_cast<double>(trials), wall_s), setup_s,
               rss_mb, report.attempted,
               report.attempted - std::min(report.attempted, report.failed));
  } else {
    const TraceSummary s = summarize(spans, CampaignWorkload::kThreads);
    LayerExtras x;
    for (const Record& r : records) {
      if (!r.traced) continue;
      x.traced_trials += r.trials;
      x.traced_rounds += r.rounds;
    }
    x.near_threshold_share = ratio(static_cast<double>(oracle.near.near),
                                   static_cast<double>(oracle.near.listeners));
    x.pool_efficiency = quantile(efficiency, 0.5);
    x.checkpoints_written = ratio(checkpoints, static_cast<double>(campaigns));
    x.retried = retried;
    x.quarantined = quarantined;
    x.overhead_share = overhead_share(records);
    report.metrics = layer_metrics(s, x);
    report.trace_nesting_errors = s.nesting_errors;
  }
  report.correct = report.failed == 0 && oracle.mismatches == 0 &&
                   report.trace_nesting_errors == 0;
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {kFadingSinr, kRadioBaselines,
                                                 kInstrumentedExt, kCampaignPool};
  return names;
}

RunReport run_workload(const RunOptions& options) {
  if (options.workload == kCampaignPool) return run_campaign(options);
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  return run_serial(options);
}

const std::vector<Metric>& end_to_end_metric_specs() {
  static const std::vector<Metric> specs = [] {
    RunReport r;
    end_to_end(r, {}, 0.0, 0.0, 0.0, 0, 0);
    return r.metrics;
  }();
  return specs;
}

const std::vector<Metric>& per_layer_metric_specs() {
  static const std::vector<Metric> specs =
      layer_metrics(TraceSummary{}, LayerExtras{});
  return specs;
}

}  // namespace e2e
