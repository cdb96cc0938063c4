// Self-test of the benchmark harness (not of the library):
//   * a deliberately wrong channel adapter -- one flipped reception per
//     resolved round, on the id-vector path (instrumented-ext-1024) and on
//     the bitmask path (campaign-pool-2t) -- is caught by the oracle check
//     and makes the run incorrect, while the unmodified run is correct;
//   * on a serial workload, a flip that starts only after the first pass
//     (which the oracle samples) is caught by the repeat check;
//   * traced runs produce properly nested spans and layer shares in [0, 1],
//     and the nesting check itself flags a child that outlives its parent.
//
// Run:  e2ebench_selftest [scratch-dir]     (exit 0 = all checks passed)
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << '\n';
  if (!ok) ++g_failures;
}

/// Forwards to the production adapter, then flips the reception of the
/// first listener of every round that has a transmitter.
class FlippedAdapter final : public fcr::ChannelAdapter {
 public:
  explicit FlippedAdapter(std::unique_ptr<fcr::ChannelAdapter> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return "flipped-" + inner_->name(); }
  bool provides_collision_detection() const override {
    return inner_->provides_collision_detection();
  }
  bool resolves_listeners_independently() const override {
    return inner_->resolves_listeners_independently();
  }
  bool supports_mask_resolve() const override {
    return inner_->supports_mask_resolve();
  }

  void resolve(const fcr::Deployment& dep,
               std::span<const fcr::NodeId> transmitters,
               std::span<const fcr::NodeId> listeners,
               std::span<fcr::Feedback> out) const override {
    inner_->resolve(dep, transmitters, listeners, out);
    if (out.empty() || transmitters.empty()) return;
    fcr::Feedback& f = out[0];
    f.received = !f.received;
    f.sender = f.received ? transmitters[0] : fcr::kInvalidNode;
    f.observation = f.received ? fcr::RadioObservation::kMessage
                               : fcr::RadioObservation::kSilence;
  }

  void resolve_mask(const fcr::Deployment& dep,
                    std::span<const std::uint64_t> transmit_words,
                    std::span<const std::uint64_t> listen_words,
                    std::size_t transmitter_count,
                    std::span<std::uint64_t> received) const override {
    inner_->resolve_mask(dep, transmit_words, listen_words, transmitter_count,
                         received);
    for (std::size_t w = 0; w < listen_words.size(); ++w) {
      if (listen_words[w] != 0) {
        received[w] ^= listen_words[w] & (~listen_words[w] + 1);  // lowest bit
        break;
      }
    }
  }

 private:
  std::unique_ptr<fcr::ChannelAdapter> inner_;
};

e2e::RunOptions quick(const std::string& workload, const std::string& scratch,
                      bool trace) {
  e2e::RunOptions o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0.05;
  o.trace = trace;
  o.scratch_dir = scratch;
  return o;
}

void oracle_catches_flip(const std::string& workload, const std::string& scratch) {
  const e2e::RunReport clean = e2e::run_workload(quick(workload, scratch, false));
  check(clean.correct && clean.oracle_mismatches == 0 && clean.oracle_checked > 0,
        workload + ": unmodified adapter passes the oracle check (" +
            std::to_string(clean.oracle_checked) + " trials)");

  e2e::RunOptions o = quick(workload, scratch, false);
  o.decorate_channel = [](std::unique_ptr<fcr::ChannelAdapter> inner)
      -> std::unique_ptr<fcr::ChannelAdapter> {
    return std::make_unique<FlippedAdapter>(std::move(inner));
  };
  const e2e::RunReport flipped = e2e::run_workload(o);
  check(!flipped.correct && flipped.oracle_mismatches > 0 && flipped.failed > 0,
        workload + ": one flipped reception per round is caught (" +
            std::to_string(flipped.oracle_mismatches) + " of " +
            std::to_string(flipped.oracle_checked) + " trials mismatch)");
}

/// Flips receptions only on adapters created after the first pass, so the
/// first pass (the one the oracle samples) is clean and only the repeat
/// check -- every pass must reproduce the first pass's outcomes -- can see
/// the change. A traced run makes at least two passes; the first one
/// creates 262 adapters (200 trials, one warm-up and 30 set-ups of two).
void repeat_check_catches_late_flip(const std::string& workload,
                                    const std::string& scratch) {
  e2e::RunOptions o = quick(workload, scratch, true);
  auto created = std::make_shared<std::size_t>(0);
  o.decorate_channel = [created](std::unique_ptr<fcr::ChannelAdapter> inner)
      -> std::unique_ptr<fcr::ChannelAdapter> {
    if (++*created <= 300) return inner;
    return std::make_unique<FlippedAdapter>(std::move(inner));
  };
  const e2e::RunReport r = e2e::run_workload(o);
  check(!r.correct && r.oracle_mismatches == 0 && r.failed > 0,
        workload + ": flips that start after the first pass are caught by the "
                   "repeat check (" + std::to_string(r.failed) + " of " +
            std::to_string(r.attempted) + " trial runs failed)");
}

void traced_run_is_well_formed(const std::string& workload,
                               const std::string& scratch) {
  const e2e::RunReport r = e2e::run_workload(quick(workload, scratch, true));
  check(r.correct && r.trace_nesting_errors == 0,
        workload + ": traced run is correct and its spans nest");
  // Layer shares: every metric named *share except the tracing overhead
  // (a signed difference). The trial's direct children and the engine's
  // self time are disjoint, so their shares sum to at most 1.
  const std::vector<std::string> disjoint = {
      "deploy.share", "sinr.resolve_share", "radio.resolve_share",
      "sim.engine.self_share"};
  double top_level = 0.0;
  bool shares_ok = true;
  for (const e2e::Metric& m : r.metrics) {
    const bool share = m.name.size() > 5 &&
                       m.name.compare(m.name.size() - 5, 5, "share") == 0 &&
                       m.name != "trace.overhead_share";
    if (!share) continue;
    if (!(m.value >= 0.0 && m.value <= 1.0)) {
      shares_ok = false;
      std::cout << "  " << m.name << " = " << m.value << '\n';
    }
    if (std::find(disjoint.begin(), disjoint.end(), m.name) != disjoint.end()) {
      top_level += m.value;
    }
  }
  check(shares_ok, workload + ": every layer share lies in [0, 1]");
  check(top_level <= 1.0 + 1e-9,
        workload + ": disjoint layer shares sum to at most 1 (" +
            std::to_string(top_level) + ")");
}

void nesting_check_flags_escape() {
  using e2e::Layer;
  using e2e::Span;
  using e2e::SpanRef;
  std::vector<std::vector<Span>> spans(1);
  spans[0].push_back(Span{Layer::kTrial, SpanRef{}, 0, 100, 0});
  spans[0].push_back(Span{Layer::kDeploy, SpanRef{0, 0}, 10, 40, 0});
  spans[0].push_back(Span{Layer::kSinrResolve, SpanRef{0, 0}, 50, 90, 0});
  const e2e::TraceSummary good = e2e::summarize(spans, 1);
  check(good.nesting_errors == 0 && good.engine_self_ns == 30 &&
            good.total_ns == 100,
        "summarize: nested spans accepted, self time = parent minus children");
  spans[0].push_back(Span{Layer::kObserver, SpanRef{0, 0}, 95, 120, 0});
  spans[0].push_back(Span{Layer::kCensus, SpanRef{0, 3}, 96, -1, 0});
  const e2e::TraceSummary bad = e2e::summarize(spans, 1);
  check(bad.nesting_errors == 2,
        "summarize: a child outliving its parent and an unclosed span are "
        "both flagged");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scratch = argc > 1 ? argv[1] : ".";
  try {
    nesting_check_flags_escape();
    oracle_catches_flip("instrumented-ext-1024", scratch);
    oracle_catches_flip("campaign-pool-2t", scratch);
    repeat_check_catches_late_flip("instrumented-ext-1024", scratch);
    traced_run_is_well_formed("radio-baselines-16k", scratch);
    traced_run_is_well_formed("instrumented-ext-1024", scratch);
    traced_run_is_well_formed("campaign-pool-2t", scratch);
  } catch (const std::exception& e) {
    std::cout << "FAIL unexpected exception: " << e.what() << '\n';
    ++g_failures;
  }
  std::cout << (g_failures == 0 ? "selftest: all checks passed"
                                : "selftest: FAILED")
            << '\n';
  return g_failures == 0 ? 0 : 1;
}
