// Outside-in tracing for the end-to-end benchmark.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into each library layer: forwarding wrappers around the public
// DeploymentFactory / ChannelFactory / AlgorithmFactory and ChannelAdapter
// interfaces, plus spans in the benchmark's own round observer. Nothing
// inside the library is instrumented. Each thread appends to its own
// in-memory buffer; the buffers are analysed after the timed phase, when
// no worker is running.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Layer boundaries the benchmark can observe from outside.
enum class Layer : std::uint8_t {
  kTrial,             ///< one trial: deployment + factories + execution
  kCampaign,          ///< one CampaignRunner::run call (main thread)
  kDeploy,            ///< DeploymentFactory call (generator + normalized())
  kChannelFactory,    ///< ChannelFactory call
  kAlgorithmFactory,  ///< AlgorithmFactory call
  kSinrResolve,       ///< SINR adapter resolve / resolve_mask
  kRadioResolve,      ///< radio adapter resolve / resolve_mask
  kObserver,          ///< the benchmark's round observer
  kCensus,            ///< LinkClassPartition work inside the observer
};
inline constexpr std::size_t kLayerCount = 9;

/// Where a span sits: thread buffer and index within it. kNone = root.
struct SpanRef {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  std::uint32_t thread = kNone;
  std::uint32_t index = kNone;
  bool valid() const { return index != kNone; }
};

struct Span {
  Layer layer = Layer::kTrial;
  SpanRef parent;             ///< the span that caused this one
  std::int64_t start = 0;     ///< steady_clock ns
  std::int64_t end = -1;      ///< -1 while open
  std::uint64_t count = 0;    ///< work count (pairs for resolve, rounds for trials)
};

/// Process-wide span store with one buffer per thread.
class Tracer {
 public:
  static Tracer& instance();

  /// Opens a span on the calling thread. Its parent is the innermost span
  /// still open on this thread, or else the current cross-thread root
  /// (set_root), so pool workers' spans point at the campaign that caused
  /// them.
  SpanRef open(Layer layer, std::uint64_t count = 0);
  void close(SpanRef ref);
  /// Adds to an open span's work count (e.g. a trial's rounds).
  void add_count(SpanRef ref, std::uint64_t count);

  /// Parent for spans opened on threads with no open span of their own.
  void set_root(SpanRef ref);

  /// All threads' spans, thread-major. Call only while no thread records.
  std::vector<std::vector<Span>> snapshot() const;
  /// Drops every recorded span. Call only while no thread records.
  void clear();

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  struct Buffer;  ///< one thread's spans (defined in trace.cpp)

 private:
  Buffer& local();
};

/// RAII span on the calling thread.
class SpanScope {
 public:
  explicit SpanScope(Layer layer, std::uint64_t count = 0)
      : ref_(Tracer::instance().open(layer, count)) {}
  ~SpanScope() { Tracer::instance().close(ref_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  SpanRef ref() const { return ref_; }

 private:
  SpanRef ref_;
};

/// Forwarding wrappers: same products, with a span around each call.
fcr::DeploymentFactory traced(fcr::DeploymentFactory inner);
fcr::AlgorithmFactory traced(fcr::AlgorithmFactory inner);
/// Wraps the factory in a span and its products in a forwarding adapter
/// whose resolve / resolve_mask calls are spans of `resolve_layer`.
fcr::ChannelFactory traced(fcr::ChannelFactory inner, Layer resolve_layer);

/// Per-layer aggregates computed from a snapshot.
struct LayerSummary {
  std::uint64_t spans = 0;
  std::int64_t total_ns = 0;
  std::uint64_t count = 0;            ///< summed work counts
  std::vector<std::int64_t> durations;
};

struct TraceSummary {
  LayerSummary layer[kLayerCount];
  /// Host time the spans are shares of: summed kTrial durations, plus
  /// kCampaign durations times the campaign's thread count.
  std::int64_t total_ns = 0;
  /// Trial self time: trial (or campaign thread-time) minus the time its
  /// direct children cover — the engine's own work: decide kernels, RNG
  /// streams, feedback, and the round loop.
  std::int64_t engine_self_ns = 0;
  /// Nesting violations: a span still open, ending before it starts, or
  /// not contained in its parent's interval.
  std::uint64_t nesting_errors = 0;

  const LayerSummary& of(Layer l) const {
    return layer[static_cast<std::size_t>(l)];
  }
};

TraceSummary summarize(const std::vector<std::vector<Span>>& spans,
                       std::size_t campaign_threads);

}  // namespace e2e
