#include "trace.hpp"

#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#include <utility>

namespace e2e {

struct Tracer::Buffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;  // indices of open spans, innermost last
};

namespace {

std::mutex g_registry_mutex;
// Buffers live for the process; a thread keeps a pointer to its own.
std::vector<std::unique_ptr<Tracer::Buffer>>& registry() {
  static std::vector<std::unique_ptr<Tracer::Buffer>> buffers;
  return buffers;
}
std::atomic<std::uint64_t> g_root{~std::uint64_t{0}};

std::uint64_t pack(SpanRef r) {
  return (std::uint64_t{r.thread} << 32) | r.index;
}
SpanRef unpack(std::uint64_t v) {
  return SpanRef{static_cast<std::uint32_t>(v >> 32),
                 static_cast<std::uint32_t>(v & 0xFFFFFFFFu)};
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* mine = nullptr;
  if (mine == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    auto& buffers = registry();
    buffers.push_back(std::make_unique<Buffer>());
    buffers.back()->thread = static_cast<std::uint32_t>(buffers.size() - 1);
    buffers.back()->spans.reserve(1 << 16);
    mine = buffers.back().get();
  }
  return *mine;
}

SpanRef Tracer::open(Layer layer, std::uint64_t count) {
  Buffer& b = local();
  Span s;
  s.layer = layer;
  s.count = count;
  s.parent = b.open.empty() ? unpack(g_root.load(std::memory_order_acquire))
                            : SpanRef{b.thread, b.open.back()};
  const auto index = static_cast<std::uint32_t>(b.spans.size());
  b.open.push_back(index);
  s.start = now_ns();
  b.spans.push_back(s);
  return SpanRef{b.thread, index};
}

void Tracer::close(SpanRef ref) {
  const std::int64_t t = now_ns();
  Buffer& b = local();
  b.spans[ref.index].end = t;
  if (!b.open.empty() && b.open.back() == ref.index) b.open.pop_back();
}

void Tracer::add_count(SpanRef ref, std::uint64_t count) {
  local().spans[ref.index].count += count;
}

void Tracer::set_root(SpanRef ref) {
  g_root.store(pack(ref), std::memory_order_release);
}

std::vector<std::vector<Span>> Tracer::snapshot() const {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<std::vector<Span>> out;
  for (const auto& b : registry()) out.push_back(b->spans);
  return out;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (auto& b : registry()) {
    b->spans.clear();
    b->open.clear();
  }
  g_root.store(~std::uint64_t{0}, std::memory_order_release);
}

// ------------------------------------------------------------- wrappers

namespace {

/// Forwards every ChannelAdapter call to the library adapter, timing the
/// resolve entry points as spans of `layer`. Forwarding the capability queries keeps the
/// engine on the same round loop it takes with the unwrapped adapter.
class TracedChannelAdapter final : public fcr::ChannelAdapter {
 public:
  TracedChannelAdapter(std::unique_ptr<fcr::ChannelAdapter> inner, Layer layer)
      : inner_(std::move(inner)), layer_(layer) {}

  std::string name() const override { return inner_->name(); }
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
    const SpanScope span(layer_, transmitters.size() * listeners.size());
    inner_->resolve(dep, transmitters, listeners, out);
  }

  void resolve_mask(const fcr::Deployment& dep,
                    std::span<const std::uint64_t> transmit_words,
                    std::span<const std::uint64_t> listen_words,
                    std::size_t transmitter_count,
                    std::span<std::uint64_t> received) const override {
    std::size_t listeners = 0;
    for (const std::uint64_t w : listen_words) {
      listeners += static_cast<std::size_t>(std::popcount(w));
    }
    const SpanScope span(layer_, transmitter_count * listeners);
    inner_->resolve_mask(dep, transmit_words, listen_words, transmitter_count,
                         received);
  }

 private:
  std::unique_ptr<fcr::ChannelAdapter> inner_;
  Layer layer_;
};

}  // namespace

fcr::DeploymentFactory traced(fcr::DeploymentFactory inner) {
  return [inner = std::move(inner)](fcr::Rng& rng) {
    const SpanScope span(Layer::kDeploy);
    return inner(rng);
  };
}

fcr::AlgorithmFactory traced(fcr::AlgorithmFactory inner) {
  return [inner = std::move(inner)](const fcr::Deployment& dep) {
    const SpanScope span(Layer::kAlgorithmFactory);
    return inner(dep);
  };
}

fcr::ChannelFactory traced(fcr::ChannelFactory inner, Layer resolve_layer) {
  return [inner = std::move(inner), resolve_layer](const fcr::Deployment& dep)
             -> std::unique_ptr<fcr::ChannelAdapter> {
    const SpanScope span(Layer::kChannelFactory);
    return std::make_unique<TracedChannelAdapter>(inner(dep), resolve_layer);
  };
}

// ------------------------------------------------------------- analysis

TraceSummary summarize(const std::vector<std::vector<Span>>& spans,
                       std::size_t campaign_threads) {
  TraceSummary out;
  std::vector<std::vector<std::int64_t>> child_ns(spans.size());
  for (std::size_t t = 0; t < spans.size(); ++t) {
    child_ns[t].assign(spans[t].size(), 0);
  }

  for (std::size_t t = 0; t < spans.size(); ++t) {
    for (const Span& s : spans[t]) {
      if (s.end < s.start) {
        ++out.nesting_errors;
        continue;
      }
      const std::int64_t dur = s.end - s.start;
      LayerSummary& l = out.layer[static_cast<std::size_t>(s.layer)];
      ++l.spans;
      l.total_ns += dur;
      l.count += s.count;
      l.durations.push_back(dur);
      if (!s.parent.valid()) continue;
      if (s.parent.thread >= spans.size() ||
          s.parent.index >= spans[s.parent.thread].size()) {
        ++out.nesting_errors;
        continue;
      }
      const Span& p = spans[s.parent.thread][s.parent.index];
      if (p.end < p.start || s.start < p.start || s.end > p.end) {
        ++out.nesting_errors;
      }
      child_ns[s.parent.thread][s.parent.index] += dur;
    }
  }

  for (std::size_t t = 0; t < spans.size(); ++t) {
    for (std::size_t i = 0; i < spans[t].size(); ++i) {
      const Span& s = spans[t][i];
      if (s.end < s.start) continue;
      std::int64_t host = 0;
      if (s.layer == Layer::kTrial) {
        host = s.end - s.start;
      } else if (s.layer == Layer::kCampaign) {
        host = (s.end - s.start) * static_cast<std::int64_t>(campaign_threads);
      } else {
        continue;
      }
      out.total_ns += host;
      out.engine_self_ns += host - child_ns[t][i];
    }
  }
  return out;
}

}  // namespace e2e
