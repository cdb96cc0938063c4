// Bridges concrete channel models (SINR fading, classical radio, radio with
// collision detection) to the engine's uniform "resolve one round" call.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "deploy/deployment.hpp"
#include "radio/channel.hpp"
#include "sim/protocol.hpp"
#include "sinr/batch.hpp"
#include "sinr/channel.hpp"

namespace fcr {

/// Uniform round-resolution interface over channel models.
class ChannelAdapter {
 public:
  virtual ~ChannelAdapter() = default;

  virtual std::string name() const = 0;

  /// Whether listeners can distinguish collision from silence.
  virtual bool provides_collision_detection() const { return false; }

  /// True when each listener's feedback is a pure function of (deployment,
  /// transmitter set, listener id): resolve() draws no per-call randomness
  /// and no cross-listener state, so resolving any subset of the listeners
  /// yields the same bits for those listeners as resolving all of them.
  /// The columnar engine uses this to skip feedback resolution for
  /// knocked-out listeners in unobserved runs. Adapters with per-call
  /// randomness (Rayleigh redraws, lossy/jamming faults) must keep the
  /// default false — their rng stream position depends on the listener
  /// count, so subsetting would change the decision stream.
  virtual bool resolves_listeners_independently() const { return false; }

  /// Fills `out[i]` (same length/order as `listeners`) with what listener i
  /// observes given `transmitters` transmitting concurrently.
  /// `transmitters` and `listeners` must be disjoint.
  virtual void resolve(const Deployment& dep,
                       std::span<const NodeId> transmitters,
                       std::span<const NodeId> listeners,
                       std::span<Feedback> out) const = 0;

  /// True when the adapter implements resolve_mask. Only meaningful for
  /// adapters that also resolve listeners independently — the bitmask
  /// round loop requires both (see ExecutionWorkspace::run_rounds_mask).
  virtual bool supports_mask_resolve() const { return false; }

  /// Bitmask form of resolve() for kReceivedMask algorithms: transmitters
  /// and listeners arrive as id-bitmask words (disjoint; word w covers ids
  /// [64w, 64w + 64)), and bit id of `received` (same word count) is set
  /// exactly when resolve() would have produced feedback.received for
  /// listener id. `transmitter_count` is the popcount of `transmit_words`
  /// (the caller already has it for solo detection). Default aborts; only
  /// called when supports_mask_resolve().
  virtual void resolve_mask(const Deployment& dep,
                            std::span<const std::uint64_t> transmit_words,
                            std::span<const std::uint64_t> listen_words,
                            std::size_t transmitter_count,
                            std::span<std::uint64_t> received) const {
    (void)dep;
    (void)transmit_words;
    (void)listen_words;
    (void)transmitter_count;
    (void)received;
    FCR_CHECK_MSG(false, "resolve_mask called on adapter '"
                             << name() << "' without mask support");
  }
};

/// SINR fading channel adapter (the paper's model). Every round, of any
/// size, is resolved by the BatchResolver — bit-identical to
/// SinrChannel::resolve, reusing its grid and scratch across the trial's
/// rounds. The resolver is mutable per-round state, so one adapter
/// instance must not resolve concurrently from several threads; the trial
/// runners confine each instance to one worker.
class SinrChannelAdapter final : public ChannelAdapter {
 public:
  explicit SinrChannelAdapter(SinrParams params) : resolver_(params) {}
  explicit SinrChannelAdapter(SinrChannel channel)
      : resolver_(std::move(channel)) {}

  std::string name() const override { return "sinr"; }

  const SinrChannel& channel() const { return resolver_.channel(); }

  /// SINR decoding is deterministic per listener: each listener's answer
  /// depends only on its own position, so listener subsets resolve to
  /// identical bits.
  bool resolves_listeners_independently() const override { return true; }

  void resolve(const Deployment& dep, std::span<const NodeId> transmitters,
               std::span<const NodeId> listeners,
               std::span<Feedback> out) const override;

  /// The bitmask path runs the same certified pipeline without the
  /// id-vector/Feedback materialization.
  bool supports_mask_resolve() const override { return true; }
  void resolve_mask(const Deployment& dep,
                    std::span<const std::uint64_t> transmit_words,
                    std::span<const std::uint64_t> listen_words,
                    std::size_t transmitter_count,
                    std::span<std::uint64_t> received) const override;

 private:
  mutable BatchResolver resolver_;
  mutable std::vector<Reception> receptions_;
};

/// Classical radio network adapter; optional collision detection.
class RadioChannelAdapter final : public ChannelAdapter {
 public:
  explicit RadioChannelAdapter(bool collision_detection = false)
      : channel_(collision_detection) {}

  std::string name() const override {
    return channel_.collision_detection() ? "radio-cd" : "radio";
  }

  bool provides_collision_detection() const override {
    return channel_.collision_detection();
  }

  /// Every listener observes the same channel state, computed from the
  /// transmitter count alone.
  bool resolves_listeners_independently() const override { return true; }

  void resolve(const Deployment& dep, std::span<const NodeId> transmitters,
               std::span<const NodeId> listeners,
               std::span<Feedback> out) const override;

  /// Radio reception is a function of the transmitter count alone: every
  /// listener receives iff exactly one node transmits.
  bool supports_mask_resolve() const override { return true; }
  void resolve_mask(const Deployment& dep,
                    std::span<const std::uint64_t> transmit_words,
                    std::span<const std::uint64_t> listen_words,
                    std::size_t transmitter_count,
                    std::span<std::uint64_t> received) const override;

 private:
  RadioChannel channel_;
};

/// Convenience factories.
std::unique_ptr<ChannelAdapter> make_sinr_adapter(SinrParams params);
std::unique_ptr<ChannelAdapter> make_radio_adapter(bool collision_detection);

}  // namespace fcr
