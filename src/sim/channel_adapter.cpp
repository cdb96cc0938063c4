#include "sim/channel_adapter.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace fcr {

void SinrChannelAdapter::resolve(const Deployment& dep,
                                 std::span<const NodeId> transmitters,
                                 std::span<const NodeId> listeners,
                                 std::span<Feedback> out) const {
  FCR_ENSURE_ARG(out.size() == listeners.size(),
                 "feedback span size mismatch: " << out.size() << " vs "
                                                 << listeners.size());
  resolver_.resolve(dep, transmitters, listeners, receptions_);
  for (std::size_t i = 0; i < listeners.size(); ++i) {
    Feedback& f = out[i];
    f.transmitted = false;
    f.received = receptions_[i].received();
    f.sender = receptions_[i].sender;
    f.observation = f.received ? RadioObservation::kMessage
                               : RadioObservation::kSilence;
  }
}

void SinrChannelAdapter::resolve_mask(
    const Deployment& dep, std::span<const std::uint64_t> transmit_words,
    std::span<const std::uint64_t> listen_words,
    std::size_t /*transmitter_count*/,
    std::span<std::uint64_t> received) const {
  resolver_.resolve_mask(dep, transmit_words, listen_words, received);
}

void RadioChannelAdapter::resolve(const Deployment& dep,
                                  std::span<const NodeId> transmitters,
                                  std::span<const NodeId> listeners,
                                  std::span<Feedback> out) const {
  (void)dep;  // single-hop radio semantics are position-independent
  FCR_ENSURE_ARG(out.size() == listeners.size(),
                 "feedback span size mismatch: " << out.size() << " vs "
                                                 << listeners.size());
  const RadioObservation obs = channel_.observe(transmitters.size());
  const NodeId sender = RadioChannel::decoded_sender(transmitters);
  for (Feedback& f : out) {
    f.transmitted = false;
    f.observation = obs;
    f.received = obs == RadioObservation::kMessage;
    f.sender = f.received ? sender : kInvalidNode;
  }
}

void RadioChannelAdapter::resolve_mask(
    const Deployment& /*dep*/, std::span<const std::uint64_t> /*transmit_words*/,
    std::span<const std::uint64_t> listen_words, std::size_t transmitter_count,
    std::span<std::uint64_t> received) const {
  FCR_ENSURE_ARG(received.size() == listen_words.size(),
                 "received mask word count mismatch: "
                     << received.size() << " vs " << listen_words.size());
  // observe(t) == kMessage iff t == 1; every listener then decodes it.
  if (transmitter_count == 1) {
    for (std::size_t w = 0; w < listen_words.size(); ++w) {
      received[w] = listen_words[w];
    }
  } else {
    std::fill(received.begin(), received.end(), std::uint64_t{0});
  }
}

std::unique_ptr<ChannelAdapter> make_sinr_adapter(SinrParams params) {
  return std::make_unique<SinrChannelAdapter>(params);
}

std::unique_ptr<ChannelAdapter> make_radio_adapter(bool collision_detection) {
  return std::make_unique<RadioChannelAdapter>(collision_detection);
}

}  // namespace fcr
