#include "oracle.hpp"

#include <cmath>
#include <stdexcept>

#include "radio/channel.hpp"
#include "sim/channel_adapter.hpp"
#include "sinr/channel.hpp"

namespace e2e {
namespace {

class OracleSinrAdapter final : public fcr::ChannelAdapter {
 public:
  OracleSinrAdapter(fcr::SinrParams params, NearThreshold* census)
      : channel_(params), census_(census) {}

  std::string name() const override { return "oracle-sinr"; }

  void resolve(const fcr::Deployment& dep,
               std::span<const fcr::NodeId> transmitters,
               std::span<const fcr::NodeId> listeners,
               std::span<fcr::Feedback> out) const override {
    const std::vector<fcr::Reception> rx =
        channel_.resolve(dep, transmitters, listeners);
    for (std::size_t i = 0; i < listeners.size(); ++i) {
      fcr::Feedback& f = out[i];
      f.transmitted = false;
      f.received = rx[i].received();
      f.sender = rx[i].sender;
      f.observation = f.received ? fcr::RadioObservation::kMessage
                                 : fcr::RadioObservation::kSilence;
    }
    if (census_ != nullptr && !transmitters.empty()) {
      count_near_threshold(dep, transmitters, listeners);
    }
  }

 private:
  void count_near_threshold(const fcr::Deployment& dep,
                            std::span<const fcr::NodeId> transmitters,
                            std::span<const fcr::NodeId> listeners) const {
    const double beta = channel_.params().beta;
    for (const fcr::NodeId v : listeners) {
      // Strongest transmitter = nearest (first index on ties), the only
      // candidate the decision depends on.
      const fcr::Vec2 pv = dep.position(v);
      std::size_t best = 0;
      double best_d2 = INFINITY;
      for (std::size_t k = 0; k < transmitters.size(); ++k) {
        const fcr::Vec2 pu = dep.position(transmitters[k]);
        const double dx = pu.x - pv.x;
        const double dy = pu.y - pv.y;
        const double d2 = dx * dx + dy * dy;
        if (d2 < best_d2) {
          best_d2 = d2;
          best = k;
        }
      }
      interferers_.clear();
      for (std::size_t k = 0; k < transmitters.size(); ++k) {
        if (k != best) interferers_.push_back(transmitters[k]);
      }
      const double sinr =
          channel_.sinr(dep, transmitters[best], v, interferers_);
      ++census_->listeners;
      if (std::abs(sinr / beta - 1.0) <= NearThreshold::kNearMargin) {
        ++census_->near;
      }
    }
  }

  fcr::SinrChannel channel_;
  NearThreshold* census_;
  mutable std::vector<fcr::NodeId> interferers_;
};

class OracleRadioAdapter final : public fcr::ChannelAdapter {
 public:
  explicit OracleRadioAdapter(bool collision_detection)
      : channel_(collision_detection) {}

  std::string name() const override { return "oracle-radio"; }
  bool provides_collision_detection() const override {
    return channel_.collision_detection();
  }

  void resolve(const fcr::Deployment&,
               std::span<const fcr::NodeId> transmitters,
               std::span<const fcr::NodeId> listeners,
               std::span<fcr::Feedback> out) const override {
    const fcr::RadioObservation obs = channel_.observe(transmitters.size());
    const fcr::NodeId sender = fcr::RadioChannel::decoded_sender(transmitters);
    for (std::size_t i = 0; i < listeners.size(); ++i) {
      fcr::Feedback& f = out[i];
      f.transmitted = false;
      f.observation = obs;
      f.received = obs == fcr::RadioObservation::kMessage;
      f.sender = f.received ? sender : fcr::kInvalidNode;
    }
  }

 private:
  fcr::RadioChannel channel_;
};

}  // namespace

std::unique_ptr<fcr::ChannelAdapter> make_oracle_adapter(
    const fcr::ChannelAdapter& production, NearThreshold* census) {
  if (const auto* sinr =
          dynamic_cast<const fcr::SinrChannelAdapter*>(&production)) {
    return std::make_unique<OracleSinrAdapter>(sinr->channel().params(),
                                               census);
  }
  if (dynamic_cast<const fcr::RadioChannelAdapter*>(&production) != nullptr) {
    return std::make_unique<OracleRadioAdapter>(
        production.provides_collision_detection());
  }
  throw std::invalid_argument("no oracle for channel adapter '" +
                              production.name() + "'");
}

std::uint64_t outcome_digest(const std::vector<Outcome>& outcomes) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  for (const Outcome& o : outcomes) {
    mix(o.solved ? 1 : 0);
    mix(o.rounds);
    mix(o.winner);
  }
  return h;
}

}  // namespace e2e
