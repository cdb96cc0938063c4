#include "sinr/channel.hpp"

#include <cmath>
#include <limits>

#include "sinr/accumulate.hpp"
#include "util/check.hpp"

namespace fcr {

SinrChannel::SinrChannel(SinrParams params) : params_(params) {
  params_.validate(/*strict_alpha=*/false);
  const double a = params_.alpha;
  if (a == 2.0) {
    alpha_kind_ = AlphaKind::kTwo;
  } else if (a == 3.0) {
    alpha_kind_ = AlphaKind::kThree;
  } else if (a == 4.0) {
    alpha_kind_ = AlphaKind::kFour;
  } else if (a == 6.0) {
    alpha_kind_ = AlphaKind::kSix;
  } else {
    alpha_kind_ = AlphaKind::kGeneric;
  }
}

double SinrChannel::signal_from_dist_sq(double d2) const {
  FCR_ENSURE_ARG(d2 > 0.0,
                 "signal at zero distance is undefined (colocated nodes)");
  switch (alpha_kind_) {
    case AlphaKind::kTwo:
      return params_.power / d2;
    case AlphaKind::kThree:
      return params_.power / (d2 * std::sqrt(d2));
    case AlphaKind::kFour:
      return params_.power / (d2 * d2);
    case AlphaKind::kSix:
      return params_.power / (d2 * d2 * d2);
    case AlphaKind::kGeneric:
      return params_.power * std::pow(d2, -0.5 * params_.alpha);
  }
  return 0.0;  // unreachable
}

std::vector<Reception> SinrChannel::resolve(
    const Deployment& dep, std::span<const NodeId> transmitters,
    std::span<const NodeId> listeners) const {
  std::vector<Reception> out(listeners.size());
  if (transmitters.empty()) return out;

  // Flat position arrays keep the per-listener scan tight and vectorizable.
  const std::size_t t = transmitters.size();
  std::vector<double> tx(t), ty(t), sig(t), pairwise;
  for (std::size_t j = 0; j < t; ++j) {
    const Vec2 p = dep.position(transmitters[j]);
    tx[j] = p.x;
    ty[j] = p.y;
  }

  for (std::size_t i = 0; i < listeners.size(); ++i) {
    const Vec2 v = dep.position(listeners[i]);
    // Canonical best transmitter: argmin of squared distance, first index
    // on ties. Signal strength is non-increasing in distance, so this is
    // the strongest transmitter without computing any signal.
    double best_d2 = std::numeric_limits<double>::infinity();
    std::size_t best_j = 0;
    for (std::size_t j = 0; j < t; ++j) {
      const double dx = tx[j] - v.x;
      const double dy = ty[j] - v.y;
      const double d2 = dx * dx + dy * dy;
      sig[j] = signal_from_dist_sq(d2);
      if (d2 < best_d2) {
        best_d2 = d2;
        best_j = j;
      }
    }
    // Strongest transmitter maximizes SINR; if it fails, every sender
    // fails. Interference is the pairwise sum over the OTHER signals (all
    // non-negative, so no clamp is needed), in transmitter order — exactly
    // what sinr()/can_receive() compute over an explicit interferer list.
    const double interference =
        pairwise_sum_excluding(sig, best_j, pairwise);
    if (decodes(sig[best_j], interference)) {
      out[i].sender = transmitters[best_j];
    }
  }
  return out;
}

std::vector<Reception> SinrChannel::resolve_exhaustive(
    const Deployment& dep, std::span<const NodeId> transmitters,
    std::span<const NodeId> listeners) const {
  std::vector<Reception> out(listeners.size());
  std::vector<NodeId> interferers;
  for (std::size_t i = 0; i < listeners.size(); ++i) {
    const NodeId v = listeners[i];
    const Vec2 rv = dep.position(v);
    double best_rank = -1.0;
    for (const NodeId u : transmitters) {
      interferers.clear();
      for (const NodeId w : transmitters) {
        if (w != u) interferers.push_back(w);
      }
      const double signal =
          signal_from_dist_sq(dist_sq(dep.position(u), rv));
      const double interference =
          link_interference(dep, rv, u, v, interferers);
      // Decodability uses the shared multiplicative predicate (so this
      // agrees with resolve() on the decision BIT); ties between decodable
      // senders are broken by SINR value, earliest candidate wins.
      if (!decodes(signal, interference)) continue;
      const double denom = params_.noise + interference;
      const double rank = denom == 0.0
                              ? std::numeric_limits<double>::infinity()
                              : signal / denom;
      if (rank > best_rank) {
        best_rank = rank;
        out[i].sender = u;
      }
    }
  }
  return out;
}

double SinrChannel::sinr(const Deployment& dep, NodeId sender, NodeId receiver,
                         std::span<const NodeId> interferers) const {
  FCR_ENSURE_ARG(sender != receiver, "sender and receiver must differ");
  const Vec2 rv = dep.position(receiver);
  const double signal = signal_from_dist_sq(dist_sq(dep.position(sender), rv));
  const double denom =
      params_.noise + link_interference(dep, rv, sender, receiver, interferers);
  if (denom == 0.0) return std::numeric_limits<double>::infinity();
  return signal / denom;
}

bool SinrChannel::can_receive(const Deployment& dep, NodeId sender,
                              NodeId receiver,
                              std::span<const NodeId> interferers) const {
  FCR_ENSURE_ARG(sender != receiver, "sender and receiver must differ");
  const Vec2 rv = dep.position(receiver);
  const double signal = signal_from_dist_sq(dist_sq(dep.position(sender), rv));
  return decodes(signal,
                 link_interference(dep, rv, sender, receiver, interferers));
}

double SinrChannel::link_interference(
    const Deployment& dep, Vec2 rv, NodeId sender, NodeId receiver,
    std::span<const NodeId> interferers) const {
  std::vector<double> terms;
  terms.reserve(interferers.size());
  for (const NodeId w : interferers) {
    FCR_ENSURE_ARG(w != sender && w != receiver,
                   "interferer set must exclude sender and receiver");
    terms.push_back(signal_from_dist_sq(dist_sq(dep.position(w), rv)));
  }
  return pairwise_sum(terms);
}

double SinrChannel::interference_at(const Deployment& dep, Vec2 point,
                                    std::span<const NodeId> transmitters,
                                    NodeId exclude) const {
  std::vector<double> terms;
  terms.reserve(transmitters.size());
  for (const NodeId w : transmitters) {
    if (w == exclude) continue;
    const double d2 = dist_sq(dep.position(w), point);
    FCR_ENSURE_ARG(d2 > 0.0,
                   "probe point coincides with transmitter " << w
                       << " (interference is unbounded; pass it as exclude)");
    terms.push_back(signal_from_dist_sq(d2));
  }
  return pairwise_sum(terms);
}

}  // namespace fcr
