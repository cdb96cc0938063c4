// SINR reception resolution: given a deployment and a set of concurrent
// transmitters, decide for every listener whether it decodes a message and
// from whom.
//
// Key correctness-preserving optimization: for a listener v with total
// received power S(v) = sum_w signal(w, v), the SINR of candidate sender u
// is signal(u,v) / (N + S(v) - signal(u,v)), which is strictly increasing in
// signal(u,v). Therefore v decodes *some* message iff it decodes its
// strongest (nearest) transmitter, and resolution needs one O(T) pass per
// listener instead of O(T^2). A pairwise `sinr()` entry point exists for
// tests and analysis probes.
//
// Canonical decision pipeline (shared bit-for-bit by resolve(), sinr(),
// can_receive(), resolve_exhaustive(), and BatchResolver):
//   * best transmitter = argmin of squared distance, FIRST index on ties;
//   * interference = pairwise_sum (see sinr/accumulate.hpp) over the other
//     transmitters' signals in transmitter order;
//   * decode  <=>  signal >= beta * (noise + interference)   [decodes()].
//
// Colocation policy: a zero-distance link has no defined signal. EVERY
// entry point rejects it with std::invalid_argument — resolve() when a
// listener coincides with a transmitter, interference_at() when the probe
// point sits exactly on a non-excluded transmitter. Deployments already
// reject duplicate positions at construction, so distinct node ids can
// never be colocated; only id-overlapping transmitter/listener sets or raw
// probe points can trigger this.
#pragma once

#include <span>
#include <vector>

#include "deploy/deployment.hpp"
#include "sinr/params.hpp"

namespace fcr {

/// Outcome of one listener in one round.
struct Reception {
  NodeId sender = kInvalidNode;  ///< decoded sender, or kInvalidNode
  bool received() const { return sender != kInvalidNode; }
};

/// Path-loss dispatch tag: integer alpha values take multiply/sqrt fast
/// paths instead of pow. Chosen once at channel construction; exposed so
/// the batched resolver can select matching vectorized kernels.
enum class AlphaKind { kTwo, kThree, kFour, kSix, kGeneric };

/// Immutable SINR channel bound to a parameter set.
class SinrChannel {
 public:
  explicit SinrChannel(SinrParams params);

  const SinrParams& params() const { return params_; }
  AlphaKind alpha_kind() const { return alpha_kind_; }

  /// Resolves one synchronous round: for each id in `listeners`, decides
  /// whether it decodes a message from some id in `transmitters`.
  /// Preconditions: ids valid; `transmitters` and `listeners` disjoint
  /// (an id in both sets is a zero-distance link and throws).
  /// Returns one Reception per listener, in listener order. This scan is
  /// the oracle of the tests and benchmarks; production rounds go through
  /// BatchResolver (sinr/batch.hpp), which must match it bit for bit.
  std::vector<Reception> resolve(const Deployment& dep,
                                 std::span<const NodeId> transmitters,
                                 std::span<const NodeId> listeners) const;

  /// Reference implementation of resolve(): evaluates the SINR inequality
  /// for EVERY (listener, candidate sender) pair — O(T^2 L) — with no
  /// strongest-transmitter shortcut. Used by tests to validate resolve()
  /// and by the micro-benchmarks to quantify the optimization; returns the
  /// decodable sender with the highest SINR per listener.
  std::vector<Reception> resolve_exhaustive(
      const Deployment& dep, std::span<const NodeId> transmitters,
      std::span<const NodeId> listeners) const;

  /// Exact SINR of link (sender -> receiver) when `interferers` (which must
  /// not contain sender or receiver) also transmit. Infinity when the
  /// denominator is zero (no noise, no interference).
  double sinr(const Deployment& dep, NodeId sender, NodeId receiver,
              std::span<const NodeId> interferers) const;

  /// True iff the SINR of the link meets the decoding threshold beta.
  /// Exactly equivalent to decodes(signal, interference) for the link.
  bool can_receive(const Deployment& dep, NodeId sender, NodeId receiver,
                   std::span<const NodeId> interferers) const;

  /// THE decision predicate: signal >= beta * (noise + interference).
  /// Multiplicative form of SINR >= beta — no division, and well defined
  /// when noise + interference == 0 (infinite SINR decodes). All entry
  /// points funnel through this so they agree on the exact FP comparison.
  bool decodes(double signal, double interference) const {
    return signal >= params_.beta * (params_.noise + interference);
  }

  /// Sum of received powers at an arbitrary point from the given
  /// transmitters (id `exclude` skipped). Used by the E9 interference
  /// instrumentation (Lemmas 3 and 4 measure exactly this quantity).
  /// Throws std::invalid_argument if the point coincides with a
  /// non-excluded transmitter (the interference there is unbounded).
  double interference_at(const Deployment& dep, Vec2 point,
                         std::span<const NodeId> transmitters,
                         NodeId exclude = kInvalidNode) const;

  /// Received signal strength over squared distance d2, i.e.
  /// P * (d2)^(-alpha/2), with fast paths for integer alpha.
  /// Throws std::invalid_argument when d2 <= 0 (colocated nodes).
  double signal_from_dist_sq(double d2) const;

 private:
  /// Pairwise-summed interference at `rv` from `interferers` (validated to
  /// exclude sender and receiver). The single implementation behind sinr()
  /// and can_receive() so the two can never drift apart.
  double link_interference(const Deployment& dep, Vec2 rv, NodeId sender,
                           NodeId receiver,
                           std::span<const NodeId> interferers) const;

  SinrParams params_;
  AlphaKind alpha_kind_;
};

}  // namespace fcr
