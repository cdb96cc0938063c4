// Batched SINR round resolution — the hot path behind the trial engine.
//
// BatchResolver answers the same question as SinrChannel::resolve() and is
// BIT-IDENTICAL to it, but is built for throughput when one round resolves
// many listeners against the same transmitter set. Every round runs one
// certified pipeline (docs/PERF.md §2):
//
//   * the transmitters are bucketed into a uniform grid of about six per
//     cell, sized from the round's transmitter count and bounding box only;
//     a grid no wider than the 3x3 near block collapses to 1x1, which is
//     the plain listener-blocked sweep, so small rounds need no separate
//     path;
//   * each listener cell gets a RIGOROUS far-field interval once: every
//     transmitter cell outside Chebyshev ring 1 contributes
//     count * [signal(farthest point), signal(nearest point)] — the paper's
//     annulus bound, region by region — and its listeners sweep only the
//     3x3 near block, eight at a time, with exact squared distances and an
//     approximate screening sum;
//   * a listener is decided there only when its nearest near-block
//     transmitter is strictly closer than any far cell and its best signal
//     clears beta * (noise + interference) at both ends of the interval;
//     the rest fall through to the listener-blocked sweep over every
//     transmitter and then to the canonical exact scan, so the OUTPUT is
//     bit-for-bit the reference answer.
//
// Thread-safety: a BatchResolver owns mutable scratch, so concurrent
// resolve() calls on ONE instance are not allowed. Use one resolver per
// worker (they are cheap); results are identical regardless of how
// listeners are sharded because each listener's answer depends only on its
// own position.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "deploy/deployment.hpp"
#include "sinr/channel.hpp"

namespace fcr {

/// Reusable batched resolver bound to one channel parameter set.
class BatchResolver {
 public:
  explicit BatchResolver(SinrParams params);
  explicit BatchResolver(SinrChannel channel);

  const SinrChannel& channel() const { return channel_; }

  /// Per-call accounting, reset by every resolve: how many listeners the
  /// call saw and which stage decided each of them — the cell certificate
  /// (near block + far interval), the sweep certificate (every
  /// transmitter, approximate sum), or the canonical exact scan.
  struct Stats {
    std::size_t listeners = 0;
    std::size_t cell_certified = 0;
    std::size_t sweep_certified = 0;
    std::size_t exact = 0;
  };
  const Stats& last_stats() const { return stats_; }

  /// Resolves one round into `out` (resized to listeners.size()),
  /// bit-identical to channel().resolve(dep, transmitters, listeners),
  /// including the sender (first transmitter index on distance ties).
  /// Same preconditions as SinrChannel::resolve; a listener colocated with
  /// a transmitter throws std::invalid_argument, leaving `out` as the
  /// reference leaves it: earlier listeners resolved, that one and later
  /// ones silent.
  void resolve(const Deployment& dep, std::span<const NodeId> transmitters,
               std::span<const NodeId> listeners, std::vector<Reception>& out);

  /// Convenience overload returning a fresh vector.
  std::vector<Reception> resolve(const Deployment& dep,
                                 std::span<const NodeId> transmitters,
                                 std::span<const NodeId> listeners);

  /// Bitmask round resolution for the columnar engine: transmitters and
  /// listeners arrive as id-bitmask words (bit id of word id/64 set; the
  /// two masks must be disjoint), receptions leave as the received bitmask
  /// written over `received_out` (same word count as the inputs) — no
  /// id-vector or Reception materialization between protocol and channel.
  /// Decision bits are identical to resolve() on the equivalent ascending
  /// id vectors, colocation throws included.
  void resolve_mask(const Deployment& dep,
                    std::span<const std::uint64_t> transmit_words,
                    std::span<const std::uint64_t> listen_words,
                    std::span<std::uint64_t> received_out);

 private:
  /// Round-local index of a transmitter, listener or grid cell.
  using Index = std::uint32_t;

  /// Far-field interval of a listener group: interference from outside
  /// the swept set lies in [lo, hi], and no such transmitter is nearer
  /// than squared distance d2.
  struct Far {
    double lo, hi, d2;
  };

  /// Resolves the loaded round: decision_[i] becomes the decoded
  /// transmitter index of listener i, or kNone. With `want_sender` false
  /// (mask path) only the received/silent distinction is kept.
  void run_round(const Deployment& dep, bool want_sender);
  void build_grid();
  template <typename K>
  void run_stages(const K& kernel);
  /// Cell certificate for the listeners of cell `c`: the 3x3 near block
  /// swept exactly, the far interval over every other occupied cell;
  /// undecided listeners go on to the sweep (or the exact scan).
  template <typename K>
  void cell_stage(const K& kernel, std::size_t c);
  /// Certifies up to eight listeners of `ids` against `count` transmitters
  /// (SoA x, y, transmitter index) plus `far`; each decided one counts in
  /// `decided`, undecided ones go to `next`.
  template <typename K>
  void certify_block(const K& kernel, const Index* ids, std::size_t lanes,
                     const double* xs, const double* ys, const Index* idx,
                     std::size_t count, const Far& far, std::size_t& decided,
                     std::vector<Index>& next);
  void exact_scan(Index i);

  SinrChannel channel_;
  Stats stats_;

  // The round: transmitter ids in canonical index order, listener ids in
  // output order, the deployment's positions (valid during one call), and
  // one decision per listener.
  std::vector<NodeId> tx_ids_, l_ids_;
  std::span<const Vec2> pos_;
  std::vector<Index> decision_;
  Index first_colocated_ = 0;
  bool want_sender_ = false;

  // Per-round grid: transmitters counting-sorted by cell (CSR t_off_,
  // coordinates s_x_/s_y_, index s_idx_), listeners grouped by cell
  // (l_off_, l_order_), occupied cells with their count and tight box.
  std::size_t gx_ = 1, gy_ = 1;
  double min_x_ = 0.0, min_y_ = 0.0, inv_hx_ = 0.0, inv_hy_ = 0.0;
  std::vector<Index> t_off_, l_off_, cursor_, s_idx_, l_order_;
  std::vector<double> s_x_, s_y_;
  std::vector<double> occ_ix_, occ_iy_, occ_n_, occ_x0_, occ_x1_, occ_y0_,
      occ_y1_;

  // Stage scratch, reused across cells and rounds.
  std::vector<double> n_x_, n_y_;
  std::vector<Index> n_idx_, sweep_q_, exact_q_;
  std::vector<double> d2_, sig_, scratch_;
};

}  // namespace fcr
