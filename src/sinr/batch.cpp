// BatchResolver implementation. This translation unit is compiled with
// -O3 -fno-math-errno -ffp-contract=off (plus -march=native when available;
// see src/sinr/CMakeLists.txt): errno-free sqrt lets the compiler vectorize
// the scan passes, and disabling FP contraction keeps every d2/signal value
// bit-identical to the ones channel.cpp computes, whatever the host ISA.
// IEEE requires +, *, /, sqrt to be correctly rounded, so vectorizing them
// never changes a result; only contraction (FMA) or reassociation could,
// and both are off here. The screening sums and far-field bounds below are
// the ONLY places non-reference arithmetic appears, and their answers are
// used solely when a conservative error bound proves the exact comparison
// would agree.
#include "sinr/batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sinr/accumulate.hpp"
#include "util/check.hpp"

namespace fcr {
namespace {

/// Listeners per blocked sweep: eight doubles fill an AVX-512 register (or
/// two AVX2 ones).
constexpr std::size_t kLanes = 8;

// The listener-blocked kernels are written on an explicit 8-lane vector:
// GCC's auto-vectorizer splits their lane loops across transmitters with
// shuffles instead (measured 2.3x slower per pair). Lane-wise + - * / and
// comparisons are the same IEEE operations as the scalar code, with
// contraction off, so every d2 stays bit-identical. The vectors only pass
// between internal-linkage functions of this file, so GCC's note that such
// arguments change the cross-TU calling convention does not apply.
#pragma GCC diagnostic ignored "-Wpsabi"
using Lanes = double __attribute__((vector_size(kLanes * sizeof(double))));
using LaneBits =
    std::uint64_t __attribute__((vector_size(kLanes * sizeof(double))));

/// Round-local indices (transmitter, listener, cell) fit NodeId's range;
/// 32 bits halve the resolver's per-listener scratch.
using Index = std::uint32_t;

/// "No transmitter decoded" in BatchResolver::decision_.
constexpr Index kNone = std::numeric_limits<Index>::max();

/// Target transmitters per grid cell. The 3x3 near block then holds ~54
/// transmitters, few enough that the near sweep is cheap, while the far
/// interval (whose widest terms are the cells just outside the block)
/// stays tight enough to certify ~95% of the listeners of a uniform
/// alpha = 3 round.
constexpr std::size_t kPerCell = 6;

/// Certification margin for the reciprocal-sqrt screening term (alpha = 3).
/// fast_rsqrt's measured worst-case relative error over [1e-6, 1e12] is
/// 4.6e-6, so a signal term P*y^3 is off by at most ~1.4e-5 relative;
/// 1e-4 leaves a >6x safety factor that also swallows summation-order
/// rounding and the cancellation in (total - best).
constexpr double kEpsRsqrt = 1e-4;

/// Certification margin when the screening terms are computed EXACTLY
/// (alpha in {2, 4, 6} and generic pow), and the rounding slack of the
/// far-field interval. The only discrepancy vs the canonical pairwise sum
/// is reduction order, bounded by n * 2^-53 relative — 1e-9 covers n up to
/// ~10^6 with headroom.
constexpr double kEpsReassoc = 1e-9;

/// The bit-trick rsqrt needs a normal input; below this, fall back to the
/// exact scan (d2 this small means nodes ~1e-150 apart — never legitimate).
constexpr double kMinNormalD2 = 1e-300;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Approximate 1/sqrt(x) for normal positive doubles, lane-wise: the
/// classic magic-constant seed (Robertson's 64-bit constant) plus two
/// Newton-Raphson steps. Relative error <= ~5e-6; see kEpsRsqrt.
inline Lanes fast_rsqrt(Lanes x) {
  Lanes y = (Lanes)(0x5FE6EB50C7B537A9ULL - ((LaneBits)x >> 1));
  y = y * (1.5 - 0.5 * x * y * y);
  y = y * (1.5 - 0.5 * x * y * y);
  return y;
}

/// Index of the FIRST minimum of d2 (the canonical best-transmitter rule).
/// Lane-blocked: a vectorizable min reduction, then one equality scan for
/// the first attaining index — the branchy fused argmin does not vectorize
/// and costs ~5x more.
std::size_t pass_argmin(const double* d2, std::size_t n, double& min_out) {
  double lane[kLanes];
  for (std::size_t k = 0; k < kLanes; ++k) lane[k] = kInf;
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      const double x = d2[j + k];
      lane[k] = x < lane[k] ? x : lane[k];
    }
  }
  double mm = kInf;
  for (std::size_t k = 0; k < kLanes; ++k) mm = lane[k] < mm ? lane[k] : mm;
  for (; j < n; ++j) mm = d2[j] < mm ? d2[j] : mm;
  min_out = mm;
  for (std::size_t i = 0; i < n; ++i) {
    if (d2[i] == mm) return i;
  }
  return 0;
}

/// Listener-blocked fused sweep: resolves kLanes listeners at once against
/// `t` transmitters, producing each listener's exact minimum squared
/// distance and its approximate screening sum of term(d2) in ONE pass.
///
/// The vector dimension is LISTENERS, not transmitters: each lane is an
/// independent listener and every transmitter load is amortized over
/// kLanes listeners. Decisive quantities stay exact: d2 uses the same
/// contraction-free expression as pass_d2, and the minimum of a fixed
/// non-NaN set is fold-order independent. The screening sum's rounding
/// order differs from pairwise_sum, which the certification margins absorb.
template <typename Term>
void pass_block(const double* txx, const double* txy, std::size_t t, Lanes lx,
                Lanes ly, Term term, Lanes& mm_out, Lanes& sum_out) {
  const auto d2 = [&](std::size_t j) {
    const Lanes dx = lx - txx[j];
    const Lanes dy = ly - txy[j];
    return dx * dx + dy * dy;
  };
  // Two independent chains, so the sweep runs at FP throughput rather than
  // add/min latency.
  Lanes m0 = Lanes{} + kInf, m1 = m0, a0 = Lanes{}, a1 = a0;
  std::size_t j = 0;
  for (; j + 2 <= t; j += 2) {
    const Lanes x0 = d2(j), x1 = d2(j + 1);
    // FCRLINT_ALLOW(fp-accumulate): screening-only sums; the margin
    // absorbs the reduction-order error (decisive sums use pairwise_sum).
    a0 += term(x0);
    // FCRLINT_ALLOW(fp-accumulate): second chain of the same sum.
    a1 += term(x1);
    m0 = x0 < m0 ? x0 : m0;
    m1 = x1 < m1 ? x1 : m1;
  }
  if (j < t) {
    const Lanes x0 = d2(j);
    // FCRLINT_ALLOW(fp-accumulate): tail of the same screening-only sum.
    a0 += term(x0);
    m0 = x0 < m0 ? x0 : m0;
  }
  mm_out = m1 < m0 ? m1 : m0;
  sum_out = a0 + a1;
}

/// Smallest transmitter index among `count` candidates whose squared
/// distance to (vx, vy) equals mm — the reference's first-index tie rule,
/// with d2 computed exactly as pass_block computes it.
Index first_at(const double* xs, const double* ys, const Index* idx,
               std::size_t count, double vx, double vy, double mm) {
  Index best = kNone;
  for (std::size_t k = 0; k < count; ++k) {
    const double dx = vx - xs[k];
    const double dy = vy - ys[k];
    if (dx * dx + dy * dy == mm && idx[k] < best) best = idx[k];
  }
  return best;
}

/// Cell coordinate of a scaled offset on an axis of g cells: clamped to
/// [0, g - 1], NaN to 0 (listeners outside the box land in edge cells).
std::size_t axis_cell(double r, std::size_t g) {
  if (!(r > 0.0)) return 0;
  if (!(r < static_cast<double>(g))) return g - 1;
  return std::min(static_cast<std::size_t>(r), g - 1);
}

/// Appends the ids of the set bits of `words` in ascending order — the
/// order the id-vector path sees them in.
void append_ids(std::span<const std::uint64_t> words,
                std::vector<NodeId>& ids) {
  ids.reserve(words.size() * 64);  // once: no regrowth round after round
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      ids.push_back(static_cast<NodeId>(w * 64) +
                    static_cast<NodeId>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

/// The per-alpha arithmetic of one round: the screening term summed by
/// pass_block (approximate only for alpha = 3, relative error <= eps) and
/// the exact signal — the closed form SinrChannel::signal_from_dist_sq
/// evaluates, inlined so the certification and far loops vectorize.
template <typename Term, typename Exact>
struct Kernel {
  Term term;
  Exact exact;
  double eps;
};

}  // namespace

BatchResolver::BatchResolver(SinrParams params)
    : BatchResolver(SinrChannel(params)) {}

BatchResolver::BatchResolver(SinrChannel channel)
    : channel_(std::move(channel)) {}

void BatchResolver::resolve(const Deployment& dep,
                            std::span<const NodeId> transmitters,
                            std::span<const NodeId> listeners,
                            std::vector<Reception>& out) {
  out.assign(listeners.size(), Reception{});
  tx_ids_.assign(transmitters.begin(), transmitters.end());
  l_ids_.assign(listeners.begin(), listeners.end());
  run_round(dep, /*want_sender=*/true);
  for (std::size_t i = 0; i < listeners.size(); ++i) {
    if (decision_[i] != kNone) out[i].sender = tx_ids_[decision_[i]];
  }
  FCR_ENSURE_ARG(first_colocated_ == kNone,
                 "signal at zero distance is undefined (colocated nodes)");
}

std::vector<Reception> BatchResolver::resolve(
    const Deployment& dep, std::span<const NodeId> transmitters,
    std::span<const NodeId> listeners) {
  std::vector<Reception> out;
  resolve(dep, transmitters, listeners, out);
  return out;
}

void BatchResolver::resolve_mask(const Deployment& dep,
                                 std::span<const std::uint64_t> transmit_words,
                                 std::span<const std::uint64_t> listen_words,
                                 std::span<std::uint64_t> received_out) {
  FCR_ENSURE_ARG(received_out.size() == listen_words.size(),
                 "received mask word count mismatch: " << received_out.size()
                                                       << " vs "
                                                       << listen_words.size());
  tx_ids_.clear();
  append_ids(transmit_words, tx_ids_);
  l_ids_.clear();
  append_ids(listen_words, l_ids_);
  run_round(dep, /*want_sender=*/false);
  std::fill(received_out.begin(), received_out.end(), std::uint64_t{0});
  for (std::size_t i = 0; i < l_ids_.size(); ++i) {
    if (decision_[i] != kNone) {
      received_out[l_ids_[i] / 64] |= std::uint64_t{1} << (l_ids_[i] % 64);
    }
  }
  FCR_ENSURE_ARG(first_colocated_ == kNone,
                 "signal at zero distance is undefined (colocated nodes)");
}

void BatchResolver::run_round(const Deployment& dep, bool want_sender) {
  const std::size_t nl = l_ids_.size();
  stats_ = Stats{};
  stats_.listeners = nl;
  decision_.assign(nl, kNone);
  first_colocated_ = kNone;
  want_sender_ = want_sender;
  const std::vector<Vec2>& positions = dep.positions();
  for (const std::vector<NodeId>* ids : {&tx_ids_, &l_ids_}) {
    for (const NodeId id : *ids) {
      FCR_ENSURE_ARG(id < positions.size(), "node id out of range: " << id);
    }
  }
  if (tx_ids_.empty() || nl == 0) return;
  pos_ = positions;
  build_grid();

  // Screening terms take eight lanes, exact signals one double.
  const double p = channel_.params().power;
  const auto two = [p](auto x) { return p / x; };
  const auto four = [p](auto x) { return p / (x * x); };
  const auto six = [p](auto x) { return p / (x * x * x); };
  switch (channel_.alpha_kind()) {
    case AlphaKind::kTwo:
      run_stages(Kernel{two, two, kEpsReassoc});
      break;
    case AlphaKind::kThree:
      run_stages(Kernel{[p](Lanes x) {
                          const Lanes y = fast_rsqrt(x);
                          return p * (y * y * y);
                        },
                        [p](double x) { return p / (x * std::sqrt(x)); },
                        kEpsRsqrt});
      break;
    case AlphaKind::kFour:
      run_stages(Kernel{four, four, kEpsReassoc});
      break;
    case AlphaKind::kSix:
      run_stages(Kernel{six, six, kEpsReassoc});
      break;
    case AlphaKind::kGeneric: {
      const double e = -0.5 * channel_.params().alpha;
      const auto exact = [p, e](double x) { return p * std::pow(x, e); };
      run_stages(Kernel{[exact](Lanes x) {
                          Lanes r;
                          for (std::size_t k = 0; k < kLanes; ++k) {
                            r[k] = exact(x[k]);
                          }
                          return r;
                        },
                        exact, kEpsReassoc});
      break;
    }
  }
  // The reference stops at its first colocated listener: later ones stay
  // silent, whatever order the stages visited them in.
  for (std::size_t i = first_colocated_; i < nl; ++i) decision_[i] = kNone;
  pos_ = {};
}

void BatchResolver::build_grid() {
  const std::size_t t = tx_ids_.size();
  double x0 = pos_[tx_ids_[0]].x, x1 = x0, y0 = pos_[tx_ids_[0]].y, y1 = y0;
  for (const NodeId id : tx_ids_) {
    x0 = std::min(x0, pos_[id].x);
    x1 = std::max(x1, pos_[id].x);
    y0 = std::min(y0, pos_[id].y);
    y1 = std::max(y1, pos_[id].y);
  }
  // About kPerCell transmitters per cell, cells roughly square; a box
  // thinner than one cell becomes a single row (or column).
  const double w = x1 - x0, h = y1 - y0;
  const std::size_t cells = std::max<std::size_t>(1, t / kPerCell);
  const auto c = static_cast<double>(cells);
  gx_ = gy_ = 1;
  if (cells > 1 && (w > 0.0 || h > 0.0)) {
    if (!(h * c > w)) {
      gx_ = cells;
    } else if (!(w * c > h)) {
      gy_ = cells;
    } else {
      gx_ = std::clamp<std::size_t>(
          static_cast<std::size_t>(std::lround(std::sqrt(c * w / h))), 1,
          cells);
      gy_ = std::max<std::size_t>(1, cells / gx_);
    }
  }
  // A grid no wider than the 3x3 near block leaves no far field worth
  // bounding: its near blocks are (nearly) the whole round, so the 1x1
  // grid — one sweep over every transmitter — does the same work once.
  if (gx_ <= 3 && gy_ <= 3) gx_ = gy_ = 1;
  min_x_ = x0;
  min_y_ = y0;
  inv_hx_ = gx_ > 1 ? static_cast<double>(gx_) / w : 0.0;
  inv_hy_ = gy_ > 1 ? static_cast<double>(gy_) / h : 0.0;
  const std::size_t nc = gx_ * gy_;
  // Clamped into the grid: listeners outside the box land in edge cells.
  const auto cell_of = [this](Vec2 p) {
    return axis_cell((p.y - min_y_) * inv_hy_, gy_) * gx_ +
           axis_cell((p.x - min_x_) * inv_hx_, gx_);
  };
  // Stable counting sort by cell id: deterministic, and members within a
  // cell stay in ascending index order.
  const auto sort_by_cell = [&](const std::vector<NodeId>& ids,
                                std::vector<Index>& off,
                                std::vector<Index>& order) {
    off.assign(nc + 1, 0);
    for (const NodeId id : ids) ++off[cell_of(pos_[id]) + 1];
    for (std::size_t k = 0; k < nc; ++k) off[k + 1] += off[k];
    cursor_.assign(off.begin(), off.end() - 1);
    order.resize(ids.size());
    for (std::size_t j = 0; j < ids.size(); ++j) {
      order[cursor_[cell_of(pos_[ids[j]])]++] = static_cast<Index>(j);
    }
  };
  sort_by_cell(tx_ids_, t_off_, s_idx_);
  sort_by_cell(l_ids_, l_off_, l_order_);
  s_x_.resize(t);
  s_y_.resize(t);
  for (std::size_t k = 0; k < t; ++k) {
    s_x_[k] = pos_[tx_ids_[s_idx_[k]]].x;
    s_y_[k] = pos_[tx_ids_[s_idx_[k]]].y;
  }

  // Occupied transmitter cells with their count and tight box: the
  // regions the far interval is summed over. Padded to whole lanes with
  // empty cells at infinity, which contribute exactly nothing.
  occ_ix_.clear();
  occ_iy_.clear();
  occ_n_.clear();
  occ_x0_.clear();
  occ_x1_.clear();
  occ_y0_.clear();
  occ_y1_.clear();
  const auto add_cell = [this](double ix, double iy, double n, double lx,
                               double hx, double ly, double hy) {
    occ_ix_.push_back(ix);
    occ_iy_.push_back(iy);
    occ_n_.push_back(n);
    occ_x0_.push_back(lx);
    occ_x1_.push_back(hx);
    occ_y0_.push_back(ly);
    occ_y1_.push_back(hy);
  };
  for (std::size_t k = 0; k < nc; ++k) {
    const double* bx = s_x_.data() + t_off_[k];
    const double* by = s_y_.data() + t_off_[k];
    const std::size_t m = t_off_[k + 1] - t_off_[k];
    if (m == 0) continue;
    add_cell(static_cast<double>(k % gx_), static_cast<double>(k / gx_),
             static_cast<double>(m), *std::min_element(bx, bx + m),
             *std::max_element(bx, bx + m), *std::min_element(by, by + m),
             *std::max_element(by, by + m));
  }
  while (occ_n_.size() % kLanes != 0) {
    add_cell(-kInf, -kInf, 0.0, kInf, kInf, kInf, kInf);
  }
}

template <typename K>
void BatchResolver::run_stages(const K& kernel) {
  // Fallback order: the cell certificate, the sweep certificate over every
  // transmitter, the canonical exact scan.
  sweep_q_.clear();
  exact_q_.clear();
  for (std::size_t c = 0; c + 1 < l_off_.size(); ++c) {
    if (l_off_[c] < l_off_[c + 1]) cell_stage(kernel, c);
  }
  for (std::size_t k = 0; k < sweep_q_.size(); k += kLanes) {
    certify_block(kernel, &sweep_q_[k], std::min(kLanes, sweep_q_.size() - k),
                  s_x_.data(), s_y_.data(), s_idx_.data(), s_x_.size(),
                  Far{0.0, 0.0, kInf}, stats_.sweep_certified, exact_q_);
  }
  for (const Index i : exact_q_) exact_scan(i);
}

template <typename K>
void BatchResolver::cell_stage(const K& kernel, std::size_t c) {
  const std::size_t lb = l_off_[c], le = l_off_[c + 1];
  const std::size_t lix = c % gx_, liy = c / gx_;

  // Near block: the 3x3 cells around this one; each row of it is one
  // contiguous run of the cell-sorted transmitter arrays.
  n_x_.clear();
  n_y_.clear();
  n_idx_.clear();
  const std::size_t cx0 = lix > 0 ? lix - 1 : 0;
  const std::size_t cx1 = std::min(lix + 1, gx_ - 1);
  const std::size_t cy1 = std::min(liy + 1, gy_ - 1);
  for (std::size_t iy = liy > 0 ? liy - 1 : 0; iy <= cy1; ++iy) {
    for (std::size_t k = t_off_[iy * gx_ + cx0];
         k < t_off_[iy * gx_ + cx1 + 1]; ++k) {
      n_x_.push_back(s_x_[k]);
      n_y_.push_back(s_y_[k]);
      n_idx_.push_back(s_idx_[k]);
    }
  }

  // Far interval, the annulus bound region by region: every occupied
  // cell outside ring 1 holds occ_n transmitters whose squared distance
  // to any listener of this cell lies in [dmin, dmax], computed from the
  // two tight boxes with the same rounded operations as the listener's
  // own d2 — so, by monotone rounding, every far d2 the reference
  // computes is >= dmin (far.d2 is the least of them) and each far
  // signal lies in [signal(dmax), signal(dmin)].
  double bx0 = kInf, bx1 = -kInf, by0 = kInf, by1 = -kInf;
  for (std::size_t k = lb; k < le; ++k) {
    const Vec2 v = pos_[l_ids_[l_order_[k]]];
    bx0 = std::min(bx0, v.x);
    bx1 = std::max(bx1, v.x);
    by0 = std::min(by0, v.y);
    by1 = std::max(by1, v.y);
  }
  // Lane-blocked so it vectorizes; near cells and padding add nothing.
  const auto fx = static_cast<double>(lix), fy = static_cast<double>(liy);
  double lo[kLanes] = {}, hi[kLanes] = {}, fd[kLanes];
  for (std::size_t k = 0; k < kLanes; ++k) fd[k] = kInf;
  for (std::size_t o0 = 0; o0 < occ_n_.size(); o0 += kLanes) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      const std::size_t o = o0 + k;
      const bool near = std::fabs(occ_ix_[o] - fx) <= 1.0 &&
                        std::fabs(occ_iy_[o] - fy) <= 1.0;
      const double dx =
          std::max(std::max(occ_x0_[o] - bx1, bx0 - occ_x1_[o]), 0.0);
      const double dy =
          std::max(std::max(occ_y0_[o] - by1, by0 - occ_y1_[o]), 0.0);
      const double ex = std::max(occ_x1_[o] - bx0, bx1 - occ_x0_[o]);
      const double ey = std::max(occ_y1_[o] - by0, by1 - occ_y0_[o]);
      const double dmin = dx * dx + dy * dy;
      // Bounds only (slack kEpsReassoc), summed in a fixed cell order.
      // FCRLINT_ALLOW(fp-accumulate): far-field interval, not decisive.
      lo[k] += near ? 0.0 : occ_n_[o] * kernel.exact(ex * ex + ey * ey);
      // FCRLINT_ALLOW(fp-accumulate): upper end of the same interval.
      hi[k] += near ? 0.0 : occ_n_[o] * kernel.exact(dmin);
      fd[k] = near || !(dmin < fd[k]) ? fd[k] : dmin;
    }
  }
  Far far{0.0, 0.0, kInf};
  for (std::size_t k = 0; k < kLanes; ++k) {
    // FCRLINT_ALLOW(fp-accumulate): lane fold of the far interval.
    far.lo += lo[k];
    // FCRLINT_ALLOW(fp-accumulate): lane fold of the far interval.
    far.hi += hi[k];
    far.d2 = std::min(far.d2, fd[k]);
  }

  // A near block holding every transmitter IS the full sweep, so its
  // undecided listeners skip straight to the exact scan.
  std::vector<Index>& to = n_x_.size() == s_x_.size() ? exact_q_ : sweep_q_;
  for (std::size_t k = lb; k < le; k += kLanes) {
    certify_block(kernel, &l_order_[k], std::min(kLanes, le - k), n_x_.data(),
                  n_y_.data(), n_idx_.data(), n_x_.size(), far,
                  stats_.cell_certified, to);
  }
}

template <typename K>
void BatchResolver::certify_block(const K& kernel, const Index* ids,
                                  std::size_t lanes, const double* xs,
                                  const double* ys, const Index* idx,
                                  std::size_t count, const Far& far,
                                  std::size_t& decided,
                                  std::vector<Index>& next) {
  // A ragged block repeats its last listener in the spare lanes.
  Lanes lx, ly, mm, s;
  for (std::size_t k = 0; k < kLanes; ++k) {
    const Vec2 v = pos_[l_ids_[ids[k < lanes ? k : lanes - 1]]];
    lx[k] = v.x;
    ly[k] = v.y;
  }
  pass_block(xs, ys, count, lx, ly, kernel.term, mm, s);

  // sbest is the EXACT canonical signal of the nearest transmitter, which
  // is in the swept set because it beats every far cell strictly. s
  // approximates the swept power with per-term relative error <= eps, so
  // the exact interference lies in [ilow, ihigh]; a decision is accepted
  // only if it holds at BOTH ends. Branch-free over the lanes: a lane
  // failing a guard (subnormal or non-finite values, nearest not strictly
  // inside) is simply not sure.
  const SinrParams& prm = channel_.params();
  bool rec[kLanes], sure[kLanes];
  for (std::size_t k = 0; k < kLanes; ++k) {
    const double sbest = kernel.exact(mm[k]);
    const double itilde = s[k] - sbest;
    const double margin = kernel.eps * (s[k] + sbest) + kEpsReassoc * far.hi;
    const double ihigh = (itilde > 0.0 ? itilde : 0.0) + far.hi + margin;
    const double ilow_raw = itilde + far.lo - margin;
    const double ilow = ilow_raw > 0.0 ? ilow_raw : 0.0;
    const bool ok = (mm[k] >= kMinNormalD2) & (mm[k] < far.d2) &
                    (std::fabs(s[k]) < kInf) & (sbest < kInf) &
                    (far.hi < kInf);
    rec[k] = ok & (sbest >= prm.beta * (prm.noise + ihigh));
    sure[k] = rec[k] | (ok & (sbest < prm.beta * (prm.noise + ilow)));
  }
  for (std::size_t k = 0; k < lanes; ++k) {
    const Index i = ids[k];
    if (!(mm[k] > 0.0)) {
      first_colocated_ = std::min(first_colocated_, i);
    } else if (!sure[k]) {
      next.push_back(i);
    } else {
      ++decided;
      if (rec[k]) {
        decision_[i] =
            want_sender_ ? first_at(xs, ys, idx, count, lx[k], ly[k], mm[k])
                         : 0;
      }
    }
  }
}

void BatchResolver::exact_scan(Index i) {
  // The canonical scan of channel.cpp: the same contraction-free d2
  // expression over every transmitter in index order, first index on
  // ties, pairwise-summed interference, decodes().
  const std::size_t t = tx_ids_.size();
  const Vec2 v = pos_[l_ids_[i]];
  d2_.resize(t);
  for (std::size_t j = 0; j < t; ++j) {
    const double dx = pos_[tx_ids_[j]].x - v.x;
    const double dy = pos_[tx_ids_[j]].y - v.y;
    d2_[j] = dx * dx + dy * dy;
  }
  double mm = 0.0;
  const std::size_t best = pass_argmin(d2_.data(), t, mm);
  if (!(mm > 0.0)) {
    first_colocated_ = std::min(first_colocated_, i);
    return;
  }
  ++stats_.exact;
  sig_.resize(t);
  for (std::size_t j = 0; j < t; ++j) {
    sig_[j] = channel_.signal_from_dist_sq(d2_[j]);
  }
  if (channel_.decodes(sig_[best],
                       pairwise_sum_excluding(sig_, best, scratch_))) {
    decision_[i] = static_cast<Index>(best);
  }
}

}  // namespace fcr
