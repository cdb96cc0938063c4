// Adversarial differential suite for BatchResolver. Random geometry almost
// never reaches the branches the bit-identity claim depends on, so these
// cases build them on purpose: listeners placed at SINR = beta*(1 +- 2^-k),
// degenerate round sizes and masks, transmitters packed into one cell,
// listeners outside the transmitters' box, exponential chains up to
// R = 2^40, exact distance ties, and colocated listeners. Every round runs
// through BOTH entry points (id-vector resolve and resolve_mask) and is
// compared with SinrChannel::resolve and resolve_exhaustive, for each
// alpha in {2, 2.5, 3, 4, 6}; the Stats counts show that the cell
// certificate, the sweep certificate and the exact scan all decide
// listeners here.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "deploy/generators.hpp"
#include "sinr/accumulate.hpp"
#include "sinr/batch.hpp"
#include "sinr/channel.hpp"
#include "util/rng.hpp"

namespace fcr {
namespace {

constexpr double kAlphas[] = {2.0, 2.5, 3.0, 4.0, 6.0};

/// resolve_exhaustive is O(T^2 L); skip it above this many pair checks.
constexpr std::size_t kExhaustiveBudget = std::size_t{1} << 22;

struct Totals {
  std::size_t cell = 0, sweep = 0, exact = 0;
  void add(const BatchResolver::Stats& s) {
    cell += s.cell_certified;
    sweep += s.sweep_certified;
    exact += s.exact;
  }
};

std::vector<std::uint64_t> to_words(const std::vector<NodeId>& ids,
                                    std::size_t n) {
  std::vector<std::uint64_t> words((n + 63) / 64, 0);
  for (const NodeId id : ids) words[id / 64] |= std::uint64_t{1} << (id % 64);
  return words;
}

SinrParams params_for(double alpha, const Deployment& dep,
                      double beta = 1.5) {
  const double link = dep.max_link() > 0.0 ? dep.max_link() : 1.0;
  return SinrParams::for_longest_link(alpha, beta, 1e-9, link);
}

/// One round through both resolver entry points, compared with the
/// reference scan (senders), the exhaustive reference (senders, when
/// affordable), and through the mask path (bits).
void check_round(const SinrParams& params, const Deployment& dep,
                 const std::vector<NodeId>& tx,
                 const std::vector<NodeId>& listeners, Totals& totals,
                 const std::string& label) {
  const SinrChannel channel(params);
  BatchResolver resolver(params);
  const auto ref = channel.resolve(dep, tx, listeners);
  std::vector<Reception> got;
  resolver.resolve(dep, tx, listeners, got);
  ASSERT_EQ(got.size(), ref.size()) << label;
  const auto& st = resolver.last_stats();
  EXPECT_EQ(st.listeners, listeners.size()) << label;
  EXPECT_EQ(st.cell_certified + st.sweep_certified + st.exact,
            tx.empty() ? 0 : listeners.size())
      << label;
  totals.add(st);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].sender, ref[i].sender)
        << label << " listener " << listeners[i];
  }
  if (tx.size() * tx.size() * listeners.size() <= kExhaustiveBudget) {
    const auto exhaustive = channel.resolve_exhaustive(dep, tx, listeners);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(exhaustive[i].sender, ref[i].sender)
          << label << " exhaustive, listener " << listeners[i];
    }
  }
  // The mask path sees ascending ids, so its reference is the scan over
  // the ascending sets.
  std::vector<NodeId> stx = tx, sl = listeners;
  std::sort(stx.begin(), stx.end());
  std::sort(sl.begin(), sl.end());
  const auto sref = channel.resolve(dep, stx, sl);
  const auto tw = to_words(stx, dep.size());
  const auto lw = to_words(sl, dep.size());
  std::vector<std::uint64_t> received(lw.size(), ~std::uint64_t{0});
  resolver.resolve_mask(dep, tw, lw, received);
  totals.add(resolver.last_stats());
  std::size_t bits = 0;
  for (std::size_t i = 0; i < sref.size(); ++i) {
    const NodeId id = sl[i];
    const bool bit = ((received[id / 64] >> (id % 64)) & 1u) != 0;
    EXPECT_EQ(bit, sref[i].received()) << label << " mask, listener " << id;
    bits += bit ? 1 : 0;
  }
  std::size_t set = 0;
  for (const std::uint64_t w : received) set += static_cast<std::size_t>(std::popcount(w));
  EXPECT_EQ(set, bits) << label << " mask sets bits outside the listeners";
}

TEST(AdversarialResolve, NearThresholdListeners) {
  // One listener per round sits at SINR = beta*(1 + sign*2^-k): the
  // interference from 150 uniform interferers is computed first, then the
  // sender is placed at the distance that solves P*d^-alpha =
  // beta*(1 + sign*2^-k)*(N + I). 12 bystanders fill out the round.
  for (const double alpha : kAlphas) {
    Totals totals;
    for (int k = 1; k <= 40; ++k) {
      for (const int sign : {1, -1}) {
        Rng rng(7000 + static_cast<std::uint64_t>(alpha * 10.0) * 100 +
                static_cast<std::uint64_t>(k * 2 + (sign > 0 ? 1 : 0)));
        std::vector<Vec2> pos;
        for (int j = 0; j < 150; ++j) {
          pos.push_back({rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)});
        }
        const Vec2 v{rng.uniform(15.0, 25.0), rng.uniform(15.0, 25.0)};
        const SinrParams params = SinrParams::for_longest_link(
            alpha, 1.5, 1e-9, 40.0 * std::numbers::sqrt2);
        const SinrChannel channel(params);
        std::vector<double> terms;
        for (const Vec2& u : pos) {
          terms.push_back(channel.signal_from_dist_sq(dist_sq(u, v)));
        }
        const double interference = pairwise_sum(terms);
        const double delta = std::ldexp(1.0, -k);
        const double target =
            params.beta * (1.0 + sign * delta) * (params.noise + interference);
        const double d = std::pow(params.power / target, 1.0 / alpha);
        const double theta = rng.uniform(0.0, 2.0 * std::numbers::pi);
        pos.push_back({v.x + d * std::cos(theta), v.y + d * std::sin(theta)});
        pos.push_back(v);
        for (int j = 0; j < 12; ++j) {
          pos.push_back({rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)});
        }
        const Deployment dep(pos);
        std::vector<NodeId> tx, listeners;
        for (NodeId i = 0; i <= 150; ++i) tx.push_back(i);
        for (NodeId i = 151; i < dep.size(); ++i) listeners.push_back(i);

        // The listener really is on the intended side, close to beta.
        std::vector<NodeId> others(tx.begin(), tx.end() - 1);
        const double sinr = channel.sinr(dep, 150, 151, others);
        if (k >= 2) {
          EXPECT_EQ(sinr >= params.beta, sign > 0) << "k " << k;
          EXPECT_NEAR(sinr / params.beta, 1.0, 2.0 * delta) << "k " << k;
        }
        check_round(params, dep, tx, listeners, totals,
                    "alpha " + std::to_string(alpha) + " k " +
                        std::to_string(k) + " sign " + std::to_string(sign));
      }
    }
    EXPECT_GT(totals.cell, 0u) << "alpha " << alpha;
    EXPECT_GT(totals.exact, 0u) << "alpha " << alpha;
  }
}

TEST(AdversarialResolve, DegenerateSizesAndMasks) {
  for (const double alpha : kAlphas) {
    for (const NodeId n : {1u, 2u, 63u, 64u, 65u}) {
      Rng rng(300 + n);
      const Deployment dep =
          uniform_square(n, 2.0 * std::sqrt(static_cast<double>(n)) + 1.0,
                         rng);
      const SinrParams params = params_for(alpha, dep);
      Totals totals;
      // none transmit, all transmit, one transmits, a random third does.
      for (int mode = 0; mode < 4; ++mode) {
        std::vector<NodeId> tx, listeners;
        for (NodeId i = 0; i < n; ++i) {
          const bool t = mode == 1 || (mode == 2 && i == n / 2) ||
                         (mode == 3 && rng.bernoulli(0.3));
          (t ? tx : listeners).push_back(i);
        }
        check_round(params, dep, tx, listeners, totals,
                    "alpha " + std::to_string(alpha) + " n " +
                        std::to_string(n) + " mode " + std::to_string(mode));
      }
    }
  }
}

TEST(AdversarialResolve, TransmittersInOneCellAndListenersOutsideTheirBox) {
  for (const double alpha : kAlphas) {
    Totals totals;
    Rng rng(4242 + static_cast<std::uint64_t>(alpha * 10.0));
    // (a) 11 transmitters: a single grid cell, listeners all around it.
    // (b) 300 transmitters packed in a 4x4 square in the middle of a
    //     200x200 field, 300 listeners over the whole field — nearly all
    //     outside the transmitters' box, clamped into edge cells.
    for (const std::size_t t : {std::size_t{11}, std::size_t{300}}) {
      std::vector<Vec2> pos;
      for (std::size_t j = 0; j < t; ++j) {
        pos.push_back({rng.uniform(98.0, 102.0), rng.uniform(98.0, 102.0)});
      }
      for (int j = 0; j < 300; ++j) {
        pos.push_back({rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)});
      }
      const Deployment dep(pos);
      const SinrParams params = params_for(alpha, dep);
      std::vector<NodeId> tx, listeners;
      for (NodeId i = 0; i < dep.size(); ++i) {
        (i < t ? tx : listeners).push_back(i);
      }
      check_round(params, dep, tx, listeners, totals,
                  "alpha " + std::to_string(alpha) + " t " +
                      std::to_string(t));
    }
    EXPECT_GT(totals.sweep, 0u) << "alpha " << alpha;
  }
}

TEST(AdversarialResolve, NearestTransmitterJustOutsideTheNearBlock) {
  // 600 transmitters over a 99.5-wide box give a 10x10 grid of ~9.95-wide
  // cells. The listener at (15, 15) sits in cell (1, 1); its 3x3 near
  // block holds only B at (0.5, 0.5), 20.5 away, while A at (30.5, 15) —
  // two cells over, 15.5 away — is the nearest transmitter and, at
  // alpha = 6, decodes. The near block's best must not be mistaken for
  // the round's best.
  std::vector<Vec2> pos = {{0.5, 0.5}, {30.5, 15.0}, {100.0, 100.0}};
  Rng rng(6060);
  while (pos.size() < 600) {
    pos.push_back({rng.uniform(60.0, 100.0), rng.uniform(60.0, 100.0)});
  }
  pos.push_back({15.0, 15.0});
  for (int j = 0; j < 40; ++j) {
    pos.push_back({rng.uniform(0.0, 55.0), rng.uniform(0.0, 55.0)});
  }
  const Deployment dep(pos);
  const SinrParams params = params_for(6.0, dep);
  std::vector<NodeId> tx, listeners;
  for (NodeId i = 0; i < dep.size(); ++i) {
    (i < 600 ? tx : listeners).push_back(i);
  }
  const auto ref = SinrChannel(params).resolve(dep, tx, listeners);
  ASSERT_EQ(ref[0].sender, 1u) << "the constructed listener must decode A";
  Totals totals;
  check_round(params, dep, tx, listeners, totals, "nearest outside");
}

TEST(AdversarialResolve, ExponentialChainsUpToTwoToTheForty) {
  for (const double alpha : kAlphas) {
    for (const int log_r : {10, 20, 40}) {
      Totals totals;
      Rng rng(900 + static_cast<std::uint64_t>(log_r));
      const Deployment dep =
          exponential_chain(200, std::ldexp(1.0, log_r), rng);
      const SinrParams params = params_for(alpha, dep);
      for (int round = 0; round < 4; ++round) {
        std::vector<NodeId> tx, listeners;
        for (NodeId i = 0; i < dep.size(); ++i) {
          (rng.bernoulli(0.15 + 0.2 * round) ? tx : listeners).push_back(i);
        }
        check_round(params, dep, tx, listeners, totals,
                    "alpha " + std::to_string(alpha) + " R 2^" +
                        std::to_string(log_r) + " round " +
                        std::to_string(round));
      }
    }
  }
}

TEST(AdversarialResolve, TiesResolveToTheFirstTransmitterIndex) {
  // Transmitters on an integer lattice, listeners at cell centres (four
  // exactly equidistant transmitters) and edge midpoints (two); with
  // beta < 1 a tied nearest transmitter can decode, and the sender must be
  // the first of the tied ones in the caller's (shuffled) order.
  std::vector<Vec2> pos;
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) pos.push_back({1.0 * x, 1.0 * y});
  }
  for (int y = 0; y < 15; ++y) {
    for (int x = 0; x < 15; ++x) {
      pos.push_back({x + 0.5, y + 0.5});
      pos.push_back({x + 0.5, 1.0 * y});
    }
  }
  const Deployment dep(pos);
  Rng rng(31337);
  for (const double alpha : kAlphas) {
    const SinrParams params = params_for(alpha, dep, 0.05);
    std::vector<NodeId> tx, listeners;
    for (NodeId i = 0; i < 256; ++i) {
      if (rng.bernoulli(0.6)) tx.push_back(i);
    }
    for (NodeId i = 256; i < dep.size(); ++i) listeners.push_back(i);
    for (std::size_t i = tx.size(); i > 1; --i) {
      std::swap(tx[i - 1], tx[rng.uniform_int(i)]);
    }
    Totals totals;
    check_round(params, dep, tx, listeners, totals,
                "ties alpha " + std::to_string(alpha));
    const auto ref = SinrChannel(params).resolve(dep, tx, listeners);
    EXPECT_TRUE(std::any_of(ref.begin(), ref.end(),
                            [](const Reception& r) { return r.received(); }))
        << "no tied listener decodes; the case tests nothing";
  }
}

TEST(AdversarialResolve, ColocatedListenerThrowsAtTheReferenceListener) {
  // Ids in both sets are zero-distance links. The reference throws at the
  // first such listener in listener order; the resolver must throw too and
  // leave exactly the reference's partial answer: listeners before that
  // one resolved, the rest silent — on both entry points.
  Rng rng(8088);
  const Deployment dep = uniform_square(400, 40.0, rng);
  for (const double alpha : kAlphas) {
    const SinrParams params = params_for(alpha, dep);
    const SinrChannel channel(params);
    BatchResolver resolver(params);
    std::vector<NodeId> tx, listeners;
    for (NodeId i = 200; i < 400; ++i) tx.push_back(i);
    for (NodeId i = 0; i < 200; ++i) listeners.push_back(i);
    listeners.insert(listeners.begin() + 150, 300);
    listeners.push_back(250);

    std::size_t first = listeners.size();
    for (std::size_t m = 1; m <= listeners.size(); ++m) {
      const std::vector<NodeId> prefix(
          listeners.begin(), listeners.begin() + static_cast<std::ptrdiff_t>(m));
      try {
        (void)channel.resolve(dep, tx, prefix);
      } catch (const std::invalid_argument&) {
        first = m - 1;
        break;
      }
    }
    ASSERT_EQ(first, 150u);
    const std::vector<NodeId> before(
        listeners.begin(),
        listeners.begin() + static_cast<std::ptrdiff_t>(first));
    const auto ref = channel.resolve(dep, tx, before);

    std::vector<Reception> got;
    EXPECT_THROW(resolver.resolve(dep, tx, listeners, got),
                 std::invalid_argument);
    ASSERT_EQ(got.size(), listeners.size());
    for (std::size_t i = 0; i < listeners.size(); ++i) {
      EXPECT_EQ(got[i].sender, i < first ? ref[i].sender : kInvalidNode)
          << "alpha " << alpha << " listener " << i;
    }

    // Mask path: ascending listener order, so the first colocated
    // listener is id 250 — after every genuine listener, whose bits must
    // all match the reference.
    std::vector<NodeId> genuine(listeners.begin(), listeners.begin() + 150);
    genuine.insert(genuine.end(), listeners.begin() + 151,
                   listeners.end() - 1);
    const auto mask_ref = channel.resolve(dep, tx, genuine);
    const auto tw = to_words(tx, dep.size());
    const auto lw = to_words(listeners, dep.size());
    std::vector<std::uint64_t> received(lw.size(), 0);
    EXPECT_THROW(resolver.resolve_mask(dep, tw, lw, received),
                 std::invalid_argument);
    std::size_t set = 0;
    for (std::size_t i = 0; i < genuine.size(); ++i) {
      const NodeId id = genuine[i];
      const bool bit = ((received[id / 64] >> (id % 64)) & 1u) != 0;
      EXPECT_EQ(bit, mask_ref[i].received()) << "alpha " << alpha << " id " << id;
      set += bit ? 1 : 0;
    }
    for (const std::uint64_t w : received) set -= static_cast<std::size_t>(std::popcount(w));
    EXPECT_EQ(set, 0u);
  }
}

}  // namespace
}  // namespace fcr
