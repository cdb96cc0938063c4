// BatchResolver equivalence suite: the batched hot path must return
// BIT-IDENTICAL Reception vectors to SinrChannel::resolve across path-loss
// exponents (closed forms and the generic pow path), deployment shapes,
// and repeated scratch-reusing calls. Adversarial inputs (near-threshold
// listeners, degenerate sizes and geometries) live in
// test_resolve_adversarial.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "deploy/generators.hpp"
#include "sinr/batch.hpp"
#include "sinr/channel.hpp"
#include "util/rng.hpp"

namespace fcr {
namespace {

Deployment shaped_deployment(int shape, std::size_t n, Rng& rng) {
  switch (shape % 3) {
    case 0:
      return uniform_square(n, 2.0 * std::sqrt(static_cast<double>(n)), rng)
          .normalized();
    case 1:
      return two_clusters(n, 300.0, 5.0, rng).normalized();
    default:
      return exponential_chain(n, 4096.0, rng).normalized();
  }
}

void split_nodes(const Deployment& dep, double p, Rng& rng,
                 std::vector<NodeId>& tx, std::vector<NodeId>& listeners) {
  tx.clear();
  listeners.clear();
  for (NodeId i = 0; i < dep.size(); ++i) {
    (rng.bernoulli(p) ? tx : listeners).push_back(i);
  }
}

TEST(BatchResolve, BitIdenticalAcrossAlphasAndShapes) {
  // alpha 2.5 exercises the generic-pow screening terms; 3 the rsqrt
  // terms; 2/4/6 the exact closed-form terms.
  for (const double alpha : {2.0, 2.5, 3.0, 4.0, 6.0}) {
    Rng rng(1000 + static_cast<std::uint64_t>(alpha * 10.0));
    for (int shape = 0; shape < 6; ++shape) {
      Rng trial_rng = rng.split(static_cast<std::uint64_t>(shape));
      const Deployment dep = shaped_deployment(shape, 240, trial_rng);
      const SinrParams params =
          SinrParams::for_longest_link(alpha, 1.5, 1e-9, dep.max_link());
      const SinrChannel channel(params);
      BatchResolver resolver(params);

      std::vector<NodeId> tx, listeners;
      split_nodes(dep, 0.3, trial_rng, tx, listeners);

      const auto reference = channel.resolve(dep, tx, listeners);
      const auto batched = resolver.resolve(dep, tx, listeners);
      ASSERT_EQ(batched.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(batched[i].sender, reference[i].sender)
            << "alpha " << alpha << " shape " << shape << " listener " << i;
      }
      const auto& stats = resolver.last_stats();
      EXPECT_EQ(stats.cell_certified + stats.sweep_certified + stats.exact,
                listeners.size());
    }
  }
}

TEST(BatchResolve, FilterCertifiesTheBulkOfListeners) {
  // The perf claim is hollow if everything falls back to the exact scan:
  // on a uniform workload with alpha = 3 the certificates must decide
  // nearly every listener (near-threshold listeners are rare).
  Rng rng(77);
  const Deployment dep = uniform_square(512, 2.0 * std::sqrt(512.0), rng)
                             .normalized();
  const SinrParams params =
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link());
  BatchResolver resolver(params);
  std::vector<NodeId> tx, listeners;
  split_nodes(dep, 0.2, rng, tx, listeners);
  (void)resolver.resolve(dep, tx, listeners);
  const auto& stats = resolver.last_stats();
  EXPECT_EQ(stats.listeners, listeners.size());
  const std::size_t certified = stats.cell_certified + stats.sweep_certified;
  EXPECT_GE(certified * 10, stats.listeners * 9)
      << "certified " << certified << " of " << stats.listeners;
  EXPECT_GT(stats.cell_certified, stats.sweep_certified);
}

TEST(BatchResolve, ScratchReuseAcrossRoundsStaysBitIdentical) {
  // One resolver across many rounds with shrinking transmitter sets (the
  // trial-engine usage pattern): every round must still match a fresh
  // reference resolution exactly.
  Rng rng(42);
  const Deployment dep =
      uniform_square(300, 2.0 * std::sqrt(300.0), rng).normalized();
  const SinrParams params =
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link());
  const SinrChannel channel(params);
  BatchResolver resolver(params);

  std::vector<NodeId> tx, listeners;
  std::vector<Reception> batched;
  for (int round = 0; round < 12; ++round) {
    split_nodes(dep, 0.35 / (1 + round % 4), rng, tx, listeners);
    if (tx.empty()) continue;
    resolver.resolve(dep, tx, listeners, batched);
    const auto reference = channel.resolve(dep, tx, listeners);
    ASSERT_EQ(batched.size(), reference.size()) << "round " << round;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(batched[i].sender, reference[i].sender)
          << "round " << round << " listener " << i;
    }
  }
}

TEST(BatchResolve, EmptyTransmittersResolveToSilence) {
  Rng rng(7);
  const Deployment dep = uniform_square(20, 6.0, rng).normalized();
  const SinrParams params =
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link());
  BatchResolver resolver(params);
  const std::vector<NodeId> none;
  const std::vector<NodeId> listeners = {0, 1, 2};
  const auto out = resolver.resolve(dep, none, listeners);
  ASSERT_EQ(out.size(), 3u);
  for (const Reception& r : out) EXPECT_FALSE(r.received());
}

TEST(BatchResolve, ColocatedListenerThrowsLikeTheReference) {
  // An id appearing as both transmitter and listener is a zero-distance
  // link; both paths must reject it the same way (the documented single
  // colocation behavior).
  Rng rng(8);
  const Deployment dep = uniform_square(40, 8.0, rng).normalized();
  const SinrParams params =
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link());
  const SinrChannel channel(params);
  BatchResolver resolver(params);
  std::vector<NodeId> tx, listeners;
  for (NodeId i = 0; i < 20; ++i) tx.push_back(i);
  for (NodeId i = 19; i < dep.size(); ++i) listeners.push_back(i);  // 19 overlaps
  EXPECT_THROW((void)channel.resolve(dep, tx, listeners),
               std::invalid_argument);
  EXPECT_THROW((void)resolver.resolve(dep, tx, listeners),
               std::invalid_argument);
}

TEST(BatchResolve, OptionValidation) {
  // The resolver has no tuning options; what it validates is its channel
  // parameters (at construction) and the mask word counts (per call).
  SinrParams bad;
  bad.alpha = 3.0;
  bad.beta = 0.0;
  EXPECT_THROW(BatchResolver{bad}, std::invalid_argument);
  Rng rng(9);
  const Deployment dep = uniform_square(20, 6.0, rng).normalized();
  BatchResolver resolver(
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link()));
  const std::vector<std::uint64_t> tx = {1}, listen = {2};
  std::vector<std::uint64_t> received(2, 0);
  EXPECT_THROW(resolver.resolve_mask(dep, tx, listen, received),
               std::invalid_argument);
}

}  // namespace
}  // namespace fcr
