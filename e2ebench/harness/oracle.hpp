// Reference channel for checking production outcomes.
//
// The oracle adapter resolves rounds with the library's reference model --
// SinrChannel::resolve (the allocating single-pass scan every resolver is
// proven bit-identical to), or for the radio channel RadioChannel's
// observe / decoded_sender -- and advertises neither mask support nor
// listener independence, so the engine drives it through its id-vector
// path over every listener. A production trial and its oracle re-run share
// deployment, algorithm and run stream; the paper's outcome (solved,
// rounds, winner) must agree exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace e2e {

struct Outcome {
  bool solved = false;
  std::uint64_t rounds = 0;
  fcr::NodeId winner = fcr::kInvalidNode;

  bool operator==(const Outcome&) const = default;
};

inline Outcome outcome_of(const fcr::RunResult& r) {
  return Outcome{r.solved, r.rounds, r.winner};
}

/// Near-threshold census gathered by an oracle SINR adapter: for each
/// resolved listener, the SINR of its strongest transmitter computed with
/// SinrChannel::sinr, and whether it lies within kNearMargin (relative)
/// of beta.
struct NearThreshold {
  static constexpr double kNearMargin = 1e-3;
  std::uint64_t listeners = 0;
  std::uint64_t near = 0;
};

/// Builds the oracle counterpart of a production SinrChannelAdapter or
/// RadioChannelAdapter. The SINR parameters (or the collision-detection
/// flag) are read from it, so both sides see the same channel. Throws
/// std::invalid_argument for any other adapter. When `census` is non-null,
/// SINR rounds also feed the near-threshold census (slow; untimed use
/// only).
std::unique_ptr<fcr::ChannelAdapter> make_oracle_adapter(
    const fcr::ChannelAdapter& production, NearThreshold* census = nullptr);

/// FNV-1a digest over a sequence of outcomes, for run-to-run comparison.
std::uint64_t outcome_digest(const std::vector<Outcome>& outcomes);

}  // namespace e2e
