// Synchronous round engine.
//
// Runs one execution of an algorithm over a deployment and a channel model:
//   round r = 1, 2, ...:
//     1. every node picks Transmit/Listen (independent private randomness),
//     2. if exactly one node transmits, contention is RESOLVED (paper,
//        Section 2: "the problem is solved in the first round in which a
//        participating node transmits alone among all participating nodes"),
//     3. the channel resolves receptions for the listeners,
//     4. feedback is delivered to every node.
// Note the solved check precedes feedback delivery only logically — the
// engine still delivers the round's feedback before returning, so observers
// see a complete final round.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "deploy/deployment.hpp"
#include "sim/channel_adapter.hpp"
#include "sim/protocol.hpp"

namespace fcr {

struct RoundView;

/// Which round loop drives an execution. Both produce bit-identical
/// results for every supported algorithm (same rng.split(id) lineage, same
/// RunResult including the recorded history); the choice only affects
/// speed.
enum class ExecutionPath : std::uint8_t {
  kAuto = 0,      ///< columnar when the algorithm supports it and n is large
  kVirtual = 1,   ///< per-node virtual state machines (the historical engine)
  kColumnar = 2,  ///< force the columnar loop (algorithm must support it);
                  ///< lane kernels still engage automatically past the cutover
  kColumnarScalar = 3,  ///< columnar loop with the scalar decide kernels only
  kColumnarLanes = 4,   ///< force the SIMD lane kernels (testing; the kernel
                        ///< must be certified in sim/kernel_certificates.hpp)
};

/// Engine knobs.
struct EngineConfig {
  std::uint64_t max_rounds = 200000;  ///< give up after this many rounds
  bool record_rounds = false;         ///< keep per-round statistics
  bool stop_on_solve = true;          ///< false: keep running (for traces)
  ExecutionPath path = ExecutionPath::kAuto;  ///< round-loop selection
  /// Optional custom termination: evaluated after each round (after the
  /// observer); returning true ends the run with the solved state as-is.
  /// Used by analyses that run past the solo round, e.g. local leader
  /// election stopping once the knockout process quiesces.
  std::function<bool(const RoundView&)> stop_when;
};

/// Per-round observable statistics.
struct RoundStats {
  std::uint64_t round = 0;
  std::size_t transmitters = 0;
  std::size_t receptions = 0;   ///< listeners that decoded a message
  std::size_t contending = 0;   ///< nodes reporting is_contending() (post-round)
};

/// Outcome of one execution.
struct RunResult {
  bool solved = false;
  std::uint64_t rounds = 0;          ///< 1-based solving round; max_rounds if unsolved
  NodeId winner = kInvalidNode;      ///< the solo transmitter when solved
  std::vector<RoundStats> history;   ///< filled when record_rounds
};

/// Read-only view of one round handed to observers. Exactly one of the two
/// state representations is populated, depending on the execution path:
/// `nodes` on the virtual path, `active_bits` on the columnar path. Probe
/// contention through size()/is_contending()/contending_count(), which
/// work identically on both.
struct RoundView {
  std::uint64_t round = 0;
  std::span<const NodeId> transmitters;
  std::span<const NodeId> listeners;
  std::span<const Feedback> listener_feedback;
  /// Virtual path: protocol objects indexed by NodeId, for state probes.
  /// Non-owning: the engine's workspace owns the nodes (slab or heap).
  /// Empty on the columnar path.
  std::span<NodeProtocol* const> nodes;
  /// Columnar path: active bitmask words (bit id = node id contending) and
  /// its maintained popcount. Empty / 0 on the virtual path.
  std::span<const std::uint64_t> active_bits;
  std::size_t active_count = 0;
  /// Deployment size (both paths).
  std::size_t node_count = 0;

  std::size_t size() const { return node_count; }

  bool is_contending(NodeId id) const {
    if (!nodes.empty()) return nodes[id]->is_contending();
    return ((active_bits[id >> 6] >> (id & 63)) & 1ULL) != 0;
  }

  /// Number of nodes still contending. O(1) on the columnar path (the
  /// engine maintains the count as knockouts clear bits); n virtual probes
  /// on the virtual path.
  std::size_t contending_count() const {
    if (nodes.empty()) return active_count;
    std::size_t count = 0;
    for (const NodeProtocol* node : nodes) {
      if (node->is_contending()) ++count;
    }
    return count;
  }
};

/// Observer invoked after every completed round (post feedback delivery).
using RoundObserver = std::function<void(const RoundView&)>;

/// Runs one execution. `rng` seeds each node's private stream via split().
/// Runs on the calling thread's ExecutionWorkspace (sim/workspace.hpp), so
/// repeated executions on one thread reuse node storage and round buffers;
/// results are bit-identical to a fresh engine.
RunResult run_execution(const Deployment& dep, const Algorithm& algorithm,
                        const ChannelAdapter& channel, const EngineConfig& config,
                        Rng rng, const RoundObserver& observer = {});

}  // namespace fcr
