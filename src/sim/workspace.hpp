// ExecutionWorkspace: all per-execution state of the round engine, owned in
// one reusable object so steady-state trials perform ZERO heap allocations.
//
// The engine used to pay the allocator per execution: one unique_ptr per
// node plus fresh transmitter/listener/feedback vectors. A workspace keeps
//   * a node SLAB — algorithms that implement Algorithm::node_layout() /
//     construct_node_at() get their per-node state machines placement-built
//     into one reused byte buffer (others fall back to make_node and still
//     work, they just keep allocating);
//   * the COLUMNAR arrays — algorithms exposing Algorithm::columnar() run
//     as structure-of-arrays passes over flat per-node columns (active
//     bitmask, probability, phase, aux, rng) instead of virtual dispatch;
//     the columns follow the same reserve-then-refill idiom as the round
//     buffers, so warm columnar runs also allocate zero bytes;
//   * the round buffers (transmitters, listeners, listener feedback), which
//     only ever shrink-to-reuse via clear()/assign();
//   * a per-worker FACTORY CACHE keyed by (trial batch, deployment
//     generation): run_trials_parallel's factories are pure functions of
//     the deployment, so when consecutive trials on a worker see the same
//     position buffer (Deployment::generation()), the channel adapter — and
//     with it the BatchResolver's cached grid and scratch — and the
//     algorithm are rebuilt once per worker instead of once per trial.
//
// Reset discipline (checked by fcrlint's workspace-reset rule): every
// container reused across runs is clear()ed/assign()ed at the start of the
// scope that refills it; slab nodes are destroyed (reverse order) by a
// guard as soon as the run ends, so a workspace between runs holds only
// raw capacity, never live protocol state.
//
// One workspace serves one thread at a time (it is mutable scratch, like
// BatchResolver). for_current_thread() hands out a thread_local instance;
// a nested run_execution on the same thread transparently falls back to a
// stack-local workspace (see engine.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "deploy/deployment.hpp"
#include "sim/channel_adapter.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"
#include "util/rng_lanes.hpp"

namespace fcr {

class ExecutionWorkspace {
 public:
  /// Deployments below this size run the virtual path even when the
  /// algorithm supports columnar execution: the SoA loop pays a fixed
  /// per-round sweep over the bitmask words, which only wins once enough
  /// nodes amortize it. Both paths are bit-identical, so the constant only
  /// affects speed.
  static constexpr std::size_t kColumnarCutover = 32;

  /// Columnar deployments below this size keep the scalar decide kernels:
  /// the lane route pays per-run setup (seeding W-blocked streams for every
  /// node) plus per-round whole-block sweeps, which needs at least a
  /// bitmask word of nodes to win. Lane and scalar kernels are
  /// bit-identical (tests/test_lane_identity.cpp), so the constant only
  /// affects speed.
  static constexpr std::size_t kLaneCutover = 64;

  ExecutionWorkspace() = default;
  ~ExecutionWorkspace();

  ExecutionWorkspace(const ExecutionWorkspace&) = delete;
  ExecutionWorkspace& operator=(const ExecutionWorkspace&) = delete;

  /// Runs one execution, bit-identical to the historical run_execution()
  /// for the same arguments: same node construction order and rng.split
  /// tags, same feedback delivery, same observer views.
  RunResult run(const Deployment& dep, const Algorithm& algorithm,
                const ChannelAdapter& channel, const EngineConfig& config,
                Rng rng, const RoundObserver& observer = {});

  /// True while a run() on this workspace is in progress (used to detect
  /// reentrant executions, e.g. an observer starting a nested run).
  bool busy() const { return busy_; }

  /// Factory products cached across the trials one worker executes within
  /// one run_trials_parallel call. `batch` identifies the call (factories
  /// may differ between calls even on identical deployments); `generation`
  /// identifies the deployment's position buffer. Valid only when both
  /// match and the pointers are non-null.
  struct FactoryCache {
    std::uint64_t batch = 0;
    std::uint64_t generation = 0;
    std::unique_ptr<ChannelAdapter> channel;
    std::unique_ptr<Algorithm> algorithm;
  };
  FactoryCache& factory_cache() { return cache_; }

  /// The calling thread's workspace (created on first use, reused for the
  /// thread's lifetime). Pool workers are persistent, so per-worker state
  /// pinned here amortizes across every batch the worker ever runs.
  static ExecutionWorkspace& for_current_thread();

 private:
  friend struct NodeTeardownGuard;

  /// Builds the per-node state machines for this run: placement-new into
  /// the slab when the algorithm publishes a layout, heap fallback
  /// otherwise. Either way nodes_[id] is the node for id.
  void prepare_nodes(const Algorithm& algorithm, Rng& rng, std::size_t n);

  /// Builds the columnar state for this run: seeds the per-node rng column
  /// with rng.split(id) in id order (the exact lineage prepare_nodes hands
  /// to make_node), sets every node active, zeroes the other columns, and
  /// lets the algorithm fill what it uses via columnar_init. With
  /// `use_lanes` the lane generator is seeded from the same root with the
  /// same split(id) lineage, so lane draws continue the identical streams.
  void prepare_columns(const ColumnarAlgorithm& columnar, Rng& rng,
                       std::size_t n, bool use_lanes);

  /// The round loop proper: nodes are already prepared, teardown is the
  /// caller's guard. Split out of run() so the workspace acquire/teardown
  /// failpoints bracket the guarded region exactly.
  RunResult run_rounds(const Deployment& dep, const Algorithm& algorithm,
                       const ChannelAdapter& channel, const EngineConfig& config,
                       const RoundObserver& observer, std::size_t n);

  /// Columnar round loop: decide-all -> resolve -> apply-feedback-all over
  /// the flat columns, bit-identical to run_rounds for the same arguments.
  /// Unobserved runs on channels that resolve listeners independently skip
  /// feedback for knocked-out listeners (their feedback is unobservable
  /// and cannot change state — deactivation is terminal).
  RunResult run_rounds_columnar(const Deployment& dep,
                                const Algorithm& algorithm,
                                const ColumnarAlgorithm& columnar,
                                const ChannelAdapter& channel,
                                const EngineConfig& config,
                                const RoundObserver& observer, bool use_lanes,
                                std::size_t n);

  /// Bitmask round loop for unobserved runs whose feedback needs can be
  /// served without materializing listener id vectors or Feedback records:
  /// decide (lane or scalar) -> popcount/solo-check the decision words ->
  /// ChannelAdapter::resolve_mask into the received bitmask ->
  /// columnar_feedback_mask. Requires a channel that resolves listeners
  /// independently and an algorithm whose feedback_mode() is kNone or
  /// kReceivedMask (with adapter mask support); bit-identical outcomes to
  /// run_rounds_columnar — the only skipped work (resolution after the
  /// stopping round, empty-transmitter rounds, per-listener records) is
  /// unobservable once the run returns.
  RunResult run_rounds_mask(const Deployment& dep, const Algorithm& algorithm,
                            const ColumnarAlgorithm& columnar,
                            const ChannelAdapter& channel,
                            const EngineConfig& config, bool use_lanes,
                            std::size_t n);

  /// Round epilogue shared by both loops: solo detection, history
  /// recording, observer / stop_when delivery. Returns true when the run
  /// should end after this round.
  bool finish_round(const RoundView& view, std::size_t receptions,
                    const EngineConfig& config, const RoundObserver& observer,
                    RunResult& result);

  /// Destroys slab nodes in reverse construction order and releases heap
  /// fallback nodes. Safe on partially constructed state.
  void destroy_nodes();

  // Node storage. slab_ holds constructed_ live nodes at stride_ spacing;
  // heap_nodes_ owns the fallback path's nodes. nodes_ is the id-indexed
  // view over whichever path built this run.
  std::unique_ptr<std::byte[]> slab_;
  std::size_t slab_bytes_ = 0;
  std::size_t constructed_ = 0;
  std::vector<NodeProtocol*> nodes_;
  std::vector<std::unique_ptr<NodeProtocol>> heap_nodes_;

  // Round buffers, reused across rounds and runs.
  std::vector<NodeId> transmitters_;
  std::vector<NodeId> listeners_;
  std::vector<Feedback> listener_feedback_;

  // Columnar (SoA) engine state: flat per-node columns plus the active and
  // per-round decision bitmasks (word w covers ids [64w, 64w + 64)). Sized
  // by assign() per run, so warm runs reuse capacity allocation-free;
  // columns_ is the span view handed to the algorithm.
  std::vector<std::uint64_t> col_active_;
  std::vector<std::uint64_t> col_decisions_;
  std::vector<double> col_probability_;
  std::vector<std::uint32_t> col_phase_;
  std::vector<std::uint64_t> col_aux_;
  std::vector<Rng> col_rng_;
  ColumnarState columns_;

  // Bitmask round-loop scratch (listener and received masks, decision-word
  // layout) and the W-blocked lane streams backing the SIMD decide kernels.
  std::vector<std::uint64_t> col_listen_;
  std::vector<std::uint64_t> col_received_;
  LaneRng lanes_;

  FactoryCache cache_;
  bool busy_ = false;
};

}  // namespace fcr
