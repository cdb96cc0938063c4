// The benchmark's workloads and the metrics one run of a workload yields.
//
// Every workload is generated from one seed and driven through the
// library's public entry points only: TrialExecutor / run_execution /
// CampaignRunner, the *_channel_factory and deployment generator
// functions, the algorithm registry, the ext wrappers, and
// LinkClassPartition. The engine path is always the default (kAuto).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/channel_adapter.hpp"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Wraps each production channel adapter (test hook: the self-test
/// installs a deliberately wrong adapter to prove the oracle catches it).
using ChannelDecorator = std::function<std::unique_ptr<fcr::ChannelAdapter>(
    std::unique_ptr<fcr::ChannelAdapter>)>;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the campaign checkpoint (created if missing; the
  /// checkpoint is removed when the run ends).
  std::string scratch_dir = ".";
  ChannelDecorator decorate_channel;
};

struct RunReport {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t oracle_checked = 0;
  std::uint64_t oracle_mismatches = 0;
  std::uint64_t digest = 0;         ///< outcome digest of the oracle sample
  std::uint64_t trace_nesting_errors = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Human-readable context lines (sample counts, digest, mismatches).
  std::vector<std::string> notes;
};

const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
RunReport run_workload(const RunOptions& options);

/// The metric names and units each mode prints, in print order.
const std::vector<Metric>& end_to_end_metric_specs();
const std::vector<Metric>& per_layer_metric_specs();

}  // namespace e2e
