#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "federated/client_state.h"
#include "ml/metrics.h"
#include "runtime/runtime.h"

namespace fexiot {

/// \brief Configuration of the million-client lazy-state FedAvg simulator.
///
/// Unlike FlConfig (which hosts every client eagerly and evaluates all of
/// them), ScaleFlConfig describes the federation by a LazyClientSpec; the
/// round engine is the same FederatedRuntime, sampling a small
/// participant set per round through runtime.participation_fraction, so
/// client state is O(active clients) regardless of num_clients.
struct ScaleFlConfig {
  uint64_t num_clients = 1000;
  int num_rounds = 2;
  /// Recipe materializing any client's shard + replica on demand.
  LazyClientSpec client;
  TrainConfig train;
  /// Eager baseline: pre-materialize every shard up front. Bit-identical
  /// results to the lazy default (pinned by test_scale) — only the memory
  /// profile differs.
  bool eager_state = false;
  /// The round engine: sampled participation, links, faults, the
  /// synchronous / deadline / timeout-retry policy, the aggregation tree
  /// and the fleet wire codec (resolved through FEXIOT_WIRE_CODEC, as in
  /// FederatedSimulator). Rejected: the async policies (the streaming
  /// FedAvg has no staleness mixing) and per-client client_codecs.
  RuntimeConfig runtime;
  /// Clients evaluated after the final round (sampled; 0 = skip eval).
  int eval_clients = 0;
  /// Worker threads for parallel client training (0 = hardware).
  int threads = 0;
  /// Seeds local training and evaluation sampling (runtime.seed seeds
  /// the round engine's draws).
  uint64_t seed = 59;
};

Status ValidateScaleConfig(const ScaleFlConfig& config);

/// \brief Per-round telemetry of a scale run.
struct ScaleRoundStats {
  int round = 0;
  double mean_local_loss = 0.0;
  /// The runtime's account of the round: participants, deliveries,
  /// losses, timing, per-tier hop bytes, wire bytes and scheduler events.
  RoundOutcome outcome;
};

/// \brief Outcome of a scale run.
struct ScaleFlResult {
  std::vector<ScaleRoundStats> rounds;
  /// Final global model, flat per layer.
  std::vector<std::vector<double>> global_layers;
  /// Order-sensitive FNV-1a digest over the final global's bit patterns —
  /// the lazy-vs-eager / thread-parity probe.
  uint64_t global_fingerprint = 0;
  /// Final-round eval on sampled clients, (client, metrics) ascending.
  std::vector<std::pair<uint64_t, ClassificationMetrics>> sampled_metrics;
  /// Mean over sampled_metrics (zeros when eval_clients == 0).
  ClassificationMetrics mean;
  double total_sim_time_s = 0.0;
  /// Sums of the rounds' runtime-counted wire bytes and scheduler events.
  double total_uplink_wire_bytes = 0.0;
  double total_downlink_wire_bytes = 0.0;
  uint64_t total_events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  /// Lazy-state accounting (ClientStateStore counters).
  uint64_t materializations = 0;
  uint64_t peak_live_clients = 0;
  /// Process peak / current resident set (MB; 0 off Linux).
  double peak_rss_mb = 0.0;
  double current_rss_mb = 0.0;
};

/// Peak resident set size of this process in MB (VmHWM of
/// /proc/self/status; 0.0 off Linux).
double ReadVmHwmMb();
/// Current resident set size in MB (VmRSS; 0.0 off Linux).
double ReadVmRssMb();

/// \brief Million-client lazy FedAvg loop over FederatedRuntime.
///
/// Each round follows FederatedSimulator::Run: ExecuteRound decides who
/// participates and whose updates are delivered, then the participants
/// train on a thread pool where each worker Acquires its client's state,
/// trains, snapshots the update, and Releases before returning (peak live
/// state <= pool width), then the delivered updates fold into streaming
/// accumulators grouped by the runtime's aggregation tree. Clients are
/// stateless (re-initialized from the global each round) and every
/// stochastic draw is counter-based, so results are bit-identical across
/// thread counts and lazy-vs-eager state (pinned by test_scale).
class ScaleSimulator {
 public:
  explicit ScaleSimulator(const ScaleFlConfig& config);

  /// Runs the configured rounds. InvalidArgument on bad config.
  Result<ScaleFlResult> Run();

 private:
  ScaleFlConfig config_;
};

}  // namespace fexiot
