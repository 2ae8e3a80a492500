#include "federated/scale_sim.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "gnn/trainer.h"
#include "runtime/message.h"

namespace fexiot {

namespace {

uint64_t GlobalLayersFingerprint(
    const std::vector<std::vector<double>>& layers) {
  const uint64_t n = layers.size();
  uint64_t h = Fnv1a(&n, sizeof(n));
  for (const auto& layer : layers) {
    const uint64_t count = layer.size();
    h = Fnv1a(&count, sizeof(count), h);
    h = Fnv1a(layer.data(), layer.size() * sizeof(double), h);
  }
  return h;
}

}  // namespace

Status ValidateScaleConfig(const ScaleFlConfig& config) {
  if (config.num_clients < 1 ||
      config.num_clients > static_cast<uint64_t>(INT_MAX))
    return Status::InvalidArgument("num_clients must be in [1, INT_MAX]");
  if (config.num_rounds < 1)
    return Status::InvalidArgument("num_rounds must be >= 1");
  if (config.client.graphs_per_client < 2)
    return Status::InvalidArgument(
        "graphs_per_client must be >= 2 (local test split)");
  if (config.client.local_train_fraction <= 0.0 ||
      config.client.local_train_fraction >= 1.0)
    return Status::InvalidArgument(
        "local_train_fraction must be in (0, 1)");
  if (config.client.num_clusters < 0)
    return Status::InvalidArgument("num_clusters must be >= 0");
  if (config.eval_clients < 0)
    return Status::InvalidArgument("eval_clients must be >= 0");
  if (config.threads < 0)
    return Status::InvalidArgument("threads must be >= 0");
  FEXIOT_RETURN_NOT_OK(ValidateRuntimeConfig(config.runtime));
  if (config.runtime.policy == RoundPolicy::kAsync ||
      config.runtime.policy == RoundPolicy::kSemiAsync)
    return Status::InvalidArgument(
        "the scale simulator's streaming FedAvg has no staleness mixing; use "
        "the synchronous, deadline or timeout-retry policy");
  if (!config.runtime.client_codecs.empty())
    return Status::InvalidArgument(
        "the scale simulator negotiates one fleet codec (runtime.wire_codec); "
        "per-client client_codecs are not supported");
  return Status::OK();
}

#ifdef __linux__
namespace {
double ReadProcStatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  const size_t key_len = std::strlen(key);
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kb = std::atof(line + key_len);
      break;
    }
  }
  std::fclose(f);
  return kb;
}
}  // namespace

double ReadVmHwmMb() { return ReadProcStatusKb("VmHWM:") / 1024.0; }
double ReadVmRssMb() { return ReadProcStatusKb("VmRSS:") / 1024.0; }
#else
double ReadVmHwmMb() { return 0.0; }
double ReadVmRssMb() { return 0.0; }
#endif

ScaleSimulator::ScaleSimulator(const ScaleFlConfig& config)
    : config_(config) {}

Result<ScaleFlResult> ScaleSimulator::Run() {
  FEXIOT_RETURN_NOT_OK(ValidateScaleConfig(config_));
  Stopwatch wall;
  const ScaleFlConfig& cfg = config_;
  const RuntimeConfig& rc = cfg.runtime;
  const int n = static_cast<int>(cfg.num_clients);

  ClientStateStore store(cfg.client, cfg.num_clients, cfg.eager_state);
  FederatedRuntime runtime(rc, n);
  const AggregationTree& tree = runtime.tree();
  Rng train_base(MixKey(cfg.seed, /*train*/ 23));
  const size_t pool_threads =
      cfg.threads > 0 ? static_cast<size_t>(cfg.threads)
                      : parallel::NumThreads();
  ThreadPool pool(pool_threads);

  // Probe replica: layer shapes and the initial global (every client
  // replica starts from the same seeded initialization).
  GnnModel probe(cfg.client.model);
  const int num_layers = probe.num_layers();
  std::vector<std::vector<double>> global(static_cast<size_t>(num_layers));
  for (int l = 0; l < num_layers; ++l) {
    global[static_cast<size_t>(l)] = probe.GetLayerFlat(l);
  }

  // One fleet codec (the configured one, or FEXIOT_WIRE_CODEC's). Every
  // message carries the whole model, so broadcast and upload price alike.
  const WireCodec codec = ResolveWireCodec(rc.wire_codec);
  double model_bytes = 0.0;
  for (int l = 0; l < num_layers; ++l) {
    model_bytes +=
        static_cast<double>(MessageWireBytes(probe.LayerSize(l), codec));
  }
  const std::vector<double> wire_bytes(static_cast<size_t>(n), model_bytes);
  const std::vector<double> train_seconds(
      static_cast<size_t>(n), rc.train_seconds_per_graph *
                                  TrainSplitSize(cfg.client) *
                                  std::max(1, cfg.train.epochs));

  ScaleFlResult result;
  for (int round = 0; round < cfg.num_rounds; ++round) {
    // 1. The runtime decides who trains and whose updates arrive.
    ScaleRoundStats stats;
    stats.round = round;
    stats.outcome =
        runtime.ExecuteRound(round, wire_bytes, wire_bytes, train_seconds);
    const RoundOutcome& outcome = stats.outcome;
    const std::vector<int>& participants = outcome.participants;
    const size_t k = participants.size();

    // Downlink: participants receive the global as it survives the wire
    // codec (fp64 passes &global straight through — no copy, bit-exact).
    const std::vector<std::vector<double>>* broadcast_global = &global;
    std::vector<std::vector<double>> downlinked;
    if (codec != WireCodec::kFp64) {
      downlinked = global;
      for (auto& layer : downlinked) CodecRoundTrip(codec, &layer);
      broadcast_global = &downlinked;
    }

    // 2. Parallel local training; scratch is sized by the sample, never
    // by the federation.
    std::vector<double> losses(k, 0.0);
    std::vector<std::vector<std::vector<double>>> updates(k);
    pool.ParallelFor(k, [&](size_t i) {
      const int client = participants[i];
      std::unique_ptr<MaterializedClient> mc =
          store.Acquire(static_cast<uint64_t>(client), broadcast_global);
      Rng train_rng = train_base.ForkAt(MixKey(
          static_cast<uint64_t>(client), static_cast<uint64_t>(round) + 1));
      GnnTrainer trainer(&mc->model, cfg.train);
      losses[i] = trainer.Train(mc->train_graphs, &train_rng);
      auto& up = updates[i];
      up.resize(static_cast<size_t>(num_layers));
      for (int l = 0; l < num_layers; ++l) {
        // Snapshot what the server will observe: the trained layer after
        // the uplink codec. A pure per-tensor function, so the parallel
        // workers stay bit-identical across thread counts.
        up[static_cast<size_t>(l)] = mc->model.GetLayerFlat(l);
        CodecRoundTrip(codec, &up[static_cast<size_t>(l)]);
      }
      // Release inside the worker: peak live state <= pool width.
      store.Release(std::move(mc));
    });
    double loss_sum = 0.0;
    for (double loss : losses) loss_sum += loss;
    stats.mean_local_loss = k > 0 ? loss_sum / static_cast<double>(k) : 0.0;

    // 3. Streaming FedAvg over the delivered updates: replay
    // AverageLayer's exact per-element multiply-adds — one
    // Add(w_c / weight_sum, x_c) per delivered client in ascending order,
    // where unit weights make w_c / weight_sum exactly 1 / |delivered|.
    // Under the flat topology this is bit-identical to the eager
    // aggregation; tree merges reassociate (DESIGN.md 5.10).
    const std::vector<int>& delivered = outcome.delivered;
    if (!delivered.empty()) {
      std::vector<size_t> slot(delivered.size());
      for (size_t d = 0; d < delivered.size(); ++d) {
        slot[d] = static_cast<size_t>(
            std::lower_bound(participants.begin(), participants.end(),
                             delivered[d]) -
            participants.begin());
      }
      const double wc = 1.0 / static_cast<double>(delivered.size());
      // Tier t accumulates the open node of interior tier t (0 = edge,
      // 1 = regional); the last accumulator is the root. A node closes
      // when the ascending client order leaves its subtree and merges
      // into its parent.
      const auto tiers = static_cast<size_t>(tree.depth() - 1);
      for (int l = 0; l < num_layers; ++l) {
        std::vector<StreamingAccumulator> acc(tiers + 1);
        std::vector<int> open(tiers, -1);
        for (size_t d = 0; d < delivered.size(); ++d) {
          int node = delivered[d];
          for (size_t t = 0; t < tiers; ++t) {
            node = t == 0 ? tree.EdgeOf(node) : tree.RegionalOf(node);
            if (node == open[t]) break;
            if (open[t] >= 0) {
              acc[t + 1].Merge(acc[t]);
              acc[t] = StreamingAccumulator();
            }
            open[t] = node;
          }
          acc[0].Add(wc, updates[slot[d]][static_cast<size_t>(l)]);
        }
        for (size_t t = 0; t < tiers; ++t) acc[t + 1].Merge(acc[t]);
        // Pre-normalized weights sum to 1, so the weighted sum is the
        // weighted mean — same math AverageLayer installs.
        global[static_cast<size_t>(l)] = acc.back().weighted_sum();
      }
    }

    result.total_uplink_wire_bytes += outcome.uplink_wire_bytes;
    result.total_downlink_wire_bytes += outcome.downlink_wire_bytes;
    result.total_events += outcome.events;
    result.rounds.push_back(std::move(stats));
  }

  // Final-round evaluation on a sampled client set.
  if (cfg.eval_clients > 0) {
    Rng eval_rng(MixKey(cfg.seed, /*eval*/ 11));
    std::vector<size_t> eval_clients = eval_rng.SampleWithoutReplacement(
        static_cast<size_t>(n),
        std::min(static_cast<size_t>(n),
                 static_cast<size_t>(cfg.eval_clients)));
    std::sort(eval_clients.begin(), eval_clients.end());
    std::vector<ClassificationMetrics> metrics(eval_clients.size());
    pool.ParallelFor(eval_clients.size(), [&](size_t i) {
      std::unique_ptr<MaterializedClient> mc =
          store.Acquire(eval_clients[i], &global);
      GnnTrainer trainer(&mc->model, cfg.train);
      metrics[i] = trainer.Evaluate(mc->train_graphs, mc->test_graphs);
      store.Release(std::move(mc));
    });
    for (size_t i = 0; i < eval_clients.size(); ++i) {
      result.sampled_metrics.emplace_back(eval_clients[i], metrics[i]);
      result.mean.accuracy += metrics[i].accuracy;
      result.mean.precision += metrics[i].precision;
      result.mean.recall += metrics[i].recall;
      result.mean.f1 += metrics[i].f1;
      result.mean.true_positive += metrics[i].true_positive;
      result.mean.true_negative += metrics[i].true_negative;
      result.mean.false_positive += metrics[i].false_positive;
      result.mean.false_negative += metrics[i].false_negative;
    }
    if (!eval_clients.empty()) {
      const auto m = static_cast<double>(eval_clients.size());
      result.mean.accuracy /= m;
      result.mean.precision /= m;
      result.mean.recall /= m;
      result.mean.f1 /= m;
    }
  }

  result.global_layers = std::move(global);
  result.global_fingerprint = GlobalLayersFingerprint(result.global_layers);
  result.total_sim_time_s = runtime.now();
  result.materializations = store.materializations();
  result.peak_live_clients = store.peak_live();
  result.peak_rss_mb = ReadVmHwmMb();
  result.current_rss_mb = ReadVmRssMb();
  result.wall_seconds = wall.ElapsedSeconds();
  result.events_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.total_events) / result.wall_seconds
          : 0.0;
  return result;
}

}  // namespace fexiot
