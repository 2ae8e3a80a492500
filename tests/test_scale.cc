#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/thread_pool.h"
#include "federated/client_state.h"
#include "federated/scale_sim.h"
#include "graph/corpus.h"
#include "runtime/message.h"
#include "runtime/topology.h"

namespace fexiot {
namespace {

// ---------------------------------------------------------------------------
// Streaming accumulator vs the eager AverageLayer reduction
// ---------------------------------------------------------------------------

// Inline replica of FederatedSimulator::AverageLayer's arithmetic:
// weight_sum accumulated over clients in ascending order, then one
// avg[i] += (w_c / weight_sum) * x_c[i] multiply-add per client in the
// same order. The streaming accumulator must replay these exact
// operations, so the comparison below is for bit equality, not tolerance.
std::vector<double> ReferenceAverage(
    const std::vector<std::vector<double>>& updates,
    const std::vector<double>& weights) {
  double weight_sum = 0.0;
  for (double w : weights) weight_sum += w;
  if (updates.empty() || weight_sum <= 0.0) return {};
  std::vector<double> avg(updates.front().size(), 0.0);
  for (size_t c = 0; c < updates.size(); ++c) {
    const double wc = weights[c] / weight_sum;
    for (size_t i = 0; i < avg.size(); ++i) avg[i] += wc * updates[c][i];
  }
  return avg;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(StreamingAccumulator, OrderFixedReductionMatchesEagerBitExactly) {
  for (uint64_t seed : {7ull, 1234ull, 0xFEED5EEDull}) {
    Rng rng(seed);
    const size_t n = 17, dim = 33;
    std::vector<std::vector<double>> updates(n);
    std::vector<double> weights(n);
    for (size_t c = 0; c < n; ++c) {
      weights[c] = rng.Uniform(0.1, 3.0);
      updates[c].resize(dim);
      for (double& v : updates[c]) v = rng.Normal(0.0, 2.0);
    }
    const std::vector<double> eager = ReferenceAverage(updates, weights);

    double weight_sum = 0.0;
    for (double w : weights) weight_sum += w;
    StreamingAccumulator acc;
    for (size_t c = 0; c < n; ++c) {
      acc.Add(weights[c] / weight_sum, updates[c]);
    }
    EXPECT_EQ(acc.count(), n);
    // Pre-normalized weights: the weighted sum IS the weighted mean.
    EXPECT_TRUE(BitEqual(acc.weighted_sum(), eager)) << "seed " << seed;
  }
}

TEST(StreamingAccumulator, EmptySingleClientAndZeroWeightEdgeCases) {
  // Empty: nothing accumulated, Mean is empty (AverageLayer's early
  // return on an empty group).
  StreamingAccumulator empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.Mean().empty());

  // Single client: the mean is the AverageLayer replay of that one
  // client, i.e. (w/w) * x computed in floating point — compare against
  // the reference replica, not the raw input (x * 1.0 is exact, but the
  // replica form keeps the contract honest for -0.0 inputs).
  const std::vector<double> x = {1.5, -2.25, 0.0, -0.0, 1e-300};
  StreamingAccumulator single;
  single.Add(2.0 / 2.0, x);
  EXPECT_TRUE(BitEqual(single.weighted_sum(), ReferenceAverage({x}, {2.0})));
  EXPECT_TRUE(BitEqual(single.Mean(), single.weighted_sum()));

  // All-zero weights: weight_sum <= 0 means no finalizable mean
  // (AverageLayer's weight_sum guard).
  StreamingAccumulator zero;
  zero.Add(0.0, x);
  zero.Add(0.0, x);
  EXPECT_EQ(zero.count(), 2u);
  EXPECT_DOUBLE_EQ(zero.weight_sum(), 0.0);
  EXPECT_TRUE(zero.Mean().empty());

  // Merging an empty accumulator is a no-op; merging into an empty one
  // adopts the other side verbatim.
  StreamingAccumulator a, b;
  a.Add(0.5, x);
  const std::vector<double> before = a.weighted_sum();
  a.Merge(b);
  EXPECT_TRUE(BitEqual(a.weighted_sum(), before));
  b.Merge(a);
  EXPECT_TRUE(BitEqual(b.weighted_sum(), before));
  EXPECT_EQ(b.count(), 1u);
}

// ---------------------------------------------------------------------------
// Lazy shard materialization
// ---------------------------------------------------------------------------

CorpusOptions ShardOptions() {
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 3;
  opt.max_nodes = 7;
  opt.vulnerable_fraction = 0.4;
  return opt;
}

TEST(LazyShards, RematerializationIsBitIdenticalAcrossSeedsAndSchedules) {
  const CorpusOptions opt = ShardOptions();
  for (uint64_t seed : {0xC0FFEEull, 42ull, 7777ull}) {
    // Serial baseline: fingerprint of every client's shard.
    std::vector<uint64_t> serial(24);
    for (uint64_t c = 0; c < serial.size(); ++c) {
      serial[c] = ClientShardFingerprint(opt, seed, c, 5, 3, 0.5);
    }
    // Materialize -> release -> rematerialize (reverse order) is
    // identical: the shard is a pure function of (options, seed, client).
    for (uint64_t c = serial.size(); c-- > 0;) {
      EXPECT_EQ(ClientShardFingerprint(opt, seed, c, 5, 3, 0.5), serial[c])
          << "seed " << seed << " client " << c;
    }
    // Concurrent materialization on 4 workers matches the serial pass.
    std::vector<uint64_t> parallel_fp(serial.size());
    ThreadPool pool(4);
    pool.ParallelFor(serial.size(), [&](size_t c) {
      parallel_fp[c] = ClientShardFingerprint(opt, seed, c, 5, 3, 0.5);
    });
    EXPECT_EQ(parallel_fp, serial) << "seed " << seed;
    // Distinct clients own distinct streams.
    EXPECT_NE(serial[0], serial[1]);
  }
  // The seed matters.
  EXPECT_NE(ClientShardFingerprint(opt, 1, 0, 5, 3, 0.5),
            ClientShardFingerprint(opt, 2, 0, 5, 3, 0.5));
}

TEST(LazyShards, ShardShapeFollowsTheSpec) {
  const CorpusOptions opt = ShardOptions();
  const std::vector<InteractionGraph> shard =
      MaterializeClientShard(opt, 99, 3, 10, 2, 0.5);
  ASSERT_EQ(shard.size(), 10u);
  int vulnerable = 0;
  for (const InteractionGraph& g : shard) vulnerable += g.label();
  // round(10 * 0.4) vulnerable graphs, shuffled through the shard.
  EXPECT_EQ(vulnerable, 4);
}

TEST(ClientStateStore, LazyAndEagerReturnIdenticalStateAndTrackLiveness) {
  LazyClientSpec spec;
  spec.corpus = ShardOptions();
  spec.graphs_per_client = 5;
  spec.num_clusters = 2;
  spec.profile_strength = 0.5;
  spec.model.hidden_dim = 8;
  spec.model.embedding_dim = 8;

  ClientStateStore lazy(spec, 12, /*eager=*/false);
  ClientStateStore eager(spec, 12, /*eager=*/true);
  for (uint64_t c : {0ull, 5ull, 11ull}) {
    EXPECT_EQ(lazy.ShardFingerprint(c), eager.ShardFingerprint(c));
    auto from_lazy = lazy.Acquire(c, nullptr);
    auto from_eager = eager.Acquire(c, nullptr);
    EXPECT_EQ(from_lazy->shard_fingerprint, from_eager->shard_fingerprint);
    EXPECT_EQ(from_lazy->train_graphs.size(), from_eager->train_graphs.size());
    EXPECT_EQ(from_lazy->test_graphs.size(), from_eager->test_graphs.size());
    EXPECT_FALSE(from_lazy->test_graphs.empty());
    // Both replicas start from the shared seeded initialization.
    EXPECT_TRUE(BitEqual(from_lazy->model.GetLayerFlat(0),
                         from_eager->model.GetLayerFlat(0)));
    lazy.Release(std::move(from_lazy));
    eager.Release(std::move(from_eager));
  }
  EXPECT_EQ(lazy.materializations(), 3u);
  EXPECT_EQ(lazy.live(), 0u);
  EXPECT_EQ(lazy.peak_live(), 1u);

  // Installing a global re-seeds the replica deterministically.
  GnnModel probe(spec.model);
  std::vector<std::vector<double>> global;
  for (int l = 0; l < probe.num_layers(); ++l) {
    global.push_back(std::vector<double>(probe.LayerSize(l), 0.25));
  }
  auto mc = lazy.Acquire(7, &global);
  EXPECT_TRUE(BitEqual(mc->model.GetLayerFlat(1), global[1]));
  lazy.Release(std::move(mc));
}

// ---------------------------------------------------------------------------
// Scale simulator
// ---------------------------------------------------------------------------

ScaleFlConfig SmallScaleConfig() {
  ScaleFlConfig cfg;
  cfg.num_clients = 40;
  cfg.runtime.participation_fraction = 12.0 / 40.0;  // 12 per round
  cfg.num_rounds = 3;
  cfg.client.corpus = ShardOptions();
  cfg.client.graphs_per_client = 4;
  cfg.client.num_clusters = 2;
  cfg.client.profile_strength = 0.5;
  cfg.client.model.hidden_dim = 8;
  cfg.client.model.embedding_dim = 8;
  cfg.train.epochs = 1;
  cfg.train.learning_rate = 0.02;
  cfg.eval_clients = 5;
  cfg.threads = 2;
  return cfg;
}

void UseTree(ScaleFlConfig* cfg) {
  cfg->runtime.topology.edge_fanout = 4;
  cfg->runtime.topology.regional_fanout = 3;
  cfg->runtime.topology.edge_up.latency_s = 0.5;
}

// Wire bytes of one whole-model message under \p codec.
double ModelMessageBytes(const ScaleFlConfig& cfg, WireCodec codec) {
  const GnnModel probe(cfg.client.model);
  double bytes = 0.0;
  for (int l = 0; l < probe.num_layers(); ++l) {
    bytes += static_cast<double>(MessageWireBytes(probe.LayerSize(l), codec));
  }
  return bytes;
}

std::string RoundsDigest(const ScaleFlResult& res) {
  std::string out;
  char buf[192];
  for (const ScaleRoundStats& r : res.rounds) {
    const RoundOutcome& o = r.outcome;
    std::snprintf(buf, sizeof(buf),
                  "r%d p=%zu d=%zu lost=%d late=%d crash=%d sub=%d loss=%a "
                  "t=%a up=%a down=%a e=%llu\n",
                  r.round, o.participants.size(), o.delivered.size(),
                  o.lost_updates, o.late_updates, o.aggregator_crashes,
                  o.subtree_lost_updates, r.mean_local_loss, o.end_time_s,
                  o.uplink_wire_bytes, o.downlink_wire_bytes,
                  static_cast<unsigned long long>(o.events));
    out += buf;
    for (int c : o.delivered) out += ' ' + std::to_string(c);
    for (double hb : o.hop_bytes) {
      std::snprintf(buf, sizeof(buf), " hop=%a", hb);
      out += buf;
    }
    out += '\n';
  }
  for (const auto& [client, m] : res.sampled_metrics) {
    std::snprintf(buf, sizeof(buf), "c%llu acc=%a f1=%a\n",
                  static_cast<unsigned long long>(client), m.accuracy, m.f1);
    out += buf;
  }
  return out;
}

TEST(ScaleSimulator, RejectsOutOfRangeConfig) {
  auto bad = [](auto mutate) {
    ScaleFlConfig c = SmallScaleConfig();
    mutate(&c);
    return !ScaleSimulator(c).Run().ok();
  };
  EXPECT_TRUE(bad([](ScaleFlConfig* c) { c->num_clients = 0; }));
  EXPECT_TRUE(bad([](ScaleFlConfig* c) { c->num_clients = 1ULL << 31; }));
  EXPECT_TRUE(bad([](ScaleFlConfig* c) { c->num_rounds = 0; }));
  EXPECT_TRUE(bad([](ScaleFlConfig* c) { c->client.graphs_per_client = 1; }));
  EXPECT_TRUE(bad([](ScaleFlConfig* c) { c->client.local_train_fraction = 1.0; }));
  EXPECT_TRUE(bad([](ScaleFlConfig* c) { c->eval_clients = -1; }));
  // The runtime field is validated by ValidateRuntimeConfig.
  EXPECT_TRUE(bad([](ScaleFlConfig* c) { c->runtime.participation_fraction = 0.0; }));
  EXPECT_TRUE(bad([](ScaleFlConfig* c) {
    c->runtime.policy = RoundPolicy::kDeadline;
    c->runtime.deadline_s = -1.0;
  }));
  EXPECT_TRUE(bad([](ScaleFlConfig* c) { c->runtime.default_up.loss_prob = 1.0; }));
  EXPECT_TRUE(bad([](ScaleFlConfig* c) { c->runtime.topology.edge_fanout = -1; }));
  EXPECT_TRUE(bad([](ScaleFlConfig* c) { c->runtime.topology.regional_fanout = 3; }));
  // The streaming FedAvg has no staleness mixing, and the fleet shares
  // one codec.
  EXPECT_TRUE(bad([](ScaleFlConfig* c) { c->runtime.policy = RoundPolicy::kAsync; }));
  EXPECT_TRUE(bad([](ScaleFlConfig* c) { c->runtime.policy = RoundPolicy::kSemiAsync; }));
  EXPECT_TRUE(bad([](ScaleFlConfig* c) {
    c->runtime.client_codecs = {WireCodec::kInt8};
  }));
  EXPECT_TRUE(ScaleSimulator(SmallScaleConfig()).Run().ok());
}

TEST(ScaleSimulator, LazyMatchesEagerBitExactly) {
  ScaleFlConfig lazy_cfg = SmallScaleConfig();
  ScaleFlConfig eager_cfg = lazy_cfg;
  eager_cfg.eager_state = true;
  const ScaleFlResult lazy = ScaleSimulator(lazy_cfg).Run().value();
  const ScaleFlResult eager = ScaleSimulator(eager_cfg).Run().value();
  EXPECT_EQ(lazy.global_fingerprint, eager.global_fingerprint);
  EXPECT_EQ(RoundsDigest(lazy), RoundsDigest(eager));
  EXPECT_EQ(lazy.total_events, eager.total_events);
  EXPECT_EQ(lazy.total_uplink_wire_bytes, eager.total_uplink_wire_bytes);
  EXPECT_EQ(lazy.total_downlink_wire_bytes, eager.total_downlink_wire_bytes);
}

TEST(ScaleSimulator, ThreadCountAndRerunKeepResultsBitIdentical) {
  ScaleFlConfig c1 = SmallScaleConfig();
  c1.threads = 1;
  ScaleFlConfig c4 = SmallScaleConfig();
  c4.threads = 4;
  const ScaleFlResult r1 = ScaleSimulator(c1).Run().value();
  const ScaleFlResult r4 = ScaleSimulator(c4).Run().value();
  const ScaleFlResult again = ScaleSimulator(c4).Run().value();
  EXPECT_EQ(r1.global_fingerprint, r4.global_fingerprint);
  EXPECT_EQ(RoundsDigest(r1), RoundsDigest(r4));
  EXPECT_EQ(r4.global_fingerprint, again.global_fingerprint);
  EXPECT_EQ(RoundsDigest(r4), RoundsDigest(again));
  // A different training seed moves the model, and a different runtime
  // seed moves who is sampled.
  ScaleFlConfig other = SmallScaleConfig();
  other.seed = 1234;
  EXPECT_NE(ScaleSimulator(other).Run().value().global_fingerprint,
            r1.global_fingerprint);
  ScaleFlConfig resampled = SmallScaleConfig();
  resampled.runtime.seed = 1234;
  const ScaleFlResult rs = ScaleSimulator(resampled).Run().value();
  EXPECT_NE(rs.rounds[0].outcome.participants,
            r1.rounds[0].outcome.participants);
}

TEST(ScaleSimulator, WireCodecShrinksHopBytesAndStaysThreadDeterministic) {
  ScaleFlConfig fp64_cfg = SmallScaleConfig();
  UseTree(&fp64_cfg);
  ScaleFlConfig int8_cfg = fp64_cfg;
  int8_cfg.runtime.wire_codec = WireCodec::kInt8;
  const ScaleFlResult fp64 = ScaleSimulator(fp64_cfg).Run().value();
  const ScaleFlResult int8 = ScaleSimulator(int8_cfg).Run().value();
  // Every priced hop carries the quantized record, so each tier's bytes
  // shrink by at least the 4x acceptance floor (fp64 lanes -> u8 lanes).
  ASSERT_EQ(int8.rounds.size(), fp64.rounds.size());
  for (size_t r = 0; r < fp64.rounds.size(); ++r) {
    const RoundOutcome& f = fp64.rounds[r].outcome;
    const RoundOutcome& q = int8.rounds[r].outcome;
    ASSERT_EQ(f.hop_bytes.size(), 3u);
    ASSERT_EQ(q.hop_bytes.size(), f.hop_bytes.size());
    for (size_t h = 0; h < f.hop_bytes.size(); ++h) {
      EXPECT_GT(q.hop_bytes[h], 0.0);
      EXPECT_GE(f.hop_bytes[h], 4.0 * q.hop_bytes[h]);
    }
    EXPECT_GE(f.uplink_wire_bytes, 4.0 * q.uplink_wire_bytes);
    EXPECT_GE(f.downlink_wire_bytes, 4.0 * q.downlink_wire_bytes);
  }
  EXPECT_GE(fp64.total_uplink_wire_bytes, 4.0 * int8.total_uplink_wire_bytes);
  // Quantization actually touches the model that crosses the wire.
  EXPECT_NE(int8.global_fingerprint, fp64.global_fingerprint);
  // And stays a pure function of the payload: thread counts cannot skew it.
  ScaleFlConfig one = int8_cfg, four = int8_cfg;
  one.threads = 1;
  four.threads = 4;
  const ScaleFlResult r1 = ScaleSimulator(one).Run().value();
  const ScaleFlResult r4 = ScaleSimulator(four).Run().value();
  EXPECT_EQ(r1.global_fingerprint, r4.global_fingerprint);
  EXPECT_EQ(RoundsDigest(r1), RoundsDigest(r4));
  EXPECT_EQ(r1.global_fingerprint, int8.global_fingerprint);
}

TEST(ScaleSimulator, SampledParticipationAndLazyAccountingHold) {
  ScaleFlConfig cfg = SmallScaleConfig();
  const ScaleFlResult res = ScaleSimulator(cfg).Run().value();
  const double model_bytes = ModelMessageBytes(cfg, WireCodec::kFp64);
  ASSERT_EQ(res.rounds.size(), 3u);
  double uplink = 0.0;
  uint64_t events = 0;
  for (const ScaleRoundStats& r : res.rounds) {
    const RoundOutcome& o = r.outcome;
    EXPECT_EQ(o.participants.size(), 12u);
    EXPECT_EQ(o.delivered, o.participants);  // reliable links, no tree
    EXPECT_TRUE(o.hop_bytes.empty());        // flat topology: no tiers
    // One broadcast and one upload per participant, priced by the runtime
    // from the encoded whole-model message.
    EXPECT_EQ(o.uplink_wire_bytes, 12.0 * model_bytes);
    EXPECT_EQ(o.downlink_wire_bytes, 12.0 * model_bytes);
    // Real scheduler pops: a broadcast arrival and an upload arrival per
    // participant.
    EXPECT_EQ(o.events, 2u * 12u);
    uplink += o.uplink_wire_bytes;
    events += o.events;
  }
  EXPECT_EQ(res.total_uplink_wire_bytes, uplink);
  EXPECT_EQ(res.total_events, events);
  // 3 rounds x 12 participants + 5 eval acquisitions; never more live
  // state than worker threads.
  EXPECT_EQ(res.materializations, 3u * 12u + 5u);
  EXPECT_LE(res.peak_live_clients, 2u);
  EXPECT_EQ(res.sampled_metrics.size(), 5u);
  for (size_t i = 1; i < res.sampled_metrics.size(); ++i) {
    EXPECT_LT(res.sampled_metrics[i - 1].first, res.sampled_metrics[i].first);
  }
  // Each eval client scores exactly its local test split (1 graph with a
  // 4-graph shard), so the confusion counts sum to the evaluated graphs.
  EXPECT_EQ(res.mean.true_positive + res.mean.true_negative +
                res.mean.false_positive + res.mean.false_negative,
            5);
  EXPECT_GE(res.mean.accuracy, 0.0);
  EXPECT_LE(res.mean.accuracy, 1.0);
}

TEST(ScaleSimulator, RuntimeLossAndDeadlineShapeDelivery) {
  // Lost uploads and late root arrivals are the runtime's verdicts; the
  // simulator aggregates exactly outcome.delivered.
  ScaleFlConfig cfg = SmallScaleConfig();
  cfg.runtime.default_up.loss_prob = 0.3;
  const ScaleFlResult lossy = ScaleSimulator(cfg).Run().value();
  int lost = 0;
  for (const ScaleRoundStats& r : lossy.rounds) {
    const RoundOutcome& o = r.outcome;
    lost += o.lost_updates;
    EXPECT_EQ(o.delivered.size() + static_cast<size_t>(o.lost_updates),
              o.participants.size());
  }
  EXPECT_GT(lost, 0);
  EXPECT_NE(lossy.global_fingerprint,
            ScaleSimulator(SmallScaleConfig()).Run().value().global_fingerprint);

  ScaleFlConfig late = SmallScaleConfig();
  late.runtime.policy = RoundPolicy::kDeadline;
  late.runtime.deadline_s = 1.0;
  late.runtime.train_seconds_per_graph = 0.5;  // 3 train graphs: 1.5 s
  const ScaleFlResult res = ScaleSimulator(late).Run().value();
  for (const ScaleRoundStats& r : res.rounds) {
    EXPECT_TRUE(r.outcome.delivered.empty());
    EXPECT_EQ(r.outcome.late_updates, 12);
  }
  // No delivery, no aggregation: the global stays the initialization.
  EXPECT_EQ(res.global_layers[0], GnnModel(late.client.model).GetLayerFlat(0));
  EXPECT_DOUBLE_EQ(res.total_sim_time_s, 3.0);
}

TEST(ScaleSimulator, TreeMatchesFlatWithinMergeTolerance) {
  ScaleFlConfig flat_cfg = SmallScaleConfig();
  ScaleFlConfig tree_cfg = flat_cfg;
  UseTree(&tree_cfg);
  const ScaleFlResult flat = ScaleSimulator(flat_cfg).Run().value();
  const ScaleFlResult tree = ScaleSimulator(tree_cfg).Run().value();
  // Same participants and deliveries; the tree only reassociates the
  // floating-point reduction, so the global matches to tight tolerance.
  ASSERT_EQ(flat.rounds.size(), tree.rounds.size());
  for (size_t r = 0; r < flat.rounds.size(); ++r) {
    const RoundOutcome& f = flat.rounds[r].outcome;
    const RoundOutcome& t = tree.rounds[r].outcome;
    EXPECT_EQ(f.participants, t.participants);
    EXPECT_EQ(f.delivered, t.delivered);
    ASSERT_EQ(t.hop_bytes.size(), 3u);
    EXPECT_EQ(t.hop_bytes[0], t.uplink_wire_bytes);
    EXPECT_GT(t.hop_bytes[1], 0.0);
    EXPECT_GT(t.hop_bytes[2], 0.0);
    // Tree forwarding is a routing post-pass, not scheduler events.
    EXPECT_EQ(t.events, f.events);
  }
  ASSERT_EQ(flat.global_layers.size(), tree.global_layers.size());
  for (size_t l = 0; l < flat.global_layers.size(); ++l) {
    ASSERT_EQ(flat.global_layers[l].size(), tree.global_layers[l].size());
    for (size_t i = 0; i < flat.global_layers[l].size(); ++i) {
      EXPECT_NEAR(flat.global_layers[l][i], tree.global_layers[l][i], 1e-9);
    }
  }
  // Interior hops cost simulated time.
  EXPECT_GT(tree.total_sim_time_s, flat.total_sim_time_s);
}

// ---------------------------------------------------------------------------
// Slow scale smoke (CI stage, FEXIOT_SLOW_TESTS=1)
// ---------------------------------------------------------------------------

// 100k clients with sampled participation: completes in CI and stays
// within an RSS ceiling that eager per-client state could never meet
// (100k shards + replicas would need gigabytes).
TEST(ScaleSmoke, HundredThousandClientsSampledParticipation) {
  if (std::getenv("FEXIOT_SLOW_TESTS") == nullptr) {
    GTEST_SKIP() << "FEXIOT_SLOW_TESTS not set";
  }
  ScaleFlConfig cfg = SmallScaleConfig();
  cfg.num_clients = 100000;
  cfg.runtime.participation_fraction = 48.0 / 100000.0;
  cfg.num_rounds = 2;
  cfg.eval_clients = 4;
  cfg.threads = 0;  // all cores
  cfg.runtime.topology.edge_fanout = 8;
  cfg.runtime.topology.regional_fanout = 4;
  const ScaleFlResult res = ScaleSimulator(cfg).Run().value();
  ASSERT_EQ(res.rounds.size(), 2u);
  for (const ScaleRoundStats& r : res.rounds) {
    EXPECT_EQ(r.outcome.participants.size(), 48u);
    EXPECT_FALSE(r.outcome.delivered.empty());
  }
  EXPECT_EQ(res.materializations, 2u * 48u + 4u);
  EXPECT_LT(res.peak_rss_mb, 1500.0) << "peak RSS must stay O(active "
                                        "clients), not O(total clients)";
}

}  // namespace
}  // namespace fexiot
