// The two federated workloads.
//
// fed_train: the paper's Figure 4 federation. FexIoT Algorithm 1, GIN with
//   hidden 24, 10 clients of a 3-cluster Dirichlet(1) IFTTT corpus, fp64
//   passthrough runtime, per-round evaluation. Time goes to client local
//   training at GNN shapes below the SIMD GEMM cutoff.
// fed_fleet: the same layer used the other way. About 1000 clients with
//   1-3 graphs each train one epoch at hidden 64 under FedAvg with the
//   semi-async policy, the int8 wire codec, 10%-loss jittered uplinks and
//   a 4x straggler cohort. Per-client compute is tiny, so codec, copies,
//   aggregation and event-runtime bookkeeping carry a large share.
//
// Every timed Run() is a fresh federation built from the same inputs, so
// all Runs of a process are the same deterministic job: their accuracy and
// byte totals must agree bit for bit, traced or not.

#include <cmath>
#include <memory>
#include <optional>

#include "common.h"
#include "common/thread_pool.h"
#include "federated/fl_simulator.h"
#include "graph/corpus.h"
#include "probe.h"
#include "runtime/message.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace fexiot;

// Mean client accuracy fed_train's time-to-accuracy metric waits for.
constexpr double kTargetAccuracy = 0.65;
// Federations fed_train draws per seed.
constexpr uint64_t kTrainFederations = 16;

struct FedSpec {
  FlAlgorithm algorithm = FlAlgorithm::kFexiot;
  int setup_repeats = 3;
  GnnConfig gnn;
  FlConfig fl;
};

// The federations of one run, all drawn from the seed. fed_train rotates
// its timed Runs over several, so one seed's client-size imbalance (which
// sets how long a round waits for its largest client) does not decide the
// figure alone.
struct FedWorld {
  std::vector<FederatedCorpus> corpora;
  double corpus_s = 0.0;
};

FedSpec TrainSpec(const Options& opt) {
  FedSpec s;
  s.algorithm = FlAlgorithm::kFexiot;
  s.gnn.type = GnnType::kGin;
  s.gnn.hidden_dim = 24;
  s.gnn.embedding_dim = 24;
  s.fl.num_rounds = opt.tiny ? 2 : 6;
  s.fl.local.epochs = 2;
  s.fl.local.learning_rate = 0.02;
  s.fl.local.margin = 3.0;
  s.fl.local.pairs_per_sample = 2.0;
  s.fl.eval_each_round = true;
  s.fl.threads = opt.threads;
  s.fl.seed = opt.seed;
  return s;
}

FedWorld TrainWorld(const Options& opt) {
  CorpusOptions copt;
  copt.platforms = {Platform::kIfttt};
  copt.min_nodes = 4;
  copt.max_nodes = 20;
  copt.vulnerable_fraction = 0.3;
  FedWorld w;
  const double t0 = NowS();
  const Rng root(opt.seed);
  for (uint64_t k = 0; k < (opt.tiny ? 1 : kTrainFederations); ++k) {
    Rng rng = root.ForkAt(k);
    w.corpora.push_back(BuildClusteredFederatedCorpus(
        copt, opt.tiny ? 80 : 200, /*num_clients=*/10, /*num_clusters=*/3,
        /*alpha=*/1.0, /*profile_strength=*/0.7, &rng));
  }
  w.corpus_s = NowS() - t0;
  return w;
}

FedSpec FleetSpec(const Options& opt, int clients) {
  FedSpec s;
  s.algorithm = FlAlgorithm::kFedAvg;
  s.setup_repeats = 9;
  s.gnn.type = GnnType::kGin;
  s.gnn.hidden_dim = 32;
  s.gnn.embedding_dim = 32;
  s.fl.num_rounds = opt.tiny ? 2 : 3;
  s.fl.local.epochs = 1;
  s.fl.local.learning_rate = 0.02;
  s.fl.local.margin = 3.0;
  s.fl.threads = opt.threads;
  s.fl.seed = opt.seed;
  RuntimeConfig& rc = s.fl.runtime;
  rc.policy = RoundPolicy::kSemiAsync;
  rc.target_fraction = 0.8;
  rc.semi_async_tiers = 3;
  rc.speed_ewma_beta = 0.5;
  rc.train_seconds_per_graph = 0.02;
  rc.default_down.latency_s = 0.05;
  rc.default_down.bandwidth_bps = 2e6;
  rc.default_up.latency_s = 0.1;
  rc.default_up.bandwidth_bps = 1e6;
  rc.default_up.jitter_s = 0.02;
  rc.default_up.loss_prob = 0.1;
  rc.wire_codec = WireCodec::kInt8;
  rc.seed = opt.seed ^ 0x7E57AB1EULL;
  // Straggler cohort: every 4th client computes four times slower.
  rc.faults.resize(static_cast<size_t>(clients));
  for (int c = 3; c < clients; c += 4) {
    rc.faults[static_cast<size_t>(c)].slowdown = 4.0;
  }
  return s;
}

int FleetClients(const Options& opt) { return opt.tiny ? 40 : 1000; }

FedWorld FleetWorld(const Options& opt) {
  const int clients = FleetClients(opt);
  CorpusOptions copt;
  copt.platforms = {Platform::kIfttt};
  copt.min_nodes = 3;
  copt.max_nodes = 10;
  copt.vulnerable_fraction = 0.35;
  FedWorld w;
  const double t0 = NowS();
  Rng rng(opt.seed);
  GraphCorpusGenerator gen(copt, &rng);
  std::vector<int> counts(static_cast<size_t>(clients));
  int total = 0;
  for (int& n : counts) {
    n = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    total += n;
  }
  FederatedCorpus corpus;
  corpus.data = GraphDataset(gen.GenerateDataset(total));
  size_t next = 0;
  for (int c = 0; c < clients; ++c) {
    std::vector<size_t> shard;
    for (int i = 0; i < counts[static_cast<size_t>(c)]; ++i) {
      shard.push_back(next++);
    }
    corpus.partition.indices.push_back(std::move(shard));
    corpus.partition.client_cluster.push_back(c % 3);
  }
  // Small shared evaluation pools: every client keeps a prepared copy of
  // its cluster's pool, so the pool size multiplies by the fleet size.
  for (int k = 0; k < 3; ++k) {
    corpus.cluster_tests.push_back(GraphDataset(gen.GenerateDataset(4)));
  }
  w.corpora.push_back(std::move(corpus));
  w.corpus_s = NowS() - t0;
  return w;
}

std::unique_ptr<FederatedSimulator> Federation(const FedSpec& spec,
                                               const FederatedCorpus& corpus) {
  auto sim = std::make_unique<FederatedSimulator>(spec.gnn, spec.fl);
  sim->SetupClients(corpus.data, corpus.partition, corpus.cluster_tests);
  return sim;
}

// First result of each federation: every later Run of it must match.
using References = std::vector<std::optional<FlResult>>;

// One timed window of fresh-federation Runs, in whole cycles over the
// world's federations.
struct Window {
  std::vector<double> run_s;  // wall seconds per Run
  std::vector<double> cycle_rounds_per_s;
  int rounds = 0;
  double time_to_acc_s = -1.0;  // pro-rated, federation 0's first Run
};

void RunWindow(const FedSpec& spec, const FedWorld& world, double seconds,
               Tracer* tracer, References* refs, Report* report, Window* w) {
  const size_t k_count = world.corpora.size();
  const double end = NowS() + seconds;
  double cycle_s = 0.0;
  int cycle_rounds = 0;
  for (size_t run = 0; run == 0 || run % k_count != 0 || NowS() < end;
       ++run) {
    const size_t k = run % k_count;
    std::unique_ptr<FederatedSimulator> sim;
    {
      Span span(tracer, "federated", "FederatedSimulator::SetupClients");
      sim = Federation(spec, world.corpora[k]);
    }
    const double t0 = NowS();
    Result<FlResult> res = [&] {
      Span span(tracer, "federated", "FederatedSimulator::Run");
      return sim->Run(spec.algorithm);
    }();
    const double wall = NowS() - t0;
    report->Op(res.status(), "FederatedSimulator::Run");
    if (!res.ok()) continue;
    const FlResult& r = res.value();
    w->run_s.push_back(wall);
    w->rounds += static_cast<int>(r.rounds.size());
    cycle_s += wall;
    cycle_rounds += static_cast<int>(r.rounds.size());
    if (k + 1 == k_count) {
      w->cycle_rounds_per_s.push_back(cycle_rounds / cycle_s);
      cycle_s = 0.0;
      cycle_rounds = 0;
    }

    bool rounds_ok = static_cast<int>(r.rounds.size()) == spec.fl.num_rounds;
    for (size_t i = 0; rounds_ok && i < r.rounds.size(); ++i) {
      rounds_ok = r.rounds[i].round == static_cast<int>(i);
    }
    report->Check(rounds_ok, "every federated round is present");
    report->Check(std::isfinite(r.mean.accuracy) &&
                      std::isfinite(r.total_uplink_wire_bytes) &&
                      r.total_uplink_wire_bytes > 0.0,
                  "accuracy and byte totals are finite");
    std::optional<FlResult>& ref = (*refs)[k];
    if (!ref.has_value()) {
      ref = r;
    } else {
      report->Check(r.mean.accuracy == ref->mean.accuracy &&
                        r.total_uplink_wire_bytes ==
                            ref->total_uplink_wire_bytes &&
                        r.total_downlink_wire_bytes ==
                            ref->total_downlink_wire_bytes,
                    "repeated Runs agree bit for bit");
    }
    if (k == 0 && w->time_to_acc_s < 0.0) {
      for (const FlRoundStats& s : r.rounds) {
        if (s.mean_accuracy >= kTargetAccuracy) {
          w->time_to_acc_s = wall * static_cast<double>(s.round + 1) /
                             static_cast<double>(r.rounds.size());
          break;
        }
      }
    }
  }
}

double PerRoundMs(const Window& w, const FedSpec& spec, double p) {
  std::vector<double> ms;
  for (double s : w.run_s) ms.push_back(s * 1e3 / spec.fl.num_rounds);
  return Percentile(ms, p);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// The traced layer replay: the federation's rounds re-driven call by call
// through FederatedRuntime::ExecuteRound, FlClient::LocalTrain and the
// wire codec, on one pool worker like a client task of Run().
void LayerReplay(const FedSpec& spec, const FederatedCorpus& corpus,
                 double budget_s, double round_ms_untraced, Tracer* tracer,
                 Report* report) {
  {
    const double t0 = NowS();
    Span span(tracer, "graph", "PrepareDataset");
    const std::vector<PreparedGraph> prepared =
        PrepareDataset(corpus.data, spec.gnn);
    report->Set("graph.prepare_s", NowS() - t0, "s", prepared.size());
  }
  std::unique_ptr<FederatedSimulator> sim = Federation(spec, corpus);
  const int n = static_cast<int>(sim->num_clients());
  const RuntimeConfig& rc = spec.fl.runtime;
  FederatedRuntime runtime(rc, n);
  const int layers = sim->client(0)->num_layers();
  std::vector<double> wire(static_cast<size_t>(n), 0.0);
  std::vector<double> train_s(static_cast<size_t>(n), 0.0);
  for (int c = 0; c < n; ++c) {
    FlClient* client = sim->client(static_cast<size_t>(c));
    for (int l = 0; l < layers; ++l) {
      wire[static_cast<size_t>(c)] += static_cast<double>(
          MessageWireBytes(client->LayerBytes(l) / sizeof(double),
                           rc.wire_codec));
    }
    train_s[static_cast<size_t>(c)] =
        rc.train_seconds_per_graph *
        static_cast<double>(client->num_train_graphs()) *
        static_cast<double>(spec.fl.local.epochs);
  }

  std::vector<double> train_ms, round_ms, straggler, exec_ms, enc_s, dec_s;
  double delivered = 0.0, participants = 0.0, retx = 0.0, codec_bytes = 0.0;
  bool codec_ok = true;
  const double end = NowS() + budget_s;
  for (int round = 0;
       round < spec.fl.num_rounds && (round == 0 || NowS() < end); ++round) {
    double t0 = NowS();
    RoundOutcome out;
    {
      Span span(tracer, "runtime", "FederatedRuntime::ExecuteRound");
      out = runtime.ExecuteRound(round, wire, wire, train_s);
    }
    exec_ms.push_back((NowS() - t0) * 1e3);
    participants += static_cast<double>(out.participants.size());
    delivered += static_cast<double>(out.delivered.size());
    retx += out.retransmissions;

    std::vector<double> this_round;
    for (int c : out.participants) {
      t0 = NowS();
      {
        Span span(tracer, "federated", "FlClient::LocalTrain");
        sim->client(static_cast<size_t>(c))->LocalTrain();
      }
      this_round.push_back((NowS() - t0) * 1e3);
    }
    if (!this_round.empty()) {
      train_ms.insert(train_ms.end(), this_round.begin(), this_round.end());
      round_ms.push_back(Sum(this_round));
      straggler.push_back(*std::max_element(this_round.begin(),
                                            this_round.end()) /
                          Mean(this_round));
    }

    // Uplink payloads of (up to 64 of) the delivered clients.
    size_t coded = 0;
    for (int c : out.delivered) {
      if (++coded > 64) break;
      FlClient* client = sim->client(static_cast<size_t>(c));
      for (int l = 0; l < layers; ++l) {
        WireMessage msg;
        msg.type = MessageType::kLayerUpdate;
        msg.round = static_cast<uint32_t>(round);
        msg.sender = static_cast<uint32_t>(c);
        msg.layer = static_cast<uint32_t>(l);
        msg.codec = rc.wire_codec;
        msg.payload = client->LayerWeights(l);
        t0 = NowS();
        std::vector<uint8_t> bytes;
        {
          Span span(tracer, "runtime", "EncodeMessage");
          bytes = EncodeMessage(msg);
        }
        enc_s.push_back(NowS() - t0);
        t0 = NowS();
        Result<WireMessage> back = [&] {
          Span span(tracer, "runtime", "DecodeMessage");
          return DecodeMessage(bytes.data(), bytes.size());
        }();
        dec_s.push_back(NowS() - t0);
        codec_ok = codec_ok && back.ok() &&
                   back.value().payload.size() == msg.payload.size() &&
                   bytes.size() == MessageWireBytes(msg.payload.size(),
                                                    rc.wire_codec);
        codec_bytes += static_cast<double>(msg.payload.size() * sizeof(double));
      }
    }
  }
  report->Check(codec_ok, "wire messages decode to their payload length");

  const int rounds = static_cast<int>(exec_ms.size());
  report->Set("federated.local_train_p50_ms", Median(train_ms), "ms",
              train_ms.size());
  report->Set("federated.local_train_max_ms",
              train_ms.empty() ? 0.0
                               : *std::max_element(train_ms.begin(),
                                                   train_ms.end()),
              "ms", train_ms.size());
  report->Set("federated.straggler_ratio", Mean(straggler), "ratio",
              straggler.size());
  report->Set("federated.nontrain_share_est",
              1.0 - Mean(round_ms) / spec.fl.threads / round_ms_untraced,
              "ratio", round_ms.size());
  report->Set("runtime.execute_round_ms", Median(exec_ms), "ms", rounds);
  report->Set("runtime.delivered_ratio",
              participants > 0 ? delivered / participants : 0.0, "ratio",
              rounds);
  report->Set("runtime.retransmissions", retx / rounds, "count", rounds);
  report->Set("runtime.codec_encode_us", Median(enc_s) * 1e6, "us",
              enc_s.size());
  report->Set("runtime.codec_decode_us", Median(dec_s) * 1e6, "us",
              dec_s.size());
  report->Set("runtime.codec_mb_per_s",
              codec_bytes / (1 << 20) / (Sum(enc_s) + Sum(dec_s)), "MB/s",
              enc_s.size());

  std::vector<const PreparedGraph*> graphs;
  for (int c = 0; c < n && graphs.size() < 48; ++c) {
    for (const PreparedGraph& g : sim->client(static_cast<size_t>(c))
                                      ->train_graphs()) {
      graphs.push_back(&g);
    }
  }
  ProbeTensor(spec.gnn, graphs, tracer, report);
  ProbeGnn(*sim->client(0)->model(), graphs, /*batch=*/8, tracer, report);
}

// Final mean client accuracy and uplink MB per Run, averaged over the
// federations.
struct Quality {
  double accuracy = 0.0;
  double uplink_mb = 0.0;
};

Quality MeanQuality(const References& refs) {
  Quality q;
  double n = 0.0;
  for (const std::optional<FlResult>& r : refs) {
    if (!r.has_value()) continue;
    q.accuracy += r->mean.accuracy;
    q.uplink_mb += r->total_uplink_wire_bytes / (1 << 20);
    n += 1.0;
  }
  if (n > 0.0) {
    q.accuracy /= n;
    q.uplink_mb /= n;
  }
  return q;
}

void RunFed(const Options& opt, const FedSpec& spec,
            FedWorld (*build)(const Options&), bool report_tta,
            Report* report) {
  report->Info("fl_pool_threads", std::to_string(spec.fl.threads));
  FedWorld world;
  const int repeats = opt.tiny ? 1 : spec.setup_repeats;
  const double setup_s = Median(TimedSetups(repeats, [&] {
    world.corpora.clear();  // one world in memory at a time
    world = build(opt);
    for (const FederatedCorpus& c : world.corpora) Federation(spec, c);
  }));
  report->Set("setup_s", setup_s, "s", repeats);
  report->Set("graph.corpus_s", world.corpus_s, "s");
  report->Info("federations", std::to_string(world.corpora.size()));

  // Untraced window (the end-to-end numbers), then under --trace the
  // same window traced, followed by the layer replay.
  const double window = opt.trace ? opt.seconds * 0.4 : opt.seconds;
  References refs(world.corpora.size());
  Window plain;
  RunWindow(spec, world, window, nullptr, &refs, report, &plain);
  const double round_ms = PerRoundMs(plain, spec, 50.0);
  // Rates are medians over whole cycles of the federations, so a short
  // host stall spoils one cycle rather than the figure.
  const double rounds_per_s = Median(plain.cycle_rounds_per_s);
  const size_t runs = plain.run_s.size();
  report->Set("throughput_per_s", rounds_per_s, "1/s", runs);
  report->Set("latency_p50_ms", round_ms, "ms", runs);
  report->Set("latency_tail_ms", PerRoundMs(plain, spec, 90.0), "ms", runs);
  // The deterministic quality guards, traced or not.
  if (report_tta) {
    report->Set("federated.time_to_acc_s", plain.time_to_acc_s, "s", 1);
  }
  const Quality quality = MeanQuality(refs);
  report->Set("federated.accuracy", quality.accuracy, "ratio", refs.size());
  report->Set("runtime.uplink_mb", quality.uplink_mb, "MB", refs.size());
  if (!opt.trace) return;

  Tracer tracer;
  Window traced;
  RunWindow(spec, world, window, &tracer, &refs, report, &traced);
  const double traced_ms = PerRoundMs(traced, spec, 50.0);
  report->Set("trace.overhead_ms", traced_ms - round_ms, "ms",
              traced.run_s.size());
  report->Set("trace.overhead_pct", (traced_ms - round_ms) / round_ms * 100.0,
              "%", traced.run_s.size());

  // The replay runs on a pool worker, as Run() trains its clients, so the
  // library's kernels take their serial path there too.
  ThreadPool worker(1);
  worker.Submit([&] {
    LayerReplay(spec, world.corpora.front(), opt.seconds * 0.2, round_ms,
                &tracer, report);
  });
  worker.Wait();
  ReportSelfTimes(tracer, report);
  tracer.WriteChromeTrace(opt.out_dir + "/trace-" + opt.workload + ".json");
}

}  // namespace

void RunFedTrain(const Options& opt, Report* report) {
  RunFed(opt, TrainSpec(opt), TrainWorld, /*report_tta=*/true, report);
}

void RunFedFleet(const Options& opt, Report* report) {
  RunFed(opt, FleetSpec(opt, FleetClients(opt)), FleetWorld,
         /*report_tta=*/false, report);
}

}  // namespace perfbench
