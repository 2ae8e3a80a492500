// analyze: the FexIoT facade. A local GCN is trained in setup; Analyze then
// runs over a held-out stream of graphs with 6-16 rules: detect, MAD drift,
// and SHAP-MCBS explanation of flagged graphs. Unflagged graphs cost two
// forward passes, flagged ones an explanation search; the stream is 40%
// flagged at every size, so the median isolates the predict path and p95
// the explain path.

#include <memory>

#include "common.h"
#include "core/fexiot.h"
#include "graph/corpus.h"
#include "probe.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace fexiot;

constexpr int kMinRules = 6;
constexpr int kMaxRules = 16;
// Stream graphs per graph size; kFlaggedShare of them flagged.
constexpr int kPerSize = 120;
constexpr double kFlaggedShare = 0.4;
// Held-out graphs of one size are drawn in chunks of kChunk until both of
// the size's quotas are full (or kMaxChunks chunks were drawn).
constexpr int kChunk = 20;
constexpr int kMaxChunks = 200;
constexpr uint64_t kTrainSeed = 71;

struct World {
  std::vector<InteractionGraph> stream;
  std::unique_ptr<FexIoT> fexiot;
  size_t expected = 0;  // stream length when every quota is filled
  double corpus_s = 0.0;
};

World BuildWorld(const Options& opt) {
  World w;
  CorpusOptions copt;
  copt.min_nodes = kMinRules;
  copt.max_nodes = kMaxRules;
  copt.vulnerable_fraction = 0.5;
  // The deployed detector is trained on a fixed corpus; the seed draws the
  // held-out traffic it analyzes.
  double t0 = NowS();
  Rng train_rng(kTrainSeed);
  GraphCorpusGenerator train_gen(copt, &train_rng);
  GraphDataset train(train_gen.GenerateDataset(opt.tiny ? 60 : 240));
  w.corpus_s = NowS() - t0;
  FexIotConfig config;
  config.seed = kTrainSeed;
  config.train.epochs = 6;
  config.train.learning_rate = 0.1;
  w.fexiot = std::make_unique<FexIoT>(config);
  const Status st = w.fexiot->TrainLocal(train);
  if (!st.ok()) {
    w.fexiot.reset();
    return w;
  }
  // The stream holds, for every graph size, the same number of graphs the
  // detector flags (kFlaggedShare of them) and of graphs it passes, taken
  // in order from seeded held-out graphs of that size. The mix of
  // explain-path and predict-path requests and the sizes they come in are
  // thus fixed, and only the graphs themselves vary with the seed.
  const int per_size = opt.tiny ? 5 : kPerSize;
  const int flagged_quota = static_cast<int>(kFlaggedShare * per_size);
  w.expected = static_cast<size_t>((kMaxRules - kMinRules + 1) * per_size);
  const Rng root(opt.seed);
  for (int n = kMinRules; n <= kMaxRules; ++n) {
    int need_flagged = flagged_quota;
    int need_passed = per_size - flagged_quota;
    CorpusOptions size_opt = copt;
    size_opt.min_nodes = n;
    size_opt.max_nodes = n;
    Rng rng = root.ForkAt(static_cast<uint64_t>(n));
    GraphCorpusGenerator gen(size_opt, &rng);
    for (int chunk = 0;
         (need_flagged > 0 || need_passed > 0) && chunk < kMaxChunks;
         ++chunk) {
      t0 = NowS();
      std::vector<InteractionGraph> pool = gen.GenerateDataset(kChunk);
      w.corpus_s += NowS() - t0;
      for (InteractionGraph& g : pool) {
        if (g.num_nodes() != n) continue;
        int& need = w.fexiot->Predict(g) == 1 ? need_flagged : need_passed;
        if (need == 0) continue;
        --need;
        w.stream.push_back(std::move(g));
      }
    }
  }
  return w;
}

}  // namespace

void RunAnalyze(const Options& opt, Report* report) {
  World w;
  const int repeats = opt.tiny ? 1 : 3;
  report->Set("setup_s",
              Median(TimedSetups(repeats, [&] { w = BuildWorld(opt); })), "s",
              repeats);
  report->Set("graph.corpus_s", w.corpus_s, "s");
  report->Check(w.fexiot != nullptr, "FexIoT::TrainLocal");
  if (w.fexiot == nullptr) return;
  report->Check(w.stream.size() == w.expected,
                "held-out stream fills every size quota");
  const FexIoT& fx = *w.fexiot;
  const int max_nodes = SearchOptions().max_subgraph_nodes;

  // Checks on the first pass over the stream (untimed): the verdict agrees
  // with Predict, and an explanation is a connected set of at most
  // max_subgraph_nodes nodes, present exactly for flagged graphs.
  std::vector<double> fidelity;
  size_t flagged = 0;
  for (size_t i = 0; i < w.stream.size(); ++i) {
    const InteractionGraph& g = w.stream[i];
    const FexIoT::Verdict v = fx.Analyze(g);
    flagged += v.label == 1 ? 1 : 0;
    report->Check(v.label == fx.Predict(g), "verdict label equals Predict");
    const bool want = v.label == 1 && g.num_nodes() > 1;
    report->Check(v.explanation.has_value() == want,
                  "flagged graphs carry an explanation");
    if (!v.explanation.has_value()) continue;
    const std::vector<int>& nodes = v.explanation->subgraph_nodes;
    report->Check(!nodes.empty() &&
                      static_cast<int>(nodes.size()) <= max_nodes &&
                      g.IsConnectedSubset(nodes),
                  "explanation is a connected set of at most "
                  "max_subgraph_nodes nodes");
    GnnGraphScorer scorer(w.fexiot->model(), &fx.head(), &g);
    fidelity.push_back(EvaluateExplanation(scorer, nodes).fidelity);
  }
  const size_t n_stream = w.stream.size();
  report->Set("analyze_flagged_share",
              static_cast<double>(flagged) / static_cast<double>(n_stream),
              "ratio", n_stream);
  report->Set("explain.fidelity", Mean(fidelity), "ratio", fidelity.size());

  // Timed window: whole passes of Analyze over the stream until time is
  // up. Rates and percentiles are per pass, reported as medians. The
  // traced window does the same work, each Analyze call in one span.
  struct Passes {
    std::vector<double> ms, rate, p50, p95;
  };
  auto window = [&](double seconds, Tracer* tracer) {
    Passes out;
    const double start = NowS();
    do {
      std::vector<double> ms;
      const double pass_start = NowS();
      for (const InteractionGraph& g : w.stream) {
        const double t0 = NowS();
        {
          Span span(tracer, "core", "FexIoT::Analyze");
          fx.Analyze(g);
        }
        ms.push_back((NowS() - t0) * 1e3);
      }
      out.rate.push_back(static_cast<double>(ms.size()) /
                         (NowS() - pass_start));
      out.p50.push_back(Percentile(ms, 50.0));
      out.p95.push_back(Percentile(ms, 95.0));
      out.ms.insert(out.ms.end(), ms.begin(), ms.end());
    } while (NowS() - start < seconds);
    report->Ops(out.ms.size());
    return out;
  };

  const Passes plain =
      window(opt.trace ? opt.seconds * 0.4 : opt.seconds, nullptr);
  const size_t n_ms = plain.ms.size();
  report->Set("throughput_per_s", Median(plain.rate), "1/s", n_ms);
  report->Set("latency_p50_ms", Median(plain.p50), "ms", n_ms);
  report->Set("latency_tail_ms", Median(plain.p95), "ms", n_ms);
  report->Info("analyze_passes", std::to_string(plain.rate.size()));
  if (!opt.trace) return;

  Tracer tracer;
  const Passes traced = window(opt.seconds * 0.4, &tracer);
  const double plain_ms = Mean(plain.ms);
  const double extra_ms = Mean(traced.ms) - plain_ms;
  report->Set("trace.overhead_ms", extra_ms, "ms", traced.ms.size());
  report->Set("trace.overhead_pct", extra_ms / plain_ms * 100.0, "%",
              traced.ms.size());

  // Stage probe: one pass over the stream calling Analyze's stages as
  // separate public calls, each in its own span: PredictProba and
  // DriftScore on every graph, Explain on the graphs Predict flags.
  std::vector<double> predict_us, drift_us, explain_ms;
  double evals = 0, tt_hits = 0, scored = 0, memo_hits = 0, waves = 0;
  for (const InteractionGraph& g : w.stream) {
    double t = NowS();
    {
      Span span(&tracer, "core", "FexIoT::PredictProba");
      fx.PredictProba(g);
    }
    predict_us.push_back((NowS() - t) * 1e6);
    t = NowS();
    {
      Span span(&tracer, "ml", "FexIoT::DriftScore");
      fx.DriftScore(g);
    }
    drift_us.push_back((NowS() - t) * 1e6);
    if (fx.Predict(g) != 1 || g.num_nodes() <= 1) continue;
    t = NowS();
    ExplanationResult e;
    {
      Span span(&tracer, "explain", "FexIoT::Explain");
      e = fx.Explain(g);
    }
    explain_ms.push_back((NowS() - t) * 1e3);
    evals += e.model_evaluations;
    tt_hits += static_cast<double>(e.tt_hits);
    scored += e.subgraphs_scored;
    memo_hits += static_cast<double>(e.score_memo_hits);
    waves += e.waves;
  }
  report->Set("core.predict_us", Median(predict_us), "us", predict_us.size());
  report->Set("ml.drift_us", Median(drift_us), "us", drift_us.size());
  const size_t n = explain_ms.size();
  const double per = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  report->Set("explain.explain_p50_ms", Percentile(explain_ms, 50.0), "ms",
              n);
  report->Set("explain.explain_p99_ms", Percentile(explain_ms, 99.0), "ms",
              n);
  report->Set("explain.model_evals", evals * per, "count", n);
  report->Set("explain.tt_hit_rate", tt_hits / (tt_hits + scored), "ratio",
              n);
  report->Set("explain.memo_hit_rate", memo_hits / (memo_hits + evals),
              "ratio", n);
  report->Set("explain.waves", waves * per, "count", n);

  const double t0 = NowS();
  std::vector<PreparedGraph> prepared;
  {
    Span span(&tracer, "graph", "PrepareGraphs");
    prepared = PrepareGraphs(w.stream, w.fexiot->model()->config());
  }
  report->Set("graph.prepare_s", NowS() - t0, "s", prepared.size());
  std::vector<const PreparedGraph*> graphs;
  for (const PreparedGraph& g : prepared) graphs.push_back(&g);
  ProbeTensor(w.fexiot->model()->config(), graphs, &tracer, report);
  ProbeGnn(*w.fexiot->model(), graphs, /*batch=*/8, &tracer, report);
  ReportSelfTimes(tracer, report);
  tracer.WriteChromeTrace(opt.out_dir + "/trace-" + opt.workload + ".json");
}

}  // namespace perfbench
