// serve_stream: 64 chained homes (13 rules, SmartThings / Home Assistant)
// behind one StreamingDetectionEngine with max_batch 8. The homes' cleaned
// event logs and a Poisson/burst stream of detection requests are merged
// in timestamp order on one clock and replayed in two ways:
//
//  - open loop: every operation is due at a fixed wall time (stream time
//    divided by kSpeedup); the generator waits for it, and each request is
//    timed from when it was due, so a stall also delays the requests
//    queued behind it;
//  - saturation: the same stream replayed as fast as the engine answers.
//
// The window alternates one open-loop pass with kSaturateS of saturation
// passes until time is up, so both figures sample the whole run rather
// than one stretch of it (the host's speed drifts over seconds). The
// schedule is a pure function of the seed. This is the only workload
// with graph writes (ingest, delta CSR maintenance, rebuilds) among reads.

#include <algorithm>
#include <memory>
#include <limits>

#include "common.h"
#include "probe.h"
#include "serving/arrivals.h"
#include "serving/engine.h"
#include "smarthome/home.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace fexiot;

constexpr int kHomes = 64;
constexpr int kRules = 13;
constexpr int kMaxBatch = 8;

// The traffic, in stream seconds unless named wall, derived from the
// repository's serving benchmark (bench/bench_serving.cc); README.md,
// "serve_stream traffic", shows the conversion.
//
// Event density: bench_serving's mean gap between a home's exogenous
// events.
constexpr double kExogenousGapS = 120.0;
// Detection requests: each home is checked, on average, once per
// exogenous-event gap, so requests and ingests come about one to one.
// This read/write mix is an assumption; no deployment figure fixes it.
constexpr double kRequestsPerStreamS = kHomes / kExogenousGapS;
// Open-loop load: about an eighth of the one-thread saturation rate
// measured on a 4-vCPU host (bursts three eighths), so the open loop
// measures latency below saturation.
constexpr double kRequestsPerWallS = 1500.0;
// Stream seconds replayed per wall second in the open loop.
constexpr double kSpeedup = kRequestsPerWallS / kRequestsPerStreamS;
// bench_serving's request stream (800 requests/s, 0.05 s linger, 3x bursts
// for the first quarter of every 4 s) kept in requests: 40 base-rate
// requests per linger window, 3200 per burst cycle.
constexpr double kLingerS = 800.0 * 0.05 / kRequestsPerStreamS;
constexpr double kBurstPeriodS = 800.0 * 4.0 / kRequestsPerStreamS;
// The stream is one burst cycle (about 2.1 wall s in the open loop and
// 4800 requests), so every pass holds the same burst share whatever the
// seed. Saturation passes follow each open-loop pass for kSaturateS.
constexpr double kStreamS = kBurstPeriodS;
constexpr double kSaturateS = 2.0;

struct Op {
  double t;  // stream seconds
  int home;
  int entry;  // index into the home's log, or -1 for a detection request
};

struct World {
  std::vector<Home> homes;
  std::vector<std::vector<LogEntry>> logs;
  std::vector<Op> ops;
  std::vector<double> request_t;  // ascending, one per request op
  GnnConfig gnn;
  std::unique_ptr<GnnModel> model;
};

World BuildWorld(const Options& opt) {
  World w;
  const int homes = opt.tiny ? 8 : kHomes;
  const double stream_s = opt.tiny ? 0.1 * kStreamS : kStreamS;
  const Rng root(opt.seed);
  for (int h = 0; h < homes; ++h) {
    Rng rng = root.ForkAt(static_cast<uint64_t>(h));
    w.homes.push_back(BuildChainedHome(
        kRules, {Platform::kSmartThings, Platform::kHomeAssistant}, &rng));
    SimulationConfig config;
    config.duration_seconds = stream_s;
    config.exogenous_mean_gap = kExogenousGapS;
    HomeSimulator sim(w.homes.back(), config, &rng);
    w.logs.push_back(sim.Run().Cleaned().entries());
    for (size_t i = 0; i < w.logs.back().size(); ++i) {
      w.ops.push_back({w.logs.back()[i].timestamp, h, static_cast<int>(i)});
    }
  }
  ArrivalConfig ac;
  ac.rate_hz = kRequestsPerStreamS;
  ac.burst_factor = 3.0;
  ac.burst_fraction = 0.25;
  ac.burst_period_s = kBurstPeriodS;
  ac.seed = opt.seed ^ 0xA11CE;
  ArrivalGenerator gen(ac);
  // Jittered round-robin: every home is polled once per cycle, in a fresh
  // order each cycle, so a home rarely re-requests while still pending.
  Rng pick = root.ForkAt(0xC7C1E);
  std::vector<int> cycle(static_cast<size_t>(homes));
  for (int h = 0; h < homes; ++h) cycle[static_cast<size_t>(h)] = h;
  for (size_t k = 0;; ++k) {
    const double t = gen.Next();
    if (t >= stream_s) break;
    if (k % cycle.size() == 0) pick.Shuffle(&cycle);
    w.ops.push_back({t, cycle[k % cycle.size()], -1});
  }
  // Ingests sort before requests at equal timestamps.
  std::stable_sort(w.ops.begin(), w.ops.end(), [](const Op& a, const Op& b) {
    return a.t < b.t || (a.t == b.t && a.entry >= 0 && b.entry < 0);
  });
  for (const Op& op : w.ops) {
    if (op.entry < 0) w.request_t.push_back(op.t);
  }
  w.gnn.hidden_dim = 64;
  w.gnn.seed = opt.seed;
  w.model = std::make_unique<GnnModel>(w.gnn);
  return w;
}

std::unique_ptr<StreamingDetectionEngine> NewEngine(const World& w,
                                                     Report* report) {
  ServingConfig sc;
  sc.max_batch = kMaxBatch;
  sc.max_linger_s = kLingerS;
  auto engine = std::make_unique<StreamingDetectionEngine>(w.model.get(), sc);
  for (size_t h = 0; h < w.homes.size(); ++h) {
    report->Op(engine->AddHome(static_cast<int>(h), w.homes[h]),
               "StreamingDetectionEngine::AddHome");
  }
  return engine;
}

// Index of the request a result answers (request times are unique).
size_t RequestIndex(const World& w, double t) {
  return static_cast<size_t>(
      std::lower_bound(w.request_t.begin(), w.request_t.end(), t) -
      w.request_t.begin());
}

// One replay of the stream. With \p open_loop each operation waits for its
// due time; otherwise the stream runs as fast as the engine answers.
struct Pass {
  std::vector<double> latency_ms;  // per request, from due (open loop)
  std::vector<double> lag_ms;      // generator lateness per operation
  std::vector<double> ingest_us, call_us, wait_ms;
  std::vector<double> answered_at;  // wall time each request was answered
  ServingStats stats;
};

Pass Replay(const World& w, bool open_loop, bool check_embeddings,
            Tracer* tracer, Report* report) {
  std::unique_ptr<StreamingDetectionEngine> engine = NewEngine(w, report);
  Pass p;
  std::vector<int> answers(w.request_t.size(), 0);
  std::vector<double> answered_at(w.request_t.size(),
                                  std::numeric_limits<double>::infinity());
  std::vector<PreparedGraph> snapshots(check_embeddings ? w.request_t.size()
                                                        : 0);
  std::vector<DetectionResult> done;
  const double start = NowS() + 0.001;
  auto due = [&](double t) { return start + t / kSpeedup; };
  auto collect = [&](double call_start) {
    const double now = NowS();
    for (const DetectionResult& r : done) {
      const size_t i = RequestIndex(w, r.request_time);
      if (i >= answers.size() || w.request_t[i] != r.request_time) {
        report->Check(false, "result matches a request");
        continue;
      }
      ++answers[i];
      answered_at[i] = now;
      if (open_loop) {
        p.wait_ms.push_back((call_start - due(r.request_time)) * 1e3);
      }
      if (check_embeddings && !snapshots[i].features.empty()) {
        report->Check(r.embedding == w.model->Forward(snapshots[i], nullptr),
                      "batched embedding equals sequential Forward");
      }
    }
    done.clear();
  };
  size_t k = 0;
  for (const Op& op : w.ops) {
    if (open_loop) {
      // Spin rather than sleep: a wake-up from sleep can itself be late by
      // more than the gaps between operations.
      const double d = due(op.t);
      while (NowS() < d) {
      }
      p.lag_ms.push_back((NowS() - d) * 1e3);
    }
    double t0 = NowS();
    {
      Span span(tracer, "serving", "StreamingDetectionEngine::AdvanceTo");
      engine->AdvanceTo(op.t, &done);
    }
    if (!done.empty()) {
      p.call_us.push_back((NowS() - t0) * 1e6);
      collect(t0);
    }
    t0 = NowS();
    if (op.entry >= 0) {
      Status st;
      {
        Span span(tracer, "serving", "StreamingDetectionEngine::Ingest");
        st = engine->Ingest(op.home, w.logs[static_cast<size_t>(op.home)]
                                          [static_cast<size_t>(op.entry)]);
      }
      p.ingest_us.push_back((NowS() - t0) * 1e6);
      report->Op(st, "StreamingDetectionEngine::Ingest");
      continue;
    }
    Status st;
    {
      Span span(tracer, "serving",
                "StreamingDetectionEngine::RequestDetection");
      st = engine->RequestDetection(op.home, op.t, &done);
    }
    report->Op(st, "StreamingDetectionEngine::RequestDetection");
    // Sampled requests: keep the snapshot the engine just took.
    if (check_embeddings && (k % 61 == 0)) {
      snapshots[k] = *engine->prepared(op.home);
    }
    ++k;
    if (!done.empty()) {
      p.call_us.push_back((NowS() - t0) * 1e6);
      collect(t0);
    }
  }
  {
    Span span(tracer, "serving", "StreamingDetectionEngine::Flush");
    engine->Flush(&done);
  }
  collect(NowS());
  p.stats = engine->stats();

  bool once = true;
  for (size_t i = 0; i < answers.size(); ++i) {
    once = once && answers[i] == 1;
    // Unanswered requests count as misses: infinite latency.
    if (open_loop) {
      p.latency_ms.push_back((answered_at[i] - due(w.request_t[i])) * 1e3);
    }
  }
  report->Check(once, "every request is answered exactly once");
  p.answered_at = std::move(answered_at);
  return p;
}

// Saturation passes for \p seconds (at least one). Appends to \p rates
// each pass's answers per wall second, first answer to last. A pass is
// the whole stream, so every rate covers one burst cycle: parts of a pass
// would mix burst parts (three requests to each ingest) with base parts
// (one to one), and their median would flip between the two.
void Saturate(const World& w, double seconds, Tracer* tracer, Report* report,
              std::vector<double>* rates) {
  const double end = NowS() + seconds;
  do {
    const Pass p = Replay(w, /*open_loop=*/false, false, tracer, report);
    const auto [first, last] =
        std::minmax_element(p.answered_at.begin(), p.answered_at.end());
    rates->push_back(static_cast<double>(p.answered_at.size() - 1) /
                     (*last - *first));
  } while (NowS() < end);
}

// Open-loop latency percentiles of each pass, over the whole burst cycle.
// Unanswered requests carry an infinite latency, so they count as misses.
struct OpenLoop {
  std::vector<double> p50, p90, p99;
  size_t requests = 0;
};

void AddPass(const Pass& p, OpenLoop* out) {
  out->p50.push_back(Percentile(p.latency_ms, 50.0));
  out->p90.push_back(Percentile(p.latency_ms, 90.0));
  out->p99.push_back(Percentile(p.latency_ms, 99.0));
  out->requests += p.latency_ms.size();
}

}  // namespace

void RunServeStream(const Options& opt, Report* report) {
  // Set-up takes tens of ms here, so it is repeated often, in groups spread
  // over the run (the first builds the world kept, the others a scratch
  // copy): a host slowdown lasting a second or two then shifts a group or
  // two rather than the median.
  const int repeats = opt.tiny ? 1 : 11;
  World w;
  std::vector<double> setup_s =
      TimedSetups(repeats, [&] { w = BuildWorld(opt); });
  auto more_setups = [&] {
    for (double t : TimedSetups(repeats, [&] { BuildWorld(opt); })) {
      setup_s.push_back(t);
    }
  };
  report->Info("requests_per_pass", std::to_string(w.request_t.size()));
  report->Info("ops_per_pass", std::to_string(w.ops.size()));

  // Checked pass (untimed): sampled batched embeddings vs Forward.
  Replay(w, /*open_loop=*/false, /*check_embeddings=*/true, nullptr, report);
  more_setups();

  // The window: open-loop pass, saturation passes, set-ups, until time is
  // up (the set-ups do not count against it).
  OpenLoop open;
  std::vector<double> rates, lag_ms;
  double latency_sum = 0.0;
  double end = NowS() + (opt.trace ? opt.seconds * 0.6 : opt.seconds);
  do {
    const Pass pass = Replay(w, /*open_loop=*/true, false, nullptr, report);
    AddPass(pass, &open);
    for (double ms : pass.latency_ms) latency_sum += ms;
    lag_ms.insert(lag_ms.end(), pass.lag_ms.begin(), pass.lag_ms.end());
    Saturate(w, kSaturateS, nullptr, report, &rates);
    const double t0 = NowS();
    more_setups();
    end += NowS() - t0;
  } while (NowS() < end);
  report->Set("setup_s", Median(setup_s), "s", setup_s.size());
  report->Set("throughput_per_s", Median(rates), "1/s", rates.size());
  report->Set("latency_p50_ms", Median(open.p50), "ms", open.requests);
  report->Set("latency_tail_ms", Median(open.p90), "ms", open.requests);
  report->Set("serve_p99_ms", Median(open.p99), "ms", open.requests);
  report->Set("serving.generator_lag_ms", Percentile(lag_ms, 99.0), "ms",
              lag_ms.size());
  if (!opt.trace) return;

  Tracer tracer;
  const Pass traced = Replay(w, /*open_loop=*/true, false, &tracer, report);
  std::vector<double> traced_rates;
  Saturate(w, kSaturateS, &tracer, report, &traced_rates);
  const double traced_mean = Mean(traced.latency_ms);
  const double plain_mean = latency_sum / static_cast<double>(open.requests);
  const size_t n = traced.latency_ms.size();
  report->Set("trace.overhead_ms", traced_mean - plain_mean, "ms", n);
  report->Set("trace.overhead_pct",
              (traced_mean - plain_mean) / plain_mean * 100.0, "%", n);
  const ServingStats& s = traced.stats;
  report->Set("serving.ingest_p50_us", Percentile(traced.ingest_us, 50.0),
              "us", traced.ingest_us.size());
  report->Set("serving.ingest_p99_us", Percentile(traced.ingest_us, 99.0),
              "us", traced.ingest_us.size());
  report->Set("serving.request_call_us", Median(traced.call_us), "us",
              traced.call_us.size());
  report->Set("serving.queue_wait_ms", Median(traced.wait_ms), "ms",
              traced.wait_ms.size());
  report->Set("serving.batch_size_mean",
              s.batches > 0 ? static_cast<double>(s.requests) /
                                  static_cast<double>(s.batches)
                            : 0.0,
              "count", s.batches);
  report->Set("serving.rebuilds", static_cast<double>(s.rebuilds), "count");
  report->Set("serving.incremental_updates",
              static_cast<double>(s.incremental_updates), "count");
  report->Set("serving.firings", static_cast<double>(s.firings), "count");

  // Layer probes on the homes' final graphs: per-home shapes for the gnn
  // layer, batch-stacked shapes for the tensor layer.
  std::unique_ptr<StreamingDetectionEngine> engine = NewEngine(w, report);
  for (const Op& op : w.ops) {
    if (op.entry >= 0) {
      report->Op(engine->Ingest(op.home, w.logs[static_cast<size_t>(op.home)]
                                               [static_cast<size_t>(op.entry)]),
                 "StreamingDetectionEngine::Ingest");
    }
  }
  std::vector<DetectionResult> done;
  std::vector<const PreparedGraph*> homes;
  for (size_t h = 0; h < w.homes.size(); ++h) {
    // A request refreshes the home's snapshot state before it is read.
    report->Op(engine->RequestDetection(static_cast<int>(h), w.ops.back().t,
                                        &done),
               "StreamingDetectionEngine::RequestDetection");
    engine->Flush(&done);
    homes.push_back(engine->prepared(static_cast<int>(h)));
  }
  std::vector<GraphBatch> batches((homes.size() + kMaxBatch - 1) / kMaxBatch);
  std::vector<const PreparedGraph*> stacked;
  for (size_t b = 0; b < batches.size(); ++b) {
    std::vector<const PreparedGraph*> group(
        homes.begin() + static_cast<long>(b * kMaxBatch),
        homes.begin() +
            static_cast<long>(std::min(homes.size(), (b + 1) * kMaxBatch)));
    AssembleGraphBatch(group, w.gnn, &batches[b]);
    stacked.push_back(&batches[b].stacked);
  }
  ProbeTensor(w.gnn, stacked, &tracer, report);
  ProbeGnn(*w.model, homes, kMaxBatch, &tracer, report);
  ReportSelfTimes(tracer, report);
  tracer.WriteChromeTrace(opt.out_dir + "/trace-" + opt.workload + ".json");
}

}  // namespace perfbench
