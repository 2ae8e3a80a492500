// FexIoT benchmark program.
//
//   fexiot_perfbench --workload <fed_train|fed_fleet|serve_stream|analyze>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--tiny] [--out-dir <dir>]
//
// Builds the workload's inputs from the seed, measures for the given
// seconds, checks the outputs, and prints a table followed by one JSON
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
// per-layer ones, which come from a traced run that also writes a Chrome
// trace to <out-dir>/trace-<workload>.json. README.md explains each metric.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "common/parallel.h"

namespace perfbench {
namespace {

struct Schema {
  const char* name;
  const char* unit;
};

// BENCHMARK.json "end_to_end": every workload reports each of these.
const Schema kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
};

// BENCHMARK.json "per_layer": reported by the traced run of every workload,
// 0 where the workload does not exercise that layer.
const Schema kPerLayer[] = {
    {"graph.corpus_s", "s"},
    {"graph.prepare_s", "s"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.gemm_calls_below_cutoff_share", "ratio"},
    {"tensor.spmm_us", "us"},
    {"gnn.forward_us", "us"},
    {"gnn.backward_us", "us"},
    {"gnn.forward_batch_us", "us"},
    {"federated.local_train_p50_ms", "ms"},
    {"federated.local_train_max_ms", "ms"},
    {"federated.straggler_ratio", "ratio"},
    {"federated.nontrain_share_est", "ratio"},
    {"federated.accuracy", "ratio"},
    {"federated.time_to_acc_s", "s"},
    {"runtime.codec_encode_us", "us"},
    {"runtime.codec_decode_us", "us"},
    {"runtime.codec_mb_per_s", "MB/s"},
    {"runtime.execute_round_ms", "ms"},
    {"runtime.delivered_ratio", "ratio"},
    {"runtime.retransmissions", "count"},
    {"runtime.uplink_mb", "MB"},
    {"serving.ingest_p50_us", "us"},
    {"serving.ingest_p99_us", "us"},
    {"serving.request_call_us", "us"},
    {"serving.queue_wait_ms", "ms"},
    {"serving.batch_size_mean", "count"},
    {"serving.rebuilds", "count"},
    {"serving.incremental_updates", "count"},
    {"serving.firings", "count"},
    {"serving.generator_lag_ms", "ms"},
    {"explain.explain_p50_ms", "ms"},
    {"explain.explain_p99_ms", "ms"},
    {"explain.model_evals", "count"},
    {"explain.tt_hit_rate", "ratio"},
    {"explain.memo_hit_rate", "ratio"},
    {"explain.waves", "count"},
    {"explain.fidelity", "ratio"},
    {"core.predict_us", "us"},
    {"ml.drift_us", "us"},
    {"self.graph_s", "s"},
    {"self.tensor_s", "s"},
    {"self.gnn_s", "s"},
    {"self.federated_s", "s"},
    {"self.runtime_s", "s"},
    {"self.serving_s", "s"},
    {"self.explain_s", "s"},
    {"self.core_s", "s"},
    {"self.ml_s", "s"},
    {"trace.spans", "count"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: fexiot_perfbench --workload "
               "<fed_train|fed_fleet|serve_stream|analyze> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--out-dir <dir>]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      opt->tiny = true;
    } else if (a == "--workload" && has_value) {
      opt->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt->trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--out-dir" && has_value) {
      opt->out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds > 0.0;
}

struct Workload {
  const char* name;
  void (*run)(const Options&, Report*);
  // Pools sized to the cores, or one thread. Only fed_train's parallelism
  // is coarse (one task per client-round); the others fan out into short
  // parallel::For loops that wait for their slowest worker, so on a shared
  // host their timings with a worker per core follow the host's scheduler
  // more than the program.
  bool all_cores;
};

const Workload kWorkloads[] = {
    {"fed_train", RunFedTrain, true},
    {"fed_fleet", RunFedFleet, false},
    {"serve_stream", RunServeStream, false},
    {"analyze", RunAnalyze, false},
};

// Size of both pools: FEXIOT_THREADS when set, else the workload's default.
int PoolThreads(const Workload& w) {
  const char* env = std::getenv("FEXIOT_THREADS");
  const long v = env != nullptr ? std::atol(env) : 0;
  if (v > 0) return static_cast<int>(v);
  return w.all_cores ? AffinityCores() : 1;
}

void WriteRecord(const std::string& path, const Options& opt,
                 const Report& report) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,\n",
               opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const auto& [k, v] : report.info()) {
    std::fprintf(f, " \"%s\": \"%s\",\n", k.c_str(), v.c_str());
  }
  std::fprintf(f, " \"values\": {\n");
  size_t i = 0;
  for (const auto& [name, v] : report.values()) {
    std::fprintf(f,
                 "  \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                 "\"samples\": %zu}%s\n",
                 name.c_str(), std::isfinite(v.value) ? v.value : 0.0,
                 v.unit.c_str(), v.samples,
                 ++i < report.values().size() ? "," : "");
  }
  std::fprintf(f, " }\n}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return Usage();
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage();

  fexiot::parallel::SetThreads(static_cast<size_t>(PoolThreads(*workload)));
  opt.threads = static_cast<int>(fexiot::parallel::NumThreads());
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);

  Report report;
  report.Info("host_cores", std::to_string(AffinityCores()));
  report.Info("kernel_pool_threads", std::to_string(opt.threads));
  try {
    workload->run(opt, &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  report.Set("peak_rss_mb", PeakRssMb(), "MB");

  std::printf("workload %s  seed %llu  trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const auto& [k, v] : report.info()) {
    std::printf("  %-40s %s\n", k.c_str(), v.c_str());
  }
  for (const auto& [name, v] : report.values()) {
    std::printf("  %-40s %14.6g %-9s n=%zu\n", name.c_str(), v.value,
                v.unit.c_str(), v.samples);
  }

  // The emitted set: every schema metric, present and finite, or the run
  // is not correct. Per-layer metrics a workload does not touch read 0.
  std::string metrics;
  auto emit = [&](const Schema& s, bool required) {
    const auto it = report.values().find(s.name);
    double value = 0.0;
    if (it != report.values().end() && std::isfinite(it->second.value)) {
      value = it->second.value;
    } else if (required || it != report.values().end()) {
      report.Check(false, std::string("metric ") + s.name + " measured");
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", s.name, value, s.unit);
    metrics += buf;
  };
  if (opt.trace) {
    for (const Schema& s : kPerLayer) emit(s, false);
  } else {
    for (const Schema& s : kEndToEnd) emit(s, true);
  }
  WriteRecord(opt.out_dir + "/record-" + opt.workload + "-trace" +
                  (opt.trace ? "1" : "0") + ".json",
              opt, report);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
