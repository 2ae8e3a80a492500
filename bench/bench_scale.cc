// Million-client scale-out trajectory bench: sweeps the federation size
// from 1k to 1M clients under sampled participation, lazy client state,
// and the hierarchical streaming-aggregation tree, all driven by the one
// discrete-event FederatedRuntime. Each size runs kRepeats times and
// records the median wall time and scheduler events/sec with their
// quartiles, plus peak RSS: client state is O(sample), the runtime's
// per-client arrays are O(clients). Prints a table and writes a JSON perf
// record (BENCH_scale.json by default, or the path in argv[1]).

#include <sched.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "federated/scale_sim.h"

namespace fexiot {
namespace bench {
namespace {

constexpr int kRepeats = 5;  // odd: the median is a run that happened
constexpr int kSamplePerRound = 64;

/// Median and quartiles of one timing over the repeats.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

Spread SpreadOf(const std::vector<double>& samples) {
  return {Summarize(samples).p50, Percentile(samples, 25.0),
          Percentile(samples, 75.0)};
}

/// One federation size: the timings' spread over the repeats, and the
/// last run for everything else (deterministic, or the process peak).
struct ScaleRecord {
  uint64_t clients = 0;
  Spread wall_seconds;
  Spread events_per_sec;
  ScaleFlResult last;
  int delivered = 0;
};

/// CPUs this process may run on (its affinity mask), not the machine's.
int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

ScaleFlConfig ConfigFor(uint64_t clients) {
  ScaleFlConfig cfg;
  cfg.num_clients = clients;
  cfg.num_rounds = Scaled(2);
  cfg.client.corpus.platforms = {Platform::kIfttt};
  cfg.client.corpus.min_nodes = 3;
  cfg.client.corpus.max_nodes = 8;
  cfg.client.corpus.vulnerable_fraction = 0.4;
  cfg.client.graphs_per_client = 5;
  cfg.client.num_clusters = 4;
  cfg.client.profile_strength = 0.5;
  cfg.client.model.hidden_dim = 8;
  cfg.client.model.embedding_dim = 8;
  cfg.train.epochs = 1;
  cfg.train.learning_rate = 0.02;
  RuntimeConfig& rc = cfg.runtime;
  rc.participation_fraction =
      static_cast<double>(kSamplePerRound) / static_cast<double>(clients);
  rc.topology.edge_fanout = 64;
  rc.topology.regional_fanout = 16;
  rc.topology.edge_up.latency_s = 0.05;
  rc.topology.regional_up.latency_s = 0.02;
  rc.default_up.latency_s = 0.1;
  rc.default_up.loss_prob = 0.05;
  return cfg;
}

ScaleRecord RunOne(uint64_t clients) {
  const ScaleFlConfig cfg = ConfigFor(clients);
  ScaleRecord rec;
  rec.clients = clients;
  std::vector<double> wall, eps;
  for (int rep = 0; rep < kRepeats; ++rep) {
    rec.last = ScaleSimulator(cfg).Run().value();
    wall.push_back(rec.last.wall_seconds);
    eps.push_back(rec.last.events_per_sec);
  }
  rec.wall_seconds = SpreadOf(wall);
  rec.events_per_sec = SpreadOf(eps);
  for (const ScaleRoundStats& r : rec.last.rounds) {
    rec.delivered += static_cast<int>(r.outcome.delivered.size());
  }
  return rec;
}

constexpr double kMb = 1024.0 * 1024.0;

bool WriteJson(const std::string& path,
               const std::vector<ScaleRecord>& records) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"scale\",\n");
  std::fprintf(f, "  \"version\": 2,\n");
  std::fprintf(f, "  \"sweep\": \"num_clients x peak_rss x events_per_sec\",\n");
  std::fprintf(f, "  \"host_cpus\": %d,\n", HostCpus());
  std::fprintf(f, "  \"repeats\": %d,\n", kRepeats);
  std::fprintf(f, "  \"records\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const ScaleRecord& r = records[i];
    const ScaleFlResult& res = r.last;
    std::fprintf(
        f,
        "    {\"clients\": %llu, \"sample_per_round\": %d, \"rounds\": %zu, "
        "\"delivered\": %d, \"events\": %llu, "
        "\"events_per_sec\": %.1f, \"events_per_sec_q1\": %.1f, "
        "\"events_per_sec_q3\": %.1f, \"wall_seconds\": %.4f, "
        "\"wall_seconds_q1\": %.4f, \"wall_seconds_q3\": %.4f, "
        "\"sim_time_s\": %.3f, \"uplink_mb\": %.3f, \"downlink_mb\": %.3f, "
        "\"materializations\": %llu, \"peak_live_clients\": %llu, "
        "\"rss_mb\": %.1f, \"peak_rss_mb\": %.1f}%s\n",
        static_cast<unsigned long long>(r.clients), kSamplePerRound,
        res.rounds.size(), r.delivered,
        static_cast<unsigned long long>(res.total_events),
        r.events_per_sec.median, r.events_per_sec.q1, r.events_per_sec.q3,
        r.wall_seconds.median, r.wall_seconds.q1, r.wall_seconds.q3,
        res.total_sim_time_s, res.total_uplink_wire_bytes / kMb,
        res.total_downlink_wire_bytes / kMb,
        static_cast<unsigned long long>(res.materializations),
        static_cast<unsigned long long>(res.peak_live_clients),
        res.current_rss_mb, res.peak_rss_mb,
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  PrintHeader("SCALE", "lazy-state federation sweep: clients x RSS x events/s");
  const std::vector<uint64_t> sizes = {1000, 10000, 100000, 1000000};
  std::vector<ScaleRecord> records;
  TablePrinter table({"clients", "delivered", "events", "events/s [q1,q3]",
                      "wall s [q1,q3]", "up MB", "peak live", "peak RSS MB"});
  auto spread = [](const Spread& s, int precision) {
    return Fmt(s.median, precision) + " [" + Fmt(s.q1, precision) + "," +
           Fmt(s.q3, precision) + "]";
  };
  for (uint64_t clients : sizes) {
    records.push_back(RunOne(clients));
    const ScaleRecord& r = records.back();
    table.AddRow({std::to_string(r.clients), std::to_string(r.delivered),
                  std::to_string(r.last.total_events),
                  spread(r.events_per_sec, 0), spread(r.wall_seconds, 3),
                  Fmt(r.last.total_uplink_wire_bytes / kMb),
                  std::to_string(r.last.peak_live_clients),
                  Fmt(r.last.peak_rss_mb, 1)});
  }
  table.Print();
  std::printf(
      "\nmedian of %d repeats per size, %d clients sampled per round. Client\n"
      "state exists only while a participant trains (peak live <= pool\n"
      "width); RSS growth with the federation is the runtime's per-client\n"
      "arrays.\n",
      kRepeats, kSamplePerRound);
  return WriteJson(argc > 1 ? argv[1] : "BENCH_scale.json", records) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace fexiot

int main(int argc, char** argv) { return fexiot::bench::Main(argc, argv); }
