#include "probe.h"

#include <algorithm>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace perfbench {
namespace {

using fexiot::Matrix;
using fexiot::PreparedGraph;

// The small-product threshold of tensor/ops.cc: products with
// rows * inner * cols below it take the scalar reference loops.
constexpr double kSmallFlops = 64.0 * 64.0 * 64.0;
// Minimum wall seconds each probe keeps repeating its calls for.
constexpr double kProbeSeconds = 0.05;
// Graphs a probe draws its shapes from.
constexpr size_t kMaxProbeGraphs = 48;

Matrix Random(size_t rows, size_t cols, fexiot::Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform(-1, 1);
  return m;
}

struct GemmCase {
  Matrix a, b;
  int kind;  // 0: A*B, 1: A^T*B, 2: A*B^T
  double flops;
};

}  // namespace

void ProbeTensor(const fexiot::GnnConfig& config,
                 const std::vector<const PreparedGraph*>& graphs,
                 Tracer* tracer, Report* report) {
  fexiot::Rng rng(0x7E5);
  const size_t hidden = static_cast<size_t>(config.hidden_dim);
  std::vector<GemmCase> cases;
  size_t below = 0;
  const size_t ng = std::min(graphs.size(), kMaxProbeGraphs);
  for (size_t g = 0; g < ng; ++g) {
    const size_t n = static_cast<size_t>(graphs[g]->num_nodes);
    for (int l = 0; l < config.num_layers; ++l) {
      const size_t in =
          l == 0 ? static_cast<size_t>(config.input_dim) : hidden;
      const double flops = static_cast<double>(n * in * hidden);
      // Forward H*W, weight gradient H^T*dZ, input gradient dZ*W^T.
      cases.push_back({Random(n, in, &rng), Random(in, hidden, &rng), 0,
                       2.0 * flops});
      cases.push_back({Random(n, in, &rng), Random(n, hidden, &rng), 1,
                       2.0 * flops});
      cases.push_back({Random(n, hidden, &rng), Random(in, hidden, &rng), 2,
                       2.0 * flops});
      if (flops < kSmallFlops) below += 3;
    }
  }
  if (!cases.empty()) {
    Matrix c;
    double flops = 0.0, busy = 0.0;
    while (busy < kProbeSeconds) {
      Span span(tracer, "tensor", "MatMulInto/TransA/TransB");
      const double t0 = NowS();
      for (const GemmCase& k : cases) {
        if (k.kind == 0) fexiot::MatMulInto(k.a, k.b, &c);
        if (k.kind == 1) fexiot::MatMulTransAInto(k.a, k.b, &c);
        if (k.kind == 2) fexiot::MatMulTransBInto(k.a, k.b, &c);
        flops += k.flops;
      }
      busy += NowS() - t0;
    }
    report->Set("tensor.gemm_gflops", flops / busy * 1e-9, "GFLOP/s",
                cases.size());
    report->Set("tensor.gemm_calls_below_cutoff_share",
                static_cast<double>(below) / static_cast<double>(cases.size()),
                "ratio", cases.size());
  }

  std::vector<Matrix> operands;
  std::vector<const PreparedGraph*> sparse;
  for (size_t g = 0; g < ng; ++g) {
    if (graphs[g]->mode != fexiot::PropagationMode::kSparse) continue;
    sparse.push_back(graphs[g]);
    operands.push_back(
        Random(static_cast<size_t>(graphs[g]->num_nodes), hidden, &rng));
  }
  if (!sparse.empty()) {
    Matrix c;
    double busy = 0.0;
    size_t calls = 0;
    while (busy < kProbeSeconds) {
      Span span(tracer, "tensor", "SpMM");
      const double t0 = NowS();
      for (size_t i = 0; i < sparse.size(); ++i) {
        fexiot::SpMM(sparse[i]->prop_csr, operands[i], &c);
      }
      busy += NowS() - t0;
      calls += sparse.size();
    }
    report->Set("tensor.spmm_us", busy / static_cast<double>(calls) * 1e6,
                "us", calls);
  }
}

void ProbeGnn(const fexiot::GnnModel& model,
              const std::vector<const PreparedGraph*>& graphs, int batch,
              Tracer* tracer, Report* report) {
  const size_t ng = std::min(graphs.size(), kMaxProbeGraphs);
  if (ng == 0) return;
  fexiot::GnnModel m = model;
  const std::vector<double> grad(
      static_cast<size_t>(m.config().embedding_dim), 1.0);
  std::vector<double> fwd, bwd;
  std::vector<std::vector<double>> sequential(ng);
  for (size_t g = 0; g < ng; ++g) {
    fexiot::ForwardCache cache;
    double t0 = NowS();
    {
      Span span(tracer, "gnn", "GnnModel::Forward");
      sequential[g] = m.Forward(*graphs[g], &cache);
    }
    fwd.push_back(NowS() - t0);
    t0 = NowS();
    {
      Span span(tracer, "gnn", "GnnModel::Backward");
      m.Backward(cache, grad);
    }
    bwd.push_back(NowS() - t0);
  }
  report->Set("gnn.forward_us", Median(fwd) * 1e6, "us", fwd.size());
  report->Set("gnn.backward_us", Median(bwd) * 1e6, "us", bwd.size());

  // Batched forward over consecutive groups of the same graphs; the
  // embeddings must equal the sequential ones bit for bit.
  double busy = 0.0;
  size_t batched = 0;
  bool equal = true;
  fexiot::GraphBatch gb;
  fexiot::BatchForwardWorkspace ws;
  std::vector<std::vector<double>> embs;
  for (size_t g0 = 0; g0 < ng; g0 += static_cast<size_t>(batch)) {
    const size_t end = std::min(ng, g0 + static_cast<size_t>(batch));
    std::vector<const PreparedGraph*> group;
    for (size_t g = g0; g < end; ++g) {
      if (graphs[g]->mode == fexiot::PropagationMode::kSparse) {
        group.push_back(graphs[g]);
      }
    }
    if (group.size() != end - g0) continue;  // the dense mode cannot batch
    fexiot::AssembleGraphBatch(group, m.config(), &gb);
    const double t0 = NowS();
    {
      Span span(tracer, "gnn", "GnnModel::ForwardBatch");
      m.ForwardBatch(gb, &ws, &embs);
    }
    busy += NowS() - t0;
    batched += group.size();
    for (size_t i = 0; i < group.size(); ++i) {
      equal = equal && embs[i] == sequential[g0 + i];
    }
  }
  if (batched > 0) {
    report->Set("gnn.forward_batch_us",
                busy / static_cast<double>(batched) * 1e6, "us", batched);
    report->Check(equal, "GnnModel::ForwardBatch equals sequential Forward");
  }
}

void ReportSelfTimes(const Tracer& tracer, Report* report) {
  for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
    report->Set("self." + layer + "_s", seconds, "s");
  }
  report->Set("trace.spans", static_cast<double>(tracer.size()), "count");
}

}  // namespace perfbench
