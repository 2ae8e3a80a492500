#pragma once

// Layer probes of the traced run: the tensor and gnn layers timed through
// their public calls on one workload's own prepared graphs and GNN shapes.

#include <vector>

#include "common.h"
#include "gnn/gnn_model.h"
#include "trace.h"

namespace perfbench {

/// \brief Times MatMulInto / MatMulTransAInto / MatMulTransBInto at the
/// per-graph layer-product shapes of \p graphs under \p config (rows = the
/// graph's nodes, inner = the layer's input width, cols = hidden: the
/// forward product, the weight gradient and the input gradient), and
/// SpMM of each graph's propagation CSR against an n x hidden operand.
/// Sets tensor.gemm_gflops, tensor.gemm_calls_below_cutoff_share and
/// tensor.spmm_us.
void ProbeTensor(const fexiot::GnnConfig& config,
                 const std::vector<const fexiot::PreparedGraph*>& graphs,
                 Tracer* tracer, Report* report);

/// \brief Times GnnModel::Forward and Backward per graph and ForwardBatch
/// per batched graph (batches of \p batch graphs) on a copy of \p model.
/// Sets gnn.forward_us, gnn.backward_us and gnn.forward_batch_us.
void ProbeGnn(const fexiot::GnnModel& model,
              const std::vector<const fexiot::PreparedGraph*>& graphs,
              int batch, Tracer* tracer, Report* report);

/// Sets self.<layer>_s for every layer with spans, plus trace.spans.
void ReportSelfTimes(const Tracer& tracer, Report* report);

}  // namespace perfbench
