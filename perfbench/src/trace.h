#pragma once

// In-memory span recorder for the traced benchmark run. Spans wrap the
// benchmark's own calls into one FexIoT layer (graph, tensor, gnn,
// federated, runtime, serving, explain, core, ml); they are kept in memory
// and written once, at the end, as Chrome trace-event JSON (loadable in
// chrome://tracing or the Perfetto UI).
//
// The recorder is used from one thread at a time: the calls it wraps may
// fan out over the library's pools, but every span opens and closes on the
// calling thread, so the open-span stack gives each span its parent.

#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  Tracer();

  /// Opens a span; its parent is the innermost span still open.
  int Begin(const char* layer, const char* name);
  /// Closes span \p id (must be the innermost open one).
  void End(int id);

  size_t size() const { return spans_.size(); }
  /// Self seconds per layer: each span's duration minus the part its
  /// direct children cover, summed by layer, in first-seen layer order.
  std::vector<std::pair<std::string, double>> SelfSecondsByLayer() const;
  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// args carry the span id, its parent id (-1 for roots) and its end.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    const char* layer;
    const char* name;
    double start_s;
    double end_s;
    int parent;
  };
  double origin_s_;
  // A deque grows without relocating, so recording never stalls on a copy.
  std::deque<Record> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, const char* layer, const char* name)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(layer, name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
