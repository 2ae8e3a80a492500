#include "trace.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

Tracer::Tracer() : origin_s_(NowS()) {}

int Tracer::Begin(const char* layer, const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({layer, name, NowS(), 0.0, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_s = NowS();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::SelfSecondsByLayer()
    const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      self[static_cast<size_t>(r.parent)] -= r.end_s - r.start_s;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    size_t k = 0;
    while (k < out.size() && out[k].first != spans_[i].layer) ++k;
    if (k == out.size()) out.emplace_back(spans_[i].layer, 0.0);
    out[k].second += self[i];
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    const double ts_us = (r.start_s - origin_s_) * 1e6;
    const double end_us = (r.end_s - origin_s_) * 1e6;
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, "
                 "\"end_us\": %.3f}}%s\n",
                 r.name, r.layer, ts_us, end_us - ts_us, i, r.parent, end_us,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
