// In-memory spans around the benchmark's calls into each layer. One Tracer
// per client thread; spans are written out when the run ends and the
// per-layer metrics are derived from them.
#ifndef BLINKBENCH_TRACE_H_
#define BLINKBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace bench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the same tracer, -1 = root
  uint64_t query_id = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  // Opens a span under the innermost open one; returns its index.
  size_t Begin(const char* name, uint64_t query_id) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    s.query_id = query_id;
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    spans_.back().start_ns = NowNs();
    return spans_.size() - 1;
  }
  void End(size_t index) {
    spans_[index].end_ns = NowNs();
    if (!open_.empty() && open_.back() == index) {
      open_.pop_back();
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// RAII span; a null tracer records nothing (the untraced run).
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name, uint64_t query_id) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      index_ = tracer_->Begin(name, query_id);
    }
  }
  ~Scoped() { Close(); }
  void Close() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
      tracer_ = nullptr;
    }
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  size_t index_ = 0;
};

// Median duration, in seconds, of the spans called `name`; 0 when none.
double MedianSeconds(const std::vector<const Tracer*>& tracers, const std::string& name);

// Writes every span as one JSON object per line.
bool WriteSpans(const std::vector<const Tracer*>& tracers, const std::string& path);

}  // namespace bench

#endif  // BLINKBENCH_TRACE_H_
