#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// The benchmark's own spans: recorded around its calls into each layer's
// public functions (never inside the program), kept in memory, and
// written out when the run ends.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Milliseconds on the steady clock since the first call in the process.
double NowMs();

struct Span {
  std::string name;
  uint64_t id = 0;
  /// Parent span id; 0 for a request's root span.
  uint64_t parent = 0;
  /// Shared by every span of one request.
  uint64_t request = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// Thread-safe in-memory span sink. A request's root span takes the
/// request id as its span id, so spans recorded before the root ends
/// (e.g. on a server worker) can already name it as their parent.
class SpanStore {
 public:
  /// Records a request's root span (id == request).
  void AddRoot(std::string name, uint64_t request, double start_ms,
               double end_ms);
  /// Records a child span and returns its id.
  uint64_t Add(std::string name, uint64_t parent, uint64_t request,
               double start_ms, double end_ms);
  std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span — its duration minus the durations of its
/// children — grouped by span name (one sample per span).
std::map<std::string, std::vector<double>> SelfTimesByName(
    const std::vector<Span>& spans);

/// Writes one JSON object per span, one per line. Returns false on an
/// I/O error.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
