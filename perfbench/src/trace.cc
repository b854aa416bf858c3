#include "trace.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

double NowMs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

namespace {

// Child span ids live above every request id.
constexpr uint64_t kChildIdBase = uint64_t{1} << 40;

}  // namespace

void SpanStore::AddRoot(std::string name, uint64_t request, double start_ms,
                        double end_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), request, 0, request, start_ms,
                        end_ms});
}

uint64_t SpanStore::Add(std::string name, uint64_t parent, uint64_t request,
                        double start_ms, double end_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = kChildIdBase + spans_.size();
  spans_.push_back(
      Span{std::move(name), id, parent, request, start_ms, end_ms});
  return id;
}

std::vector<Span> SpanStore::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, std::vector<double>> SelfTimesByName(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> child_ms;
  for (const Span& span : spans) {
    if (span.parent != 0) child_ms[span.parent] += span.duration_ms();
  }
  std::map<std::string, std::vector<double>> self;
  for (const Span& span : spans) {
    const auto it = child_ms.find(span.id);
    const double covered = it == child_ms.end() ? 0.0 : it->second;
    self[span.name].push_back(span.duration_ms() - covered);
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans) {
    std::fprintf(out,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_ms\": %.6f, \"end_ms\": %.6f}\n",
                 span.name.c_str(), static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 span.start_ms, span.end_ms);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
