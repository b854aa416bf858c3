// OpineDB's front-door benchmark. Drives a server::QueryServer on
// loopback from one process with closed-loop clients, checks the
// answers, and prints every metric by name and unit; the last line of
// standard output is one JSON object. Usage (normally through run.py):
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work <dir>
//   perfbench --selftest
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
// window, then a traced one, and reports the per-layer split.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "deployment.h"
#include "load.h"
#include "report.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work") {
      args->work = value;
    } else {
      return false;
    }
  }
  return args->selftest ||
         (!args->workload.empty() && have_seed && args->seconds > 0.0 &&
          !args->work.empty());
}

/// Numbers from a sanitizer or fault-injection build measure the
/// instrumentation, not the engine. CMakeLists.txt builds neither, but
/// either can still arrive through CMAKE_CXX_FLAGS; the reason is empty
/// for a plain build.
std::string InstrumentedBuild() {
#if defined(OPINEDB_ENABLE_FAULT_INJECTION)
  return "fault injection (OPINEDB_FAULT_INJECTION) is compiled in";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#else
  return "";
#endif
}

/// The shared nearest-rank percentile, pinned on known samples.
std::string CheckPercentile() {
  struct Case {
    std::vector<double> samples;
    double q;
    double want;
  };
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Case cases[] = {
      {{}, 0.5, 0.0},         {{5.0}, 0.5, 5.0},      {{5.0}, 0.99, 5.0},
      {hundred, 0.5, 50.0},   {hundred, 0.99, 99.0},  {hundred, 1.0, 100.0},
      {hundred, 0.0, 1.0},    {{1, 2, 3, 4}, 0.5, 2.0}, {{1, 2, 3, 4}, 0.75, 3.0},
      {{1, 2, 3, 4}, 0.99, 4.0}, {{3, 1, 2}, 0.5, 2.0}, {{3, 1, 2}, 0.34, 2.0},
  };
  for (const Case& c : cases) {
    const double got = Percentile(c.samples, c.q);
    if (got != c.want) {
      return "Percentile(q=" + std::to_string(c.q) + ") of " +
             std::to_string(c.samples.size()) + " samples gave " +
             std::to_string(got) + ", want " + std::to_string(c.want);
    }
  }
  return "";
}

std::string SelfTest() {
  std::string failure = CheckPercentile();
  if (failure.empty()) failure = CheckStreamDeterminism();
  return failure;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

void PrintCounts(const char* what, const OpCounts& c) {
  std::printf("  %-10s attempted %llu  failed %llu (transport %llu, non-2xx "
              "%llu, wrong answer %llu)  keep-alive reopens %llu\n",
              what, static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed),
              static_cast<unsigned long long>(c.transport_errors),
              static_cast<unsigned long long>(c.http_errors),
              static_cast<unsigned long long>(c.bad_answers),
              static_cast<unsigned long long>(c.reopened));
}

std::string SampleNote(size_t n) { return "(n=" + std::to_string(n) + ")"; }

int Run(const Args& args) {
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  const bool writes = workload->write_batch > 0;
  // Half the CPUs: the other half absorb the server's own threads and
  // the host's background noise, which otherwise swings a closed loop's
  // throughput by a fifth from run to run.
  const size_t readers = std::max<size_t>(1, cpus / 2);
  RunConfig config;
  config.seed = args.seed;
  config.workers = readers + (writes ? 1 : 0);
  config.scratch = args.work + "/scratch-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(config.scratch, ec);

  std::printf("OpineDB front-door benchmark: workload %s, seed %llu, "
              "window %.1f s, %s\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? "traced" : "tracing off");
  std::printf("  why: %s\n", workload->why.c_str());
  std::printf("Run stamp:\n");
  std::printf("  host: nproc %zu, cpu '%s'\n", cpus, CpuModel().c_str());
  std::printf("  build: %s, sanitizer none, fault injection off\n",
              PERFBENCH_BUILD_TYPE);
  std::printf("  engine threads 1 per query, server workers %zu, client "
              "connections %zu (%zu readers%s)\n",
              config.workers, config.workers, readers,
              writes ? " + 1 writer" : "");

  const std::vector<std::string> review_bodies =
      writes ? RenderReviewBodies(StreamSeed(args.seed, 6, 0))
             : std::vector<std::string>();

  // Set-up, repeated; setup_s is the median.
  OpCounts totals;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  const size_t repeats = args.trace ? 1 : workload->setup_repeats;
  for (size_t r = 0; r < repeats; ++r) {
    d.reset();
    d = SetUp(*workload, config);
    if (d == nullptr) return 1;
    totals.Merge(d->warmup);
    setup_s.push_back(d->times.total_s());
    std::printf("  setup %zu: %.3f s = fixture build %.3f s + server start "
                "%.4f s + warm-up %.3f s\n",
                r + 1, d->times.total_s(), d->times.build_s,
                d->times.start_s, d->times.warmup_s);
  }
  d->vocabulary.review_bodies = review_bodies;

  // Request sources: one seeded stream (or zipf picker) per reader.
  const std::vector<std::string> statement_set =
      StatementSet(*workload, d->vocabulary, args.seed);
  std::vector<std::unique_ptr<StatementStream>> streams;
  std::vector<std::unique_ptr<ZipfPicker>> pickers;
  WindowPlan plan;
  plan.port = d->door->port();
  plan.seconds = args.seconds;
  std::string seeds;
  for (size_t c = 0; c < readers; ++c) {
    const uint64_t seed = ReaderSeed(args.seed, c);
    if (workload->statement_set > 0) {
      pickers.push_back(std::make_unique<ZipfPicker>(&statement_set, seed));
      ZipfPicker* picker = pickers.back().get();
      plan.readers.push_back([picker] { return picker->Next(); });
    } else {
      streams.push_back(
          std::make_unique<StatementStream>(*workload, d->vocabulary, seed));
      StatementStream* stream = streams.back().get();
      plan.readers.push_back([stream] { return stream->Next(); });
    }
    seeds += ' ';
    seeds += std::to_string(seed);
  }
  ReviewBatchStream batches(*workload, d->vocabulary, WriterSeed(args.seed));
  if (writes) {
    plan.writer = [&batches] { return batches.Next(); };
    plan.checkpoint_every = workload->checkpoint_every;
    plan.write_batch = workload->write_batch;
    plan.write_interval_ms = workload->write_interval_ms;
    // Keep every segment since the follower's base: the pin a lagging
    // follower's fetches would hold, so it drains the WAL after the
    // window instead of adopting a snapshot.
    opinedb::storage::GenerationPins* pins = d->db->generation_pins();
    plan.on_checkpoint = [pins](const std::string& body) {
      const std::string key = "\"generation\": ";
      const size_t at = body.find(key);
      if (at != std::string::npos) {
        pins->Pin(std::strtoull(body.c_str() + at + key.size(), nullptr, 10));
      }
    };
    seeds += "; writer " + std::to_string(batches.seed());
  }
  std::printf("  stream seeds:%s\n", seeds.c_str());

  const WindowResult window = RunWindow(plan);
  totals.Merge(window.queries);
  totals.Merge(window.writes);

  // Traced run: a second window behind the span-recording front door.
  SpanStore spans;
  WindowResult traced;
  CacheCounters before, after;
  if (args.trace) {
    d->db->SetTraceLevel(opinedb::obs::TraceLevel::kStats);
    if (!Restart(d.get(), &spans)) return 1;
    ScrapeCacheCounters(d->door->port(), &totals, &before);
    plan.port = d->door->port();
    plan.spans = &spans;
    traced = RunWindow(plan);
    totals.Merge(traced.queries);
    totals.Merge(traced.writes);
    ScrapeCacheCounters(d->door->port(), &totals, &after);
  }

  std::vector<std::string> problems;
  CatchUp catch_up;
  if (writes) {
    const uint64_t sent = window.reviews_sent + traced.reviews_sent;
    const uint64_t acked = window.reviews_acked + traced.reviews_acked;
    catch_up = RunCatchUp(d.get(), &batches, acked,
                          args.trace ? &spans : nullptr, &totals, &problems);
    if (acked != sent) {
      ++totals.bad_answers;
      ++totals.failed;
      problems.push_back("window: " + std::to_string(acked) +
                         " reviews appended of " + std::to_string(sent) +
                         " sent");
    }
  }
  // The layer split replays through the warm engine, so it runs before
  // the answer check switches the caches off.
  TraceReport report;
  if (args.trace) {
    report = AnalyzeTrace(d.get(), traced, writes ? &catch_up : nullptr,
                          config, before, after, &spans, &totals);
  }

  // Answers are checked in every run.
  const std::vector<std::string> sample =
      VerificationSample(*workload, d->vocabulary, args.seed);
  const size_t watermark_only =
      VerifyAnswers(d.get(), sample, writes ? d->follower.db.get() : nullptr,
                    &totals, &problems);

  const Summary query = Summarize(window.query_ms);
  const double qps = static_cast<double>(window.query_ms.size()) /
                     window.elapsed_s;
  const double setup_median = Percentile(setup_s, 0.5);
  const double rss = PeakRssMib();

  std::printf("\nEnd-to-end (tracing off, %.2f s window):\n",
              window.elapsed_s);
  PrintLine("setup_s", setup_median, "s",
            "(median of " + std::to_string(setup_s.size()) + " set-ups)");
  PrintLine("query_qps", qps, "1/s", SampleNote(query.n));
  PrintLine("query_p50_ms", query.p50, "ms", SampleNote(query.n));
  PrintLine("query_p99_ms", query.p99, "ms", SampleNote(query.n));
  if (writes) {
    const Summary ingest = Summarize(window.ingest_ms);
    PrintLine("ingest_reviews_per_s",
              static_cast<double>(window.reviews_acked) / window.elapsed_s,
              "1/s", SampleNote(ingest.n) + " batches of " +
                         std::to_string(workload->write_batch));
    PrintLine("ingest_p50_ms", ingest.p50, "ms", SampleNote(ingest.n));
    PrintLine("ingest_p99_ms", ingest.p99, "ms", SampleNote(ingest.n));
    PrintLine("checkpoint_p50_ms", Percentile(window.checkpoint_ms, 0.5), "ms",
              SampleNote(window.checkpoint_ms.size()));
    PrintLine("repl_catchup_reviews_per_s",
              static_cast<double>(catch_up.reviews_applied) /
                  std::max(1e-9, catch_up.seconds),
              "1/s",
              "(" + std::to_string(catch_up.reviews_applied) + " reviews, " +
                  std::to_string(catch_up.sync_once_ms.size()) +
                  " SyncOnce cycles)");
    PrintLine("wal_bytes_per_review", catch_up.wal_bytes_per_review, "B", "");
  }
  const double error_rate =
      totals.attempted == 0 ? 0.0
                            : static_cast<double>(totals.failed) /
                                  static_cast<double>(totals.attempted);
  PrintLine("error_rate", error_rate, "ratio",
            "(" + std::to_string(totals.failed) + " of " +
                std::to_string(totals.attempted) + " ops)");
  PrintLine("peak_rss_mib", rss, "MiB", "");
  PrintCounts("all ops", totals);
  std::printf("  answer checks: %zu statements%s, %zu problems; %zu served "
              "answers differed from the executed ones only in the "
              "watermark line (result-cache hits report 0 entities scored)\n",
              sample.size(), writes ? " (primary and follower)" : "",
              problems.size(), watermark_only);
  for (const std::string& problem : problems) {
    std::printf("  MISMATCH %s\n", problem.c_str());
  }

  std::vector<Metric> metrics;
  bool layers_ok = true;
  if (args.trace) {
    layers_ok = PrintTraceReport(*workload, report, query.p50,
                                 Percentile(traced.query_ms, 0.5));
    std::printf("  host read bandwidth: %.2f GB/s single thread (beside "
                "core.scan_gbps %.3f GB/s)\n",
                MeasureReadGbps(), report.scan_gbps);
    const std::string spans_path = args.work + "/" + workload->name +
                                   "-seed" + std::to_string(args.seed) +
                                   ".spans.jsonl";
    if (WriteSpans(spans_path, spans.spans())) {
      std::printf("  spans written to %s\n", spans_path.c_str());
    }
    metrics = PerLayerMetrics(report);
  } else {
    // query_p99_ms stays in the report above but not in the JSON line:
    // CPU steal on a shared host doubles it for minutes at a time, far
    // beyond any bound a regression gate could use.
    metrics = {{"setup_s", setup_median, "s"},
               {"query_qps", qps, "1/s"},
               {"query_p50_ms", query.p50, "ms"},
               {"peak_rss_mib", rss, "MiB"}};
  }

  d.reset();
  std::filesystem::remove_all(config.scratch, ec);
  // A traced run that no longer stresses the layer its workload was
  // chosen for is as wrong as a wrong answer.
  const bool correct =
      problems.empty() && totals.bad_answers == 0 && layers_ok;
  PrintResultJson(correct, totals.attempted, totals.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work <dir>\n       perfbench --selftest\n");
    return 2;
  }
  const std::string instrumented = perfbench::InstrumentedBuild();
  if (!instrumented.empty()) {
    std::fprintf(stderr, "refusing to report numbers: %s\n",
                 instrumented.c_str());
    return 3;
  }
  const std::string failure = perfbench::SelfTest();
  if (!failure.empty()) {
    std::fprintf(stderr, "self-test failed: %s\n", failure.c_str());
    return 1;
  }
  if (args.selftest) {
    std::printf("self-test ok\n");
    return 0;
  }
  return perfbench::Run(args);
}
