// perfbench: one benchmark for Bullion's four user paths.
//
//   perfbench --workload ingest|train_scan|serve_lookup|comply_delete
//             --seed N --seconds S --trace 0|1 --dir RUN_DIR
//             [--trace-file PATH] [--tiny] [--closed-loop]
//             [--commit SHA --dirty 0|1]
//   perfbench --list-metrics
//
// Normally started through perfbench/run.py, which builds this binary
// from the checkout, makes the run directory, and keeps the metrics
// BENCHMARK.json names. The workload's inputs are generated from
// --seed alone. Prints provenance lines (`# key value`), one line per
// metric (`name value unit`), and as its last line one JSON object
// with `correct`, `attempted`, `failed` and `metrics`. Exits 0 only
// when every operation and every output check succeeded.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "encoding/cpu_dispatch.h"
#include "io/aio.h"
#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest|train_scan|serve_lookup|comply_delete --seed N "
               "--seconds S --trace 0|1 --dir RUN_DIR [--trace-file PATH] "
               "[--tiny] [--closed-loop] [--commit SHA] [--dirty 0|1]\n",
               msg);
  return 2;
}

bool Optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  std::string trace_file;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--list-metrics") {
      for (const auto& [name, unit] : PerLayerMetrics()) {
        std::printf("%s %s\n", name.c_str(), unit.c_str());
      }
      return 0;
    } else if (a == "--workload") {
      args.workload = next("--workload");
    } else if (a == "--seed") {
      args.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(next("--seconds"), nullptr);
    } else if (a == "--trace") {
      args.trace = std::strcmp(next("--trace"), "0") != 0;
    } else if (a == "--dir") {
      args.dir = next("--dir");
    } else if (a == "--trace-file") {
      trace_file = next("--trace-file");
    } else if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--closed-loop") {
      args.closed_loop = true;
    } else if (a == "--commit") {
      args.commit = next("--commit");
    } else if (a == "--dirty") {
      args.dirty = next("--dirty");
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (args.dir.empty()) return Usage("--dir is required");
  if (args.seconds <= 0) return Usage("--seconds must be positive");
  args.trace_file = trace_file.empty() ? args.dir + "/trace.json" : trace_file;

  Status (*run)(const Args&, Report*, Tracer*) = nullptr;
  if (args.workload == "ingest") run = RunIngest;
  if (args.workload == "train_scan") run = RunTrainScan;
  if (args.workload == "serve_lookup") run = RunServeLookup;
  if (args.workload == "comply_delete") run = RunComplyDelete;
  if (run == nullptr) {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  // Timings from an unoptimized build say nothing about the code.
  if (!Optimized()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run: built without optimization "
                 "(build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  Status mk = MakeDir(args.dir);
  if (!mk.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", mk.ToString().c_str());
    return 2;
  }

  Report report;
  report.Note("workload", args.workload);
  report.Note("seed", std::to_string(args.seed));
  report.Note("seconds", std::to_string(args.seconds));
  report.Note("trace", args.trace ? "1" : "0");
  report.Note("tiny", args.tiny ? "1" : "0");
  report.Note("closed_loop", args.closed_loop ? "1" : "0");
  report.Note("commit", args.commit);
  report.Note("dirty", args.dirty);
  report.Note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Note("bench_threads", std::to_string(BenchThreads()));
  report.Note("simd_tier",
              std::string(bullion::simd::SimdTierName(
                  bullion::simd::ActiveSimdTier())));
  report.Note("aio_tier", bullion::AioTierName(bullion::DefaultAioTier()));
  report.Note("aio_tier_resolved",
              bullion::AioTierName(bullion::AsyncIoService::Default().tier()));
  report.Note("build_type", PERFBENCH_BUILD_TYPE);
  report.Note("optimized", Optimized() ? "1" : "0");
  report.Note("fs_type", FsType(args.dir));
  report.Note("flush_policy", "Flush() counted, no fsync");

  Tracer tracer;
  Status st = run(args, &report, &tracer);
  if (!st.ok()) {
    report.Attempt(false, args.workload + ": " + st.ToString());
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 st.ToString().c_str());
  }
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
