// Copyright 2026 The LearnRisk Authors
//
// erbench: runs one benchmark workload in this process and prints its
// result as one JSON line (the last line of standard output).
//
//   erbench --workload bulk_resolve|stream_ingest|review_loop
//           --seed N --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the
// workload's requests through the public layer functions with bench-side
// spans and reports the per-layer metrics (span dump: DIR/spans.json).
// erbench/run.py builds this binary and is the intended entry point.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "common/parallel.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: erbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  erbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || args.seconds <= 0.0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 1;
  }

  erbench::Outcome out;
  out.Param("workload", args.workload);
  out.Param("seed", static_cast<double>(args.seed));
  out.Param("seconds", args.seconds);
  out.Param("trace", args.trace ? 1.0 : 0.0);
  out.Param("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  out.Param("pool_threads",
            static_cast<double>(learnrisk::ParallelConcurrency()));
  out.Param("build_type", ERBENCH_BUILD_TYPE);
  out.Param("compiler", ERBENCH_COMPILER);
  if (args.workload == "bulk_resolve") {
    erbench::RunBulkResolve(args, &out);
  } else if (args.workload == "stream_ingest") {
    erbench::RunStreamIngest(args, &out);
  } else if (args.workload == "review_loop") {
    erbench::RunReviewLoop(args, &out);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("%s\n", out.ToJson().c_str());
  return 0;
}
