/// mdbench — host MD benchmark binary.
///
///   mdbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
///   mdbench --sweep --out DIR
///
/// Prints a human-readable table of every metric (value, unit, sample
/// count), then, as the last line of stdout, one JSON object
/// {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
/// correctness check failed, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

void print_outcome(const std::string& workload, const mdbench::Outcome& o) {
  std::printf("\n%-30s %16s %-12s %8s  %s\n", workload.c_str(), "value", "unit",
              "samples", "note");
  for (const auto& m : o.metrics) {
    std::printf("%-30s %16.6g %-12s %8zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
  std::printf("%-30s %16.6g %-12s %8ld  %ld failed of %ld attempted\n",
              "failed_step_frac",
              o.attempted > 0 ? static_cast<double>(o.failed) / o.attempted : 1.0,
              "frac", o.attempted, o.failed, o.attempted);
  for (const auto& p : o.problems) std::printf("FAILED: %s\n", p.c_str());

  bool finite = true;
  std::string metrics;
  for (const auto& m : o.metrics) {
    char buf[160];
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    m.name.c_str(), m.value, m.unit.c_str());
    } else {
      finite = false;
      std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                    m.name.c_str(), m.unit.c_str());
    }
    metrics += (metrics.empty() ? "" : ", ") + std::string(buf);
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              o.correct && finite ? "true" : "false", o.attempted, o.failed,
              metrics.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: mdbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--out DIR\n       mdbench --sweep --out DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out;
  unsigned long long seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool sweep = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--sweep") {
      sweep = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--out" && has_value) {
      out = argv[++i];
    } else {
      return usage();
    }
  }
  if (out.empty() || (!sweep && (workload.empty() || seconds <= 0.0 ||
                                 (trace != 0 && trace != 1)))) {
    return usage();
  }
  std::filesystem::create_directories(out);
  if (sweep) return mdbench::run_sweep(out);

  try {
    const auto w = mdbench::make_workload(workload, seed);
    const auto o = trace == 1 ? mdbench::run_traced(w, out)
                              : mdbench::run_end_to_end(w, seconds, out);
    print_outcome(workload, o);
    std::fflush(stdout);
    return o.correct ? 0 : 1;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "mdbench: %s\n", ex.what());
    return 1;
  }
}
