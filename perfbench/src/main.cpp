// carol_perfbench: runs one workload of the repository benchmark and
// prints its metrics. Usually driven by perfbench/run.py:
//
//   carol_perfbench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> [--out-dir <dir>] [--commit <sha>]
//
// Output: human-readable report lines, one `PERFBENCH_DETERMINISTIC`
// line (values that must repeat exactly for a seed), and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and reports the per-layer metrics.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

// The metric names BENCHMARK.json declares, in its order.
const char* const kEndToEnd[] = {
    "setup_s",        "peak_rss_mb",         "repair_p50_ms",
    "repair_tail_ms", "decisions_per_s",     "sim_us_per_interval",
    "slo_violation_rate", "energy_kwh",     "avg_response_s"};

struct LayerName {
  const char* name;
  const char* unit;
};
const LayerName kPerLayer[] = {
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_tail_ms", "ms"},
    {"serve.score_wait_ms", "ms"},
    {"serve.jobs_per_pass", "ratio"},
    {"serve.states_per_pass", "ratio"},
    {"serve.confidence_jobs_per_pass", "ratio"},
    {"serve.passes", "count"},
    {"serve.jobs", "count"},
    {"serve.states", "count"},
    {"serve.confidence_passes", "count"},
    {"serve.confidence_jobs", "count"},
    {"serve.attempts", "count"},
    {"serve.rejected_overloaded", "count"},
    {"serve.rejected_quota", "count"},
    {"serve.rejected_timeout", "count"},
    {"core.tabu.frontiers_per_repair", "count"},
    {"core.tabu.states_per_repair", "count"},
    {"core.tabu.self_ms", "ms"},
    {"core.encode.ms_per_state", "ms"},
    {"core.encode.bytes_per_state", "B"},
    {"core.subgraph.extract_ms", "ms"},
    {"core.subgraph.sub_hosts", "count"},
    {"core.subgraph.splice_ms", "ms"},
    {"nn.generate.ms_per_call", "ms"},
    {"nn.generate.states_per_call", "count"},
    {"nn.generate.ascent_steps_per_state", "count"},
    {"nn.generate.gflops", "GFLOP/s"},
    {"nn.discriminate.ms_per_call", "ms"},
    {"nn.discriminate.states_per_call", "count"},
    {"nn.train.ms_per_epoch", "ms"},
    {"simkern.step_self_us", "us"},
    {"simkern.engaged_hosts", "count"},
    {"simkern.fallback_repairs", "count"},
    {"workload.drain_us", "us"},
    {"workload.arrivals", "count"},
    {"faults.inject_us", "us"},
    {"faults.events", "count"},
    {"sim.completed", "count"},
    {"sim.stranded", "count"},
    {"replay.coverage", "ratio"},
    {"trace.overhead_repair_p50_ms", "ms"},
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stoi(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty() || a.seconds < 1) {
    throw std::invalid_argument("need --workload and --seconds >= 1");
  }
  return a;
}

Result RunWorkload(const Args& a) {
  if (a.workload == "fleet-h4096-scoped") return RunFleetScoped(a);
  if (a.workload == "sim-h4096-surge") return RunSurge(a);
  throw std::invalid_argument("unknown workload " + a.workload);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

// JSON has no infinity: an unbounded value (a failed request inside a
// latency percentile) prints as the largest finite double.
std::string Number(double v) {
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v)) v = v > 0 ? 1.7976931348623157e308 : -1.7976931348623157e308;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  std::printf("machine: cpu=\"%s\" nproc=%u compiler=\"%s\" flags=\"%s\" "
              "commit=%s\n",
              CpuModel().c_str(), std::thread::hardware_concurrency(),
              PERFBENCH_COMPILER, PERFBENCH_FLAGS, args.commit.c_str());
  std::printf("workload: %s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  Result result;
  if (!args.trace) {
    result = RunWorkload(args);
  } else {
    // Untraced first (the overhead baseline), then traced; the two must
    // agree on every deterministic value.
    Args plain = args;
    plain.trace = false;
    const Result base = RunWorkload(plain);
    result = RunWorkload(args);
    for (const auto& [key, value] : base.deterministic) {
      const auto it = result.deterministic.find(key);
      if (it != result.deterministic.end() && it->second != value) {
        result.failures.push_back("traced and untraced runs disagree on " +
                                  key + " (" + value + " vs " + it->second +
                                  ")");
      }
    }
    for (const std::string& f : base.failures) result.failures.push_back(f);
    const double overhead = result.end_to_end["repair_p50_ms"].value -
                            base.end_to_end.at("repair_p50_ms").value;
    result.Layer("trace.overhead_repair_p50_ms", overhead, "ms");
    char line[160];
    std::snprintf(line, sizeof line,
                  "tracing overhead: repair_p50_ms %.4f traced vs %.4f "
                  "untraced (%+.4f ms)",
                  result.end_to_end["repair_p50_ms"].value,
                  base.end_to_end.at("repair_p50_ms").value, overhead);
    result.report.push_back(line);
    result.attempted += base.attempted;
    result.failed += base.failed;
  }

  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  for (const auto& [name, m] : result.end_to_end) {
    std::printf("e2e %-22s %18.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : result.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::string det = "{";
  for (const auto& [key, value] : result.deterministic) {
    if (det.size() > 1) det += ", ";
    det += JsonString(key) + ": " + JsonString(value);
  }
  std::printf("PERFBENCH_DETERMINISTIC %s}\n", det.c_str());

  std::string metrics;
  const auto add = [&](const std::string& name, const Metric& m) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + Number(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  };
  if (!args.trace) {
    for (const char* name : kEndToEnd) {
      const auto it = result.end_to_end.find(name);
      if (it == result.end_to_end.end()) {
        throw std::logic_error(std::string("missing metric ") + name);
      }
      add(name, it->second);
    }
  } else {
    // Layers a workload does not exercise report 0.
    for (const LayerName& l : kPerLayer) {
      const auto it = result.per_layer.find(l.name);
      add(l.name, it == result.per_layer.end() ? Metric{0.0, l.unit}
                                               : it->second);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "carol_perfbench: %s\n", e.what());
    return 2;
  }
}
