// e2ebench: runs one benchmark workload and prints its metrics.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--scratch DIR]
//   e2ebench --list          (workload names)
//   e2ebench --metrics       (metric names and units, per mode)
//
// Context lines go first; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end metrics, with --trace 1 the per-layer ones.
// Exit code 0 when every trial finished, solved, and matched the oracle;
// 1 when the result is incorrect; 2 on a usage error.
#include <cmath>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--scratch DIR]\n       e2ebench --list | --metrics\n";
  return 2;
}

std::string json_number(double v) {
  std::ostringstream s;
  s << std::setprecision(17) << v;
  return s.str();
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions o;
  bool have_workload = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--list") {
        for (const std::string& n : e2e::workload_names()) std::cout << n << '\n';
        return 0;
      }
      if (flag == "--metrics") {
        for (const e2e::Metric& m : e2e::end_to_end_metric_specs()) {
          std::cout << "end_to_end " << m.name << ' ' << m.unit << '\n';
        }
        for (const e2e::Metric& m : e2e::per_layer_metric_specs()) {
          std::cout << "per_layer " << m.name << ' ' << m.unit << '\n';
        }
        return 0;
      }
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (flag == "--scratch") {
        o.scratch_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed numeric value");
  }
  if (!have_workload || !have_trace) return usage("--workload and --trace are required");
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");

  e2e::RunReport report;
  try {
    report = e2e::run_workload(o);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << o.workload << ": " << e.what() << '\n';
    return 1;
  }

  for (const e2e::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.notes.push_back("metric " + m.name + " is not finite");
      report.correct = false;
    }
  }

  std::cout << "context: workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << " build_type=" << E2EBENCH_BUILD_TYPE
            << " hardware_threads=" << std::thread::hardware_concurrency() << '\n';
  for (const std::string& note : report.notes) std::cout << note << '\n';
  for (const e2e::Metric& m : report.metrics) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << ' '
              << m.unit << '\n';
  }

  std::ostringstream json;
  json << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const e2e::Metric& m = report.metrics[i];
    json << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
         << json_number(std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return report.correct ? 0 : 1;
}
