// perfbench: runs one workload of the repository benchmark (see
// ../README.md).
//
//   perfbench --workload <scimark-PROFILE|coldstart|warmstart|service-rtt|
//                         service-mix|service-alloc>
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//             [--revision REV]
//
// Prints a host block, informational lines, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones (0 for
// a layer the workload does not exercise), and
// the benchmark's spans plus the VM's telemetry are written once to
// --trace-out as a chrome://tracing file.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "vm/telemetry/trace_writer.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench --workload <scimark-PROFILE|coldstart|"
               "warmstart|service-rtt|service-mix|service-alloc> --seed N "
               "--seconds S --trace 0|1 "
               "[--trace-out FILE] [--revision REV]\n";
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Report& r) {
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::stoull(v);
    } else if (a == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (a == "--trace") {
      opt.trace = v != "0";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else if (a == "--revision") {
      opt.revision = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || !(opt.seconds > 0)) return usage();

  std::function<Report(const Options&)> run;
  const std::string scimark = "scimark-";
  if (opt.workload.rfind(scimark, 0) == 0) {
    const std::string profile = opt.workload.substr(scimark.size());
    run = [profile](const Options& o) { return run_scimark(o, profile); };
  }
  if (opt.workload == "coldstart") {
    run = [](const Options& o) { return run_startup(o, false); };
  }
  if (opt.workload == "warmstart") {
    run = [](const Options& o) { return run_startup(o, true); };
  }
  if (opt.workload == "service-mix") run = run_service_mix;
  if (opt.workload == "service-alloc") run = run_service_alloc;
  if (opt.workload == "service-rtt") run = run_service_rtt;
  if (!run) return usage();

  std::cout << host_block_json(opt) << std::endl;
  Report report;
  try {
    report = run(opt);
    complete_metrics(report, opt.trace);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  for (const std::string& line : report.notes) {
    std::cout << "# " << line << "\n";
  }
  if (opt.trace && !opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    hpcnet::vm::telemetry::write_chrome_trace(
        out, hpcnet::vm::telemetry::snapshot());
    std::cout << "# trace written to " << opt.trace_out << "\n";
  }
  print_result(report);
  return 0;
}
