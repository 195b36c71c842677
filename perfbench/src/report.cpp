#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "cil/suite.hpp"

namespace perfbench {

namespace telemetry = hpcnet::vm::telemetry;

CpuRotation::CpuRotation(Scope scope) : scope_(scope) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() >= 2) pin(cpus_);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  pin({cpus_[next_]});
  next_ = (next_ + 1) % cpus_.size();
}

void CpuRotation::pin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  // A refused request (a CPU taken away meanwhile, a thread that has just
  // exited) leaves that thread where it is; the run is then only less
  // spread over CPUs.
  if (scope_ == Scope::Thread) {
    sched_setaffinity(0, sizeof set, &set);
    return;
  }
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) return;
  while (const dirent* e = readdir(tasks)) {
    if (e->d_name[0] == '.') continue;
    sched_setaffinity(static_cast<pid_t>(std::atoi(e->d_name)), sizeof set,
                      &set);
  }
  closedir(tasks);
}

void time_setups(int rounds, int per_round, const std::function<void()>& setup,
                 std::vector<double>& round_best, CpuRotation* cpus) {
  for (int r = 0; r < rounds; ++r) {
    std::vector<double> s;
    for (int i = 0; i < per_round; ++i) {
      if (cpus != nullptr) cpus->next();
      const std::int64_t t0 = now_ns();
      setup();
      s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    round_best.push_back(minimum(s));
  }
}

double tail_or_max(const std::vector<double>& samples, double p,
                   const std::string& what, Report& report) {
  if (samples.empty()) return 0;
  if (const auto v = percentile(samples, p)) return *v;
  report.note(what + ": p" + std::to_string(static_cast<int>(p)) +
              " unresolved with " + std::to_string(samples.size()) +
              " samples (needs " + std::to_string(min_samples_for(p)) +
              "); reporting the maximum");
  double mx = samples.front();
  for (double x : samples) mx = std::max(mx, x);
  return mx;
}

double peak_rss_mb() {
  // VmHWM belongs to this process's own address space, which exec starts
  // afresh. getrusage's ru_maxrss is not: Linux carries it across exec, so
  // under run.py it would report the launching Python process's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void add_common_end_to_end(Report& report, double rss_mb) {
  report.add("peak_rss_mb", rss_mb > 0 ? rss_mb : peak_rss_mb(), "MiB");
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"}, {"op_ms", "ms"}, {"peak_rss_mb", "MiB"}};
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics =
      [] {
        std::vector<std::pair<std::string, std::string>> m;
        for (const char* k : {"fft", "sor", "montecarlo", "sparse", "lu"}) {
          m.emplace_back(std::string("engine.") + k + "_us", "us");
        }
        m.emplace_back("engine.mflops", "MFlops");
        m.emplace_back("vec.loops_entered", "count");
        m.emplace_back("native.mflops", "MFlops");
        m.emplace_back("gc.minor", "per_1k_ops");
        m.emplace_back("gc.major", "per_1k_ops");
        m.emplace_back("gc.pause_ms.p99", "ms");
        m.emplace_back("gc.safepoint_stall_ms.p99", "ms");
        m.emplace_back("heap.live_mb", "MiB");
        m.emplace_back("trace.overhead_pct", "%");
        m.emplace_back("verifier.us", "us");
        m.emplace_back("regcompile.us", "us");
        m.emplace_back("regcompile.rcode_instrs", "count");
        for (const char* p : {"inline", "translate", "optimize", "cse", "licm",
                              "bce", "vec_lower", "compact", "finalize"}) {
          m.emplace_back(std::string("regcompile.pass.") + p + "_us", "us");
        }
        m.emplace_back("archive.deserialize_us", "us");
        m.emplace_back("archive.attach_us", "us");
        m.emplace_back("archive.bytes", "bytes");
        m.emplace_back("archive.restored", "count");
        m.emplace_back("archive.missed", "count");
        m.emplace_back("service.queue_ms.p50", "ms");
        m.emplace_back("service.queue_ms.p99", "ms");
        for (const char* k : {"object", "array", "serial", "fib", "refsum"}) {
          m.emplace_back(std::string("service.run_ms.") + k, "ms");
        }
        m.emplace_back("service.busy_frac", "ratio");
        m.emplace_back("service.scaling_eff", "ratio");
        for (const char* o : {"completed", "killed_fuel", "killed_memory",
                              "faulted", "rejected", "killed_deadline"}) {
          m.emplace_back(std::string("service.outcome.") + o, "count");
        }
        m.emplace_back("net.wire_ms.p50", "ms");
        m.emplace_back("net.wire_ms.p99", "ms");
        m.emplace_back("net.bytes_per_job", "bytes");
        return m;
      }();
  return kMetrics;
}

void complete_metrics(Report& report, bool trace) {
  const auto find = [&](const std::string& name) -> const Metric* {
    for (const Metric& m : report.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  std::string absent;
  std::size_t n_absent = 0;
  for (const auto& [name, unit] :
       trace ? layer_metrics() : end_to_end_metrics()) {
    const Metric* m = find(name);
    if (m != nullptr && m->unit != unit) {
      throw std::logic_error("metric " + name + " reported in " + m->unit +
                             ", catalogued in " + unit);
    }
    if (m != nullptr) continue;
    if (!trace) throw std::logic_error("end-to-end metric " + name +
                                       " not reported");
    report.add(name, 0, unit);
    absent += (n_absent++ ? ", " : "") + name;
  }
  if (n_absent != 0) {
    report.note("layers this workload does not exercise, reported as 0 (" +
                std::to_string(n_absent) + "): " + absent);
  }
}

void add_heap_layer(Report& report, const telemetry::Snapshot& s, double ops,
                    double live_bytes) {
  const double per_k = ops > 0 ? 1000.0 / ops : 0;
  report.add("gc.minor", static_cast<double>(s.gc.minor_collections) * per_k,
             "per_1k_ops");
  report.add("gc.major", static_cast<double>(s.gc.major_collections) * per_k,
             "per_1k_ops");
  report.add("gc.pause_ms.p99",
             ns_to_ms(static_cast<double>(s.gc_pause_ns.percentile(99))), "ms");
  report.add("gc.safepoint_stall_ms.p99",
             ns_to_ms(static_cast<double>(s.safepoint_stall_ns.percentile(99))),
             "ms");
  report.add("heap.live_mb", live_bytes / (1024.0 * 1024.0), "MiB");
  report.note("heap: " + std::to_string(s.gc.minor_collections) + " minor + " +
              std::to_string(s.gc.major_collections) +
              " major GCs in the traced phase; pause histogram n=" +
              std::to_string(s.gc_pause_ns.count()) + ", stall histogram n=" +
              std::to_string(s.safepoint_stall_ns.count()));
}

void begin_traced_phase() {
  telemetry::reset();
  telemetry::set_enabled(true);
}

telemetry::Snapshot end_traced_phase() {
  telemetry::set_enabled(false);
  return telemetry::snapshot();
}

namespace {

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Bytes each SciMark kernel touches per invocation at `s` (the arrays the
/// kernel allocates, as the native twin lays them out).
std::vector<std::pair<const char*, double>> scimark_working_sets(
    const hpcnet::cil::ScimarkSizes& s) {
  const double d = 8, i = 4;
  return {
      {"FFT", 2.0 * s.fft_n * d},
      {"SOR", 1.0 * s.sor_n * s.sor_n * d},
      {"MonteCarlo", 17 * i},  // the lagged-Fibonacci state
      {"Sparse", s.sparse_nz * (d + i) + (s.sparse_n + 1) * i +
                     2.0 * s.sparse_n * d},
      {"LU", 1.0 * s.lu_n * s.lu_n * d + s.lu_n * i},
  };
}

}  // namespace

std::string host_block_json(const Options& opt) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::ostringstream o;
  o << "{\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"compiler\":\"" << compiler() << "\",\"build_type\":\""
    << PERFBENCH_BUILD_TYPE << "\",\"HPCNET_TELEMETRY\":"
    << (HPCNET_TELEMETRY_ENABLED ? "\"ON\"" : "\"OFF\"")
    << ",\"HPCNET_SIMD\":" << (PERFBENCH_SIMD ? "\"ON\"" : "\"OFF\"")
    << ",\"revision\":\"" << opt.revision << "\",\"llc_bytes\":" << llc
    << ",\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
    << ",\"seconds\":" << opt.seconds << ",\"trace\":" << (opt.trace ? 1 : 0)
    << ",\"scimark_small_working_set\":[";
  bool first = true;
  for (const auto& [name, bytes] :
       scimark_working_sets(hpcnet::cil::ScimarkSizes::small_model())) {
    // Resident in cache unless the working set exceeds the LLC; with an
    // unknown LLC size nothing is labelled either way.
    const char* where = llc <= 0               ? "unknown"
                        : bytes > static_cast<double>(llc) ? "memory"
                                                           : "cache";
    o << (first ? "" : ",") << "{\"kernel\":\"" << name
      << "\",\"bytes\":" << static_cast<long long>(bytes)
      << ",\"llc_bytes\":" << llc << ",\"resident\":\"" << where << "\"}";
    first = false;
  }
  o << "]}}";
  return o.str();
}

}  // namespace perfbench
