// e2e_bench: runs one workload of the PTrack end-to-end benchmark.
//
//   e2e_bench --workload serve_uds|batch_cohort|fleet_mixed --seed N
//             --seconds S --trace 0|1 [--tiny] [--perturb]
//             [--serve-rate-ksps R] [--fleet-hop-rate H]
//
// ptrack_serve and obs_check are found next to this binary; scratch files
// go under .bench_build/work/ of the current directory.
// Prints a detail line (host block, percentile sample counts, failures)
// and then, as the last line, {"correct","attempted","failed","metrics"}.
// Exits 1 when any output differs from its oracle or any operation failed.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "dsp/simd.hpp"
#include "obs/metrics.hpp"

namespace {

/// A run's wall-clock limit, under the 170 s run.py allows e2e_bench.
constexpr double kRunLimitS = 150.0;

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

e2e::Options parse(int argc, char** argv) {
  e2e::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::stoull(next());
    else if (a == "--seconds") o.seconds = std::stod(next());
    else if (a == "--trace") o.trace = next() != "0";
    else if (a == "--tiny") o.tiny = true;
    else if (a == "--perturb") o.perturb = true;
    else if (a == "--serve-rate-ksps") o.serve_rate_ksps = std::stod(next());
    else if (a == "--fleet-hop-rate") o.fleet_hop_rate = std::stod(next());
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload != "serve_uds" && o.workload != "batch_cohort" &&
      o.workload != "fleet_mixed") {
    throw std::invalid_argument("--workload must be serve_uds, batch_cohort "
                                "or fleet_mixed");
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  o.bin_dir = std::filesystem::path(argv[0]).parent_path().string();
  if (o.bin_dir.empty()) o.bin_dir = ".";
  o.work_dir =
      ".bench_build/work/" + o.workload + "-" + std::to_string(::getpid());
  o.nproc = static_cast<unsigned>(
      std::max<std::size_t>(1, e2e::process_cpus().size()));
  return o;
}

/// Ends a run that stops making progress (a hop, batch or daemon phase
/// that never completes) inside the time a run may take: it prints a
/// failed result and exits, and the daemon follows via its parent-death
/// signal. A completed run disarms it.
class Watchdog {
 public:
  explicit Watchdog(double limit_s)
      : thread_([this, limit_s] {
          std::unique_lock<std::mutex> lk(mu_);
          if (cv_.wait_for(lk, std::chrono::duration<double>(limit_s),
                           [this] { return done_; })) {
            return;
          }
          std::cerr << "e2e_bench: run exceeded " << limit_s << " s: phase '"
                    << e2e::current_phase() << "' never completed\n";
          std::cout << "{\"failures\":[\"run exceeded " << limit_s
                    << " s: phase '" << e2e::current_phase()
                    << "' never completed\"]}\n"
                    << "{\"correct\":false,\"attempted\":1,\"failed\":1,"
                       "\"metrics\":{}}"
                    << std::endl;
          e2e::kill_daemon_now();
          std::_Exit(1);
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread thread_;  // last: starts after the members it uses
};

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);
  e2e::Report rep;
  std::optional<Watchdog> watchdog(std::in_place, kRunLimitS);
  const std::string trace_path = ".bench_build/trace-" + opt.workload + ".json";
  try {
    if (opt.workload == "serve_uds") e2e::run_serve_uds(opt, rep);
    if (opt.workload == "batch_cohort") e2e::run_batch_cohort(opt, rep);
    if (opt.workload == "fleet_mixed") e2e::run_fleet_mixed(opt, rep);
    if (opt.trace) {
      e2e::set_phase("writing and checking the trace");
      e2e::write_trace(opt, trace_path, rep);
    }
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    std::error_code ec;
    std::filesystem::remove_all(opt.work_dir, ec);
    return 1;
  }
  watchdog.reset();
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);

  // Detail line: the host block and what each percentile rests on.
  const bool serve = opt.workload == "serve_uds";
  const bool fleet = opt.workload == "fleet_mixed";
  const unsigned conns = serve ? opt.nproc : 0;  // ingest + one scraper
  const unsigned workers =
      serve ? 0 : fleet ? (opt.nproc > 2 ? opt.nproc - 2 : 1) : opt.nproc - 1;
  std::cout << "{\"host\":{\"nproc\":" << opt.nproc << ",\"isa\":"
            << quoted(ptrack::dsp::simd::isa_name(
                   ptrack::dsp::simd::detected()))
            << ",\"build_type\":" << quoted(E2E_BUILD_TYPE)
            << ",\"obs_compiled\":" << (PTRACK_OBS_ENABLED ? "true" : "false")
            << ",\"workers\":" << workers << ",\"connections\":" << conns
            << ",\"seed\":" << opt.seed << ",\"workload\":"
            << quoted(opt.workload) << ",\"seconds\":" << num(opt.seconds);
  if (serve) std::cout << ",\"serve_rate_ksps\":" << num(opt.serve_rate_ksps);
  if (fleet) {
    std::cout << ",\"fleet_hop_rate\":" << num(opt.fleet_hop_rate);
  }
  std::cout << "},\"samples\":{";
  bool first = true;
  for (const auto& [k, v] : rep.samples) {
    std::cout << (first ? "" : ",") << quoted(k) << ":" << num(v);
    first = false;
  }
  std::cout << "},\"info\":{";
  first = true;
  for (const auto& [k, v] : rep.info) {
    std::cout << (first ? "" : ",") << quoted(k) << ":" << num(v);
    first = false;
  }
  std::cout << "},\"failures\":[";
  first = true;
  for (const auto& f : rep.failures) {
    std::cout << (first ? "" : ",") << quoted(f);
    first = false;
  }
  std::cout << "]";
  if (opt.trace) std::cout << ",\"trace_file\":" << quoted(trace_path);
  std::cout << "}\n";

  const bool correct = rep.failed == 0;
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << std::max<std::uint64_t>(1, rep.attempted)
            << ",\"failed\":" << rep.failed << ",\"metrics\":{";
  first = true;
  for (const auto& [name, m] : rep.metrics) {
    std::cout << (first ? "" : ",") << quoted(name) << ":{\"value\":"
              << num(m.first) << ",\"unit\":" << quoted(m.second) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
