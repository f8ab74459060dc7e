// perfbench: runs one workload of the repository benchmark and
// prints every metric by name, unit and sample count, then one JSON line
// with the end-to-end metrics (untraced run) or the per-layer metrics
// (--trace 1).  Exit status is nonzero when a correctness check fails.
//
//   perfbench --workload bank_durable|read_inmem|cluster_tcp
//                    --seed N --seconds S --trace 0|1
//                    --run-dir DIR --out-dir DIR --node-bin PATH
//                    [--git-sha SHA] [--source-digest HEX]
//
// perfbench/run.py builds this binary from source and supplies the paths.
#include <fcntl.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "amoeba/storage/uring_backend.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// The metrics of the closing JSON line; BENCHMARK.json names the same
// ones (the self-test in run.py checks that they agree).  The 99th
// percentiles are printed but not gated: their run-to-run spread on a
// shared disk is wider than any usable bound (perfbench/README.md).
const std::vector<std::string> kEndToEnd = {
    "ops_per_s", "op_p50_us", "balance_p50_us", "peak_rss_mb", "setup_s"};

std::vector<std::string> per_layer_names() {
  std::vector<std::string> names = {
      "storage.meta_writes_per_op", "storage.meta_us_p50",
      "storage.meta_us_p99",        "storage.meta_bytes_per_op",
      "storage.groups_per_op",      "storage.group_us_p50",
      "storage.group_us_p99",       "storage.group_bytes_per_op",
      "storage.bytes_per_op",       "storage.direct_appends",
      "storage.recover_us_per_op",  "storage.gc_groups_per_op",
      "storage.residence_share",    "replication.shipped_per_op",
      "replication.lag_lsn"};
  for (const char* prefix : {"rpc.handler_us.", "rpc.handler_max_us.",
                             "rpc.residence_us.", "rpc.client_us."}) {
    for (const char* op : kOpNames) names.push_back(std::string(prefix) + op);
  }
  for (const char* name :
       {"rpc.retransmits_per_op", "rpc.timeouts", "rpc.dup_suppressed",
        "rpc.served_per_op", "rpc.port_cache_hit_ratio", "net.frames_per_op",
        "net.bytes_per_op", "net.locates_per_op", "net.rejected", "net.dropped"}) {
    names.emplace_back(name);
  }
  for (const char* threads : {"t1", "tN"}) {
    for (const char* core : {"core.open_ns.", "core.open2_ns.", "core.check_ns.",
                             "core.cache_hit_ratio."}) {
      names.push_back(std::string(core) + threads);
    }
  }
  for (const char* name :
       {"crypto.one_way_ns", "crypto.validate_ns.one_way_xor",
        "crypto.validate_ns.commutative", "bench.gen_late_p99_us",
        "bench.trace_overhead_frac"}) {
    names.emplace_back(name);
  }
  return names;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& git_sha, std::string& digest) {
  Options o;
  o.clients = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " wants a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--run-dir") {
      o.run_dir = value;
    } else if (arg == "--out-dir") {
      o.out_dir = value;
    } else if (arg == "--node-bin") {
      o.node_bin = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-digest") {
      digest = value;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (o.workload != "bank_durable" && o.workload != "read_inmem" &&
      o.workload != "cluster_tcp") {
    usage("--workload wants bank_durable, read_inmem or cluster_tcp");
  }
  if (o.run_dir.empty() || o.out_dir.empty() || o.node_bin.empty() ||
      o.seconds <= 0) {
    usage("--run-dir, --out-dir, --node-bin and a positive --seconds are required");
  }
  return o;
}

/// Nanoseconds per iteration of a fixed dependent integer loop: a
/// calibration score that tracks the speed of one core right now.
double spin_ns_per_iter() {
  constexpr std::uint64_t kIters = 20'000'000;
  std::array<double, 3> runs{};
  volatile std::uint64_t sink = 0;
  for (double& run : runs) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    run = std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
          static_cast<double>(kIters);
    sink = x;
  }
  (void)sink;
  std::sort(runs.begin(), runs.end());
  return runs[1];
}

std::string filesystem_name(const std::filesystem::path& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a Debug build\n");
  return 2;
#endif
  std::string git_sha = "none";
  std::string digest = "none";
  const Options options = parse(argc, argv, git_sha, digest);
  std::filesystem::create_directories(options.run_dir);
  std::filesystem::create_directories(options.out_dir);
  // Start from a clean writeback state: dirty pages a previous run left
  // on this filesystem would otherwise be flushed under this run's fsyncs.
  if (const int fd = ::open(options.run_dir.c_str(), O_RDONLY | O_DIRECTORY); fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }

  Report report;
  report.note("workload", options.workload);
  report.note("seed", std::to_string(options.seed));
  report.note("trace", options.trace ? "1" : "0");
  report.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.note("clients", std::to_string(options.clients));
  report.note("spin_ns_per_iter", std::to_string(spin_ns_per_iter()));
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  report.note("git_sha", git_sha);
  report.note("source_digest", digest);
  report.note("volume_fs", filesystem_name(options.run_dir));
  report.note("io_uring", amoeba::storage::UringFileBackend::available() ? "available"
                                                                         : "unavailable");
  try {
    if (options.workload == "cluster_tcp") {
      run_cluster(options, report);
    } else {
      run_inproc(options, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(options.run_dir, ec);
  const std::vector<std::string> names = options.trace ? per_layer_names() : kEndToEnd;
  if (!report.finish(names, options.out_dir / "results.jsonl")) return 1;
  return report.correct() ? 0 : 1;
}
