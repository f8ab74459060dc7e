// The three workloads and what they share: run options, per-op latency
// logs, client spans and the traced-run analysis.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "amoeba/core/capability.hpp"
#include "amoeba/rpc/transport.hpp"
#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path run_dir;   // volumes and node logs of this run
  std::filesystem::path out_dir;   // span dumps and the results file
  std::filesystem::path node_bin;  // cluster_node, built from source
  int clients = 4;                 // client threads = connections
};

/// The client-visible operations the workloads issue.
enum OpKind : std::uint8_t { kLookup, kBalance, kCreate, kTransfer, kOpKinds };
inline constexpr std::array<const char*, kOpKinds> kOpNames = {
    "lookup", "balance", "create_account", "transfer"};

/// One client call, for the traced run: its op, its wall interval and the
/// (client, seq) identity its frames carry.
struct ClientSpan {
  OpKind kind = kBalance;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  CallId id;
};

/// What one measured window produced, merged over client threads.
struct Window {
  /// One second of the window, by completion time.  The gated throughput
  /// and medians are medians over slices, so a host stall that covers
  /// less than half the window does not move them.
  struct Slice {
    std::uint64_t ops = 0;
    Histogram all;
    Histogram balance;
  };

  std::array<Histogram, kOpKinds> latency;  // ok calls only
  std::array<std::uint64_t, kOpKinds> failed{};
  Histogram session;                 // cluster sessions, from when due
  Histogram gen_late;                // cluster generator lateness
  std::vector<ClientSpan> spans;     // traced windows only
  std::vector<Slice> slices;
  std::int64_t start_ns = 0;         // slice 0 begins here
  double slice_s = 1.0;
  double elapsed_s = 0.0;

  /// Cuts [start_ns, start_ns + seconds) into whole-second slices (one
  /// slice when shorter).
  void start_slices(std::int64_t start, double seconds);
  /// Records one successful call that completed at `end_ns`.
  void record(OpKind kind, std::int64_t end_ns, double us);
  [[nodiscard]] std::uint64_t ok_ops() const;
  [[nodiscard]] std::uint64_t failed_ops() const;
  /// Completed calls per second over the whole window.
  [[nodiscard]] double ops_per_s() const;
  void merge(Window&& other);
};

/// Emits the end-to-end metrics of an untraced window.  Per-op figures
/// that exist only on some workloads are printed but not gated.
void report_end_to_end(Report& report, const Window& window, double setup_s,
                       double rss_mb);

/// Per-op rpc residence (request tap to reply tap) and client time (call
/// minus residence), plus the storage share of residence.
struct TraceSummary {
  std::array<std::vector<double>, kOpKinds> residence_us;
  std::array<std::vector<double>, kOpKinds> client_us;
  double storage_share = 0.0;  // storage-covered share of all residence
  std::uint64_t frame_bytes = 0;
  std::uint64_t joined = 0;
};
[[nodiscard]] TraceSummary analyze_trace(
    const Window& window,
    const std::unordered_map<std::uint64_t, FrameTimes>& frames,
    const std::vector<StorageSpan>& storage);

/// Emits rpc.residence_us.*, rpc.client_us.*, storage.residence_share.
void report_trace(Report& report, const TraceSummary& summary);

/// Writes the spans of the traced window as CSV (capped).
void dump_spans(const std::filesystem::path& path, const Window& window,
                const std::unordered_map<std::uint64_t, FrameTimes>& frames,
                const std::vector<StorageSpan>& storage);

/// Storage metrics from the decorator's counter deltas and spans (all
/// zero for a workload without a volume).
void report_storage(Report& report, const TimedBackend::Counters& before,
                    const TimedBackend::Counters& after,
                    const std::vector<StorageSpan>& spans, std::uint64_t ops);

/// Client-side rpc and network counters, read before and after the traced
/// window.  `frames` is what the network put on the wire (the simulated
/// network's unicasts + broadcasts, or SocketNetwork frames sent and
/// received).
struct ClientCounters {
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t frames = 0;
  std::uint64_t locates = 0;
  std::uint64_t rejected = 0;
  std::uint64_t dropped = 0;
};
[[nodiscard]] ClientCounters read_client_counters(
    const std::vector<std::unique_ptr<amoeba::rpc::Transport>>& transports,
    const amoeba::net::Network& net, std::uint64_t frames);

/// Emits the rpc client metrics (retransmits, timeouts, port cache), the
/// net metrics, and bench.trace_overhead_frac.
void report_client(Report& report, const ClientCounters& before,
                   const ClientCounters& after, const TraceSummary& summary,
                   const Window& plain, const Window& traced);

/// Handler counters of one typed op (Service::op_metrics, or the same
/// figures read remotely through std_info with the detail flag).
struct OpCounters {
  std::uint64_t calls = 0;
  std::uint64_t total_us = 0;
  std::uint64_t max_us = 0;
};

/// What a service reports about itself: per-op handler counters keyed by
/// op name ("bank.transfer"), and the deployment line's group-commit and
/// replication counters.
struct ServiceCounters {
  std::map<std::string, OpCounters> ops;
  std::uint64_t gc_groups = 0;
  std::uint64_t shipped_lsn = 0;
  std::uint64_t lag_lsn = 0;
};

/// Parses a detailed std_info description.
[[nodiscard]] ServiceCounters parse_std_info(const std::string& text);

/// Emits rpc.handler_us.* (mean over the window) and rpc.handler_max_us.*
/// (worst since the service started) for every client-visible op.
void report_handlers(Report& report, const ServiceCounters& before,
                     const ServiceCounters& after);

/// Creates one bank account per entry of `amounts` and mints that amount
/// into it, in batched round trips.  Throws when any entry fails.
[[nodiscard]] std::vector<amoeba::core::Capability> create_funded_accounts(
    amoeba::rpc::Transport& transport, const amoeba::core::Capability& master,
    const std::vector<std::int64_t>& amounts);

int run_inproc(const Options& options, Report& report);
int run_cluster(const Options& options, Report& report);

}  // namespace perfbench
