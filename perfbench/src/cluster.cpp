// cluster_tcp: three cluster_node processes on file-backed volumes (the
// bank replicating ack_one to a replica, and a directory), reached by the
// benchmark's client threads over loopback TCP with no proxy and no faults.
// Load is open loop: sessions arrive at a fixed rate whatever the cluster
// does, and every session and its first op are timed from when it was due.
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "amoeba/core/schemes.hpp"
#include "amoeba/net/socket_network.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/directory_server.hpp"
#include "amoeba/storage/backend.hpp"
#include "cluster_proto.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace net = amoeba::net;
namespace rpc = amoeba::rpc;
namespace servers = amoeba::servers;
namespace cluster = amoeba::cluster;
using amoeba::core::Capability;
using servers::currency::kDollar;
using namespace std::chrono_literals;

constexpr int kHotAccounts = 64;
constexpr double kZipfS = 1.1;
constexpr std::int64_t kMintPerAccount = 1'000'000;
constexpr std::int64_t kTransferAmount = 5;
constexpr int kSetups = 9;
constexpr double kWarmupSeconds = 1.0;

/// Sessions per second offered to the cluster: about half its capacity on
/// a 4-vCPU host, where offered rates of 150-200 sessions/s already built
/// a growing backlog (see perfbench/README.md).
constexpr double kSessionRate = 80.0;

std::map<std::string, std::string> wait_boot(const fs::path& dir,
                                             const std::string& name) {
  const auto deadline = Clock::now() + 30s;
  while (Clock::now() < deadline) {
    auto kv = cluster::read_kv(dir / (name + ".boot"));
    if (kv.contains("incarnation")) return kv;
    std::this_thread::sleep_for(5ms);
  }
  throw std::runtime_error("cluster: node " + name + " never booted");
}

/// The cluster of one setup.  Teardown order: client transports and the
/// client network first, then the node processes.
struct ClusterRig {
  Children children;
  fs::path dir;
  pid_t bank_pid = 0;
  std::unique_ptr<net::SocketNetwork> client_net;
  std::unique_ptr<FrameTracer> tracer;
  std::unique_ptr<rpc::Transport> setup_transport;
  std::vector<std::unique_ptr<rpc::Transport>> transports;
  Capability master;
  Capability dir_root;
  std::vector<Capability> hot;

  ~ClusterRig() { stop(); }
  void stop() {
    transports.clear();
    setup_transport.reset();
    tracer.reset();
    client_net.reset();
    children.stop_all();
  }
};

std::unique_ptr<ClusterRig> setup(const Options& o, int index) {
  auto rig = std::make_unique<ClusterRig>();
  rig->dir = o.run_dir / ("cluster-" + std::to_string(index));
  fs::remove_all(rig->dir);
  fs::create_directories(rig->dir);
  const std::string bin = o.node_bin.string();
  const std::string run = rig->dir.string();
  const auto node = [&](const std::string& role, const std::string& name,
                        const std::string& base, const std::string& seed,
                        std::vector<std::string> extra) {
    std::vector<std::string> args = {bin, "--role", role, "--name", name,
                                     "--run-dir", run, "--volume",
                                     (rig->dir / (name + "_vol")).string(),
                                     "--base", base, "--seed", seed};
    args.insert(args.end(), extra.begin(), extra.end());
    return rig->children.spawn(args, rig->dir / (name + ".log"));
  };
  node("replica", "replica", "200", "11", {});
  node("directory", "dir", "300", "13", {});
  const auto replica = wait_boot(rig->dir, "replica");
  rig->bank_pid = node("bank", "bank", "100", "7",
                       {"--peer", "127.0.0.1:" + replica.at("port"),
                        "--replica-cap", replica.at("volume")});
  const auto bank = wait_boot(rig->dir, "bank");
  const auto dir = wait_boot(rig->dir, "dir");
  rig->master = amoeba::core::unpack(cluster::from_hex(bank.at("master")).value());
  rig->dir_root = amoeba::core::unpack(cluster::from_hex(dir.at("root")).value());

  net::SocketNetwork::SocketConfig config;
  config.net.seed = o.seed;
  config.net.machine_id_base = 9000;
  config.listen = false;
  const auto port = [](const std::string& p) {
    return static_cast<std::uint16_t>(std::stoul(p));
  };
  config.peers = {{"127.0.0.1", port(bank.at("port"))},
                  {"127.0.0.1", port(dir.at("port"))}};
  rig->client_net = std::make_unique<net::SocketNetwork>(config);
  rig->tracer = std::make_unique<FrameTracer>(*rig->client_net);
  net::Machine& setup_machine = rig->client_net->add_machine("setup");
  rig->tracer->add_client_machine(setup_machine.id());
  for (int c = 0; c < o.clients; ++c) {
    net::Machine& m = rig->client_net->add_machine("client-" + std::to_string(c));
    rig->tracer->add_client_machine(m.id());
    rig->transports.push_back(std::make_unique<rpc::Transport>(
        m, o.seed * 7919 + static_cast<std::uint64_t>(index * 64 + c)));
  }
  for (std::size_t i = 0; i < config.peers.size(); ++i) {
    if (!rig->client_net->wait_connected(i, 10'000ms)) {
      throw std::runtime_error("cluster: node unreachable");
    }
  }

  rig->setup_transport = std::make_unique<rpc::Transport>(
      setup_machine, o.seed * 7919 + static_cast<std::uint64_t>(index * 64 + 63));
  rig->hot = create_funded_accounts(*rig->setup_transport, rig->master,
                                    std::vector<std::int64_t>(kHotAccounts, kMintPerAccount));
  amoeba::rpc::TypedBatch names(*rig->setup_transport, rig->dir_root.server_port);
  std::vector<amoeba::rpc::TypedBatch::Entry<
      std::remove_cvref_t<decltype(servers::dir_ops::kEnter)>>> entered;
  for (int i = 0; i < kHotAccounts; ++i) {
    entered.push_back(names.add(servers::dir_ops::kEnter, rig->dir_root,
                                {"acct-" + std::to_string(i), rig->hot[i]}));
  }
  const auto done = names.run();
  if (!done.ok()) throw std::runtime_error("cluster: directory setup failed");
  for (const auto& entry : entered) {
    if (!done.value().get(entry).ok()) throw std::runtime_error("cluster: enter failed");
  }
  return rig;
}

struct Session {
  Capability sink;
  bool has_sink = false;
  bool confirmed = false;
};

/// Open-loop state kept across windows.
struct Load {
  std::vector<std::uint32_t> picks;  // hot account of each session
  std::vector<Session> sessions;
  std::size_t next = 0;              // first session of the next window
  std::vector<std::vector<std::uint32_t>> handled;  // sessions per client
};

/// Offers sessions at kSessionRate for `seconds`; sessions whose due time
/// falls in the first `warmup` seconds are run but not recorded.
Window run_window(ClusterRig& rig, Load& load, double warmup, double seconds,
                  bool traced) {
  struct Due {
    std::size_t session;
    Clock::time_point due;
    bool record;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Due> queue;  // guarded by mutex
  bool closed = false;    // guarded by mutex

  const int n = static_cast<int>(rig.transports.size());
  std::vector<Window> per(static_cast<std::size_t>(n));
  std::vector<std::int64_t> last_end(static_cast<std::size_t>(n), 0);
  Window generator;
  const auto t0 = Clock::now() + 5ms;
  const std::int64_t window_start =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t0.time_since_epoch()).count() +
      static_cast<std::int64_t>(warmup * 1e9);
  for (auto& w : per) w.start_slices(window_start, seconds);
  const auto sessions = static_cast<std::size_t>((warmup + seconds) * kSessionRate);
  if (load.next + sessions > load.picks.size()) {
    throw std::runtime_error("cluster: session inputs exhausted");
  }
  {
    std::vector<std::jthread> workers;
    for (int c = 0; c < n; ++c) {
      workers.emplace_back([&, c] {
        Window& out = per[static_cast<std::size_t>(c)];
        servers::BankClient bank(*rig.transports[c], rig.master.server_port);
        servers::DirectoryClient dir(*rig.transports[c], rig.dir_root.server_port);
        while (true) {
          Due job;
          {
            std::unique_lock lock(mutex);
            ready.wait(lock, [&] { return closed || !queue.empty(); });
            if (queue.empty()) return;
            job = queue.front();
            queue.pop_front();
          }
          load.handled[static_cast<std::size_t>(c)].push_back(
              static_cast<std::uint32_t>(job.session));
          const std::uint32_t h = load.picks[job.session];
          Session& session = load.sessions[job.session];
          std::int64_t issued = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    job.due.time_since_epoch()).count();
          bool all_ok = true;
          // Records one op, timed from `issued` (the session's due time for
          // the first op, the previous op's completion after that).
          const auto finish = [&](OpKind kind, std::int64_t start, bool ok) {
            const std::int64_t end = now_ns();
            all_ok = all_ok && ok;
            if (job.record) {
              if (ok) {
                out.record(kind, end, static_cast<double>(end - issued) / 1e3);
              } else {
                ++out.failed[kind];
              }
              if (traced) {
                out.spans.push_back(
                    {kind, start, end, FrameTracer::last_call_on_this_thread()});
              }
            }
            issued = end;
          };
          std::int64_t start = now_ns();
          const auto resolved = dir.lookup(rig.dir_root, "acct-" + std::to_string(h));
          finish(kLookup, start, resolved.ok());
          const Capability source = resolved.ok() ? resolved.value() : rig.hot[h];
          start = now_ns();
          finish(kBalance, start, bank.balance(source, kDollar).ok());
          start = now_ns();
          const auto sink = bank.create_account();
          finish(kCreate, start, sink.ok());
          if (sink.ok()) {
            session.sink = sink.value();
            session.has_sink = true;
            start = now_ns();
            session.confirmed =
                bank.transfer(source, session.sink, kDollar, kTransferAmount).ok();
            finish(kTransfer, start, session.confirmed);
          }
          if (job.record) last_end[static_cast<std::size_t>(c)] = now_ns();
          if (job.record && all_ok) {
            out.session.record_us(
                std::chrono::duration<double, std::micro>(Clock::now() - job.due).count());
          }
        }
      });
    }
    for (std::size_t i = 0; i < sessions; ++i) {
      const auto offset = std::chrono::duration<double>(static_cast<double>(i) / kSessionRate);
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(offset);
      std::this_thread::sleep_until(due);
      const bool record = offset.count() >= warmup;
      if (record) {
        generator.gen_late.record_us(
            std::chrono::duration<double, std::micro>(Clock::now() - due).count());
      }
      {
        const std::lock_guard lock(mutex);
        queue.push_back({load.next + i, due, record});
      }
      ready.notify_one();
    }
    {
      const std::lock_guard lock(mutex);
      closed = true;
    }
    ready.notify_all();
  }
  load.next += sessions;
  // Whole-window throughput: from the first due time to the completion of
  // the last recorded session.
  Window merged;
  merged.elapsed_s =
      static_cast<double>(*std::max_element(last_end.begin(), last_end.end()) - window_start) / 1e9;
  for (auto& w : per) merged.merge(std::move(w));
  merged.merge(std::move(generator));
  return merged;
}

struct Snapshot {
  ClientCounters client;
  ServiceCounters bank;
  ServiceCounters dir;
};

Snapshot snapshot(ClusterRig& rig) {
  Snapshot s;
  const auto bank = rpc::std_info(*rig.setup_transport, rig.master, true);
  const auto dir = rpc::std_info(*rig.setup_transport, rig.dir_root, true);
  if (!bank.ok() || !dir.ok()) throw std::runtime_error("cluster: std_info failed");
  s.bank = parse_std_info(bank.value());
  s.dir = parse_std_info(dir.value());
  const auto sock = rig.client_net->socket_stats();
  s.client = read_client_counters(rig.transports, *rig.client_net,
                                  sock.frames_sent + sock.frames_received);
  return s;
}

/// Conservation, capability survival and exactly-one-transfer per sink,
/// read back through the live cluster.
void verify(ClusterRig& rig, const Load& load, Report& report) {
  std::vector<const Capability*> caps;
  for (const auto& h : rig.hot) caps.push_back(&h);
  std::vector<const Session*> sinks;
  for (std::size_t i = 0; i < load.next; ++i) {
    if (load.sessions[i].has_sink) {
      caps.push_back(&load.sessions[i].sink);
      sinks.push_back(&load.sessions[i]);
    }
  }
  std::vector<std::optional<std::int64_t>> seen(caps.size());
  {
    std::vector<std::jthread> threads;
    const std::size_t n = rig.transports.size();
    for (std::size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        servers::BankClient bank(*rig.transports[c], rig.master.server_port);
        for (std::size_t i = c; i < caps.size(); i += n) {
          const auto balance = bank.balance(*caps[i], kDollar);
          if (balance.ok()) seen[i] = balance.value();
        }
      });
    }
  }
  std::int64_t total = 0;
  std::uint64_t refused = 0;
  std::uint64_t wrong_sinks = 0;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    if (!seen[i].has_value()) {
      ++refused;
      continue;
    }
    total += *seen[i];
    if (i >= rig.hot.size()) {
      const Session& s = *sinks[i - rig.hot.size()];
      const std::int64_t want = s.confirmed ? kTransferAmount : 0;
      if (*seen[i] != want) ++wrong_sinks;
    }
  }
  const std::int64_t minted = kHotAccounts * kMintPerAccount;
  report.check("conservation", total == minted,
               "sum " + std::to_string(total) + ", minted " + std::to_string(minted));
  report.check("caps_validate", refused == 0,
               std::to_string(caps.size() - refused) + "/" + std::to_string(caps.size()) +
                   " hot and sink capabilities validate");
  report.check("one_transfer_per_sink", wrong_sinks == 0,
               std::to_string(wrong_sinks) + " of " + std::to_string(sinks.size()) +
                   " sinks differ from one transfer's worth");
}

/// Time to reopen the stopped bank's volume in a fresh BankServer.
double reopen_bank_us(const fs::path& volume) {
  net::Network local;
  net::Machine& host = local.add_machine("reopen");
  amoeba::Rng scheme_rng(cluster::kSchemeSeed);
  const auto scheme =
      amoeba::core::make_scheme(amoeba::core::SchemeKind::commutative, scheme_rng);
  const auto start = Clock::now();
  servers::BankServer bank(host, amoeba::Port(cluster::kBankGetPort), scheme, 7,
                           std::make_shared<amoeba::storage::FileBackend>(volume));
  return seconds_since(start) * 1e6;
}

/// The traced window and every per-layer metric of a cluster run.
void report_layers(ClusterRig& rig, Load& load, const Window& plain,
                   const Options& o, Report& report) {
  const Snapshot before = snapshot(rig);
  rig.tracer->set_tracing(true);
  const Window traced = run_window(rig, load, 0.0, o.seconds, true);
  rig.tracer->set_tracing(false);
  const Snapshot after = snapshot(rig);
  report.add_attempted(traced.ok_ops() + traced.failed_ops());
  report.add_failed(traced.failed_ops());

  const std::uint64_t ops = traced.ok_ops() + traced.failed_ops();
  const double per = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  const auto frames = rig.tracer->join();
  const TraceSummary summary = analyze_trace(traced, frames, {});
  dump_spans(o.out_dir / ("spans-" + o.workload + "-seed" + std::to_string(o.seed) + ".csv"),
             traced, frames, {});

  // The bank's volume lives inside cluster_node: the decorator metrics
  // are measured on the in-process workloads; here storage is seen
  // through std_info's group-commit counters and the volume reopen that
  // ends the run.
  std::printf("info storage decorator metrics are zero here: the bank's volume is inside cluster_node\n");
  report_storage(report, {}, {}, {}, ops);
  report.metric("storage.gc_groups_per_op",
                static_cast<double>(after.bank.gc_groups - before.bank.gc_groups) * per,
                "1/op", ops);
  report.metric("replication.shipped_per_op",
                static_cast<double>(after.bank.shipped_lsn - before.bank.shipped_lsn) * per,
                "1/op", ops);
  report.metric("replication.lag_lsn", static_cast<double>(after.bank.lag_lsn), "lsn", 1);
  ServiceCounters handlers_before = before.bank;
  ServiceCounters handlers_after = after.bank;
  handlers_before.ops.insert(before.dir.ops.begin(), before.dir.ops.end());
  handlers_after.ops.insert(after.dir.ops.begin(), after.dir.ops.end());
  report_handlers(report, handlers_before, handlers_after);
  report_trace(report, summary);
  report.metric("rpc.dup_suppressed", 0.0, "count", 0);
  std::uint64_t served = 0;
  for (const auto& [name, c] : handlers_after.ops) served += c.calls;
  for (const auto& [name, c] : handlers_before.ops) served -= c.calls;
  report.metric("rpc.served_per_op", static_cast<double>(served) * per, "1/op", ops);
  report_client(report, before.client, after.client, summary, plain, traced);
  report.metric("bench.gen_late_p99_us", traced.gen_late.percentile_us(0.99), "us",
                traced.gen_late.count());

  ReplayPlan plan;
  plan.scheme = amoeba::core::SchemeKind::commutative;
  constexpr std::uint32_t kSinkObjects = 4096;
  plan.objects = kHotAccounts + kSinkObjects;
  for (const auto& handled : load.handled) {
    auto& singles = plan.singles.emplace_back();
    auto& pairs = plan.pairs.emplace_back();
    for (const std::uint32_t s : handled) {
      singles.push_back(load.picks[s]);
      pairs.emplace_back(load.picks[s], kHotAccounts + s % kSinkObjects);
    }
  }
  replay_core_crypto(plan, report);
}

}  // namespace

int run_cluster(const Options& o, Report& report) {
  report.note("session_rate_per_s", std::to_string(kSessionRate));
  // Set up kSetups clusters (setup_s is their median); measure the last.
  std::vector<double> setup_s;
  std::unique_ptr<ClusterRig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const auto start = Clock::now();
    rig = setup(o, i);
    setup_s.push_back(seconds_since(start));
  }

  Load load;
  amoeba::Rng rng(o.seed);
  const Zipf zipf(kHotAccounts, kZipfS);
  // A traced run needs its untraced window only as the reference for the
  // tracing overhead, so it spends most of its time traced.
  const double plain_s = o.trace ? o.seconds / 3 : o.seconds;
  const double span = kWarmupSeconds + plain_s + (o.trace ? o.seconds : 0.0);
  load.picks.resize(static_cast<std::size_t>(span * kSessionRate) + 16);
  for (auto& pick : load.picks) pick = zipf.sample(rng);
  load.sessions.resize(load.picks.size());
  load.handled.resize(rig->transports.size());

  const Window plain = run_window(*rig, load, kWarmupSeconds, plain_s, false);
  report_end_to_end(report, plain, median(setup_s), peak_rss_mb(rig->bank_pid));
  report.add_attempted(plain.ok_ops() + plain.failed_ops());
  report.add_failed(plain.failed_ops());
  if (o.trace) report_layers(*rig, load, plain, o, report);

  verify(*rig, load, report);
  std::uint64_t mutations = 2 * kHotAccounts + 1;  // master, creates, mints
  for (std::size_t i = 0; i < load.next; ++i) {
    mutations += (load.sessions[i].has_sink ? 1 : 0) + (load.sessions[i].confirmed ? 1 : 0);
  }
  const fs::path volume = rig->dir / "bank_vol";
  rig->stop();
  const double reopen_us = reopen_bank_us(volume);
  report.metric("storage.recover_us_per_op", reopen_us / static_cast<double>(mutations),
                "us/op", mutations);
  return 0;
}

}  // namespace perfbench
