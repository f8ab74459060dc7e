// bank_durable and read_inmem: an in-process BankServer (2 workers, as
// cluster_node deploys it) on the simulated network, driven by closed-loop
// client threads, each with its own Machine and Transport.
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <memory>
#include <stdexcept>
#include <thread>

#include "amoeba/core/schemes.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/storage/backend.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace net = amoeba::net;
namespace rpc = amoeba::rpc;
namespace servers = amoeba::servers;
using amoeba::core::Capability;
using servers::currency::kDollar;

constexpr std::uint64_t kBankGetPort = 0xBA7C;
constexpr std::size_t kOpsPerClient = std::size_t{1} << 18;
constexpr int kSetups = 9;
constexpr double kWarmupSeconds = 1.0;

struct Profile {
  bool durable = false;
  std::uint32_t accounts = 0;
  double zipf_s = 0.0;  // 0: uniform popularity
  double transfer_share = 0.0;
};

Profile profile_for(const std::string& workload) {
  if (workload == "bank_durable") return {true, 1024, 0.0, 0.75};
  return {false, 65'536, 0.99, 0.0};  // read_inmem
}

struct Op {
  OpKind kind = kBalance;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::int32_t amount = 0;
};

/// One client's inputs, generated before any timed window.
std::vector<Op> generate_ops(const Profile& p, std::uint64_t seed, int client) {
  amoeba::Rng rng(seed * 1'000'003 + static_cast<std::uint64_t>(client) + 1);
  const Zipf zipf(p.accounts, p.zipf_s > 0 ? p.zipf_s : 1.0);
  const auto pick = [&] {
    return p.zipf_s > 0 ? zipf.sample(rng)
                        : static_cast<std::uint32_t>(rng.below(p.accounts));
  };
  std::vector<Op> ops(kOpsPerClient);
  for (Op& op : ops) {
    op.a = pick();
    if (rng.uniform01() < p.transfer_share) {
      op.kind = kTransfer;
      do {
        op.b = pick();
      } while (op.b == op.a);
      op.amount = 1 + static_cast<std::int32_t>(rng.below(9));
    }
  }
  return ops;
}

/// Everything one setup builds.  Members are destroyed in reverse order:
/// the bank stops (draining its committer) before the volume and the
/// network it runs on go away.
struct Rig {
  std::unique_ptr<net::Network> net;
  std::unique_ptr<FrameTracer> tracer;
  net::Machine* host = nullptr;
  std::shared_ptr<const amoeba::core::ProtectionScheme> scheme;
  std::shared_ptr<TimedBackend> timed;
  std::unique_ptr<servers::BankServer> bank;
  std::vector<std::unique_ptr<rpc::Transport>> transports;
  std::vector<Capability> accounts;
  std::vector<std::int64_t> minted;
};

/// Runs fn(client) on `clients` threads, joins them, and rethrows the
/// first exception a thread raised.
template <typename Fn>
void on_clients(int clients, Fn&& fn) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(clients));
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          fn(c);
        } catch (...) {
          errors[static_cast<std::size_t>(c)] = std::current_exception();
        }
      });
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::unique_ptr<Rig> setup(const Profile& p, const Options& o, int index) {
  auto rig = std::make_unique<Rig>();
  net::Network::Config config;
  config.seed = o.seed;
  rig->net = std::make_unique<net::Network>(config);
  rig->tracer = std::make_unique<FrameTracer>(*rig->net);
  rig->host = &rig->net->add_machine("bank");
  amoeba::Rng scheme_rng(31);
  rig->scheme = amoeba::core::make_scheme(amoeba::core::SchemeKind::one_way_xor,
                                          scheme_rng);
  if (p.durable) {
    const auto volume = o.run_dir / "bank_vol";
    std::filesystem::remove_all(volume);
    rig->timed = std::make_shared<TimedBackend>(
        std::make_shared<amoeba::storage::FileBackend>(volume));
  }
  rig->bank = std::make_unique<servers::BankServer>(
      *rig->host, amoeba::Port(kBankGetPort), rig->scheme, o.seed, rig->timed);
  rig->bank->start(2);
  for (int c = 0; c < o.clients; ++c) {
    net::Machine& m = rig->net->add_machine("client-" + std::to_string(c));
    rig->tracer->add_client_machine(m.id());
    rig->transports.push_back(std::make_unique<rpc::Transport>(
        m, o.seed * 7919 + static_cast<std::uint64_t>(index * 64 + c)));
  }

  amoeba::Rng mint_rng(o.seed ^ 0x5EED);
  rig->minted.resize(p.accounts);
  for (auto& m : rig->minted) m = 1'000'000'000 + static_cast<std::int64_t>(mint_rng.below(1'000'000));
  rig->accounts.resize(p.accounts);
  // Each client creates an interleaved slice of the accounts.
  on_clients(o.clients, [&](int c) {
    std::vector<std::int64_t> amounts;
    for (std::size_t i = static_cast<std::size_t>(c); i < p.accounts;
         i += static_cast<std::size_t>(o.clients)) {
      amounts.push_back(rig->minted[i]);
    }
    const auto made = create_funded_accounts(*rig->transports[c],
                                             rig->bank->master_capability(), amounts);
    for (std::size_t k = 0; k < made.size(); ++k) {
      rig->accounts[static_cast<std::size_t>(c) + k * static_cast<std::size_t>(o.clients)] = made[k];
    }
  });
  return rig;
}

/// Closed-loop state of one client thread, kept across windows.
struct ClientState {
  std::vector<Op> ops;
  std::size_t cursor = 0;
  std::vector<std::int64_t> ledger;  // confirmed transfer deltas per account
  std::uint64_t balance_mismatches = 0;
};

/// Drives every client for `seconds`.  `record` keeps latencies; `traced`
/// also keeps client spans.
Window run_window(Rig& rig, std::vector<ClientState>& clients, double seconds,
                  bool record, bool traced, bool exact_balances) {
  const int n = static_cast<int>(clients.size());
  std::vector<Window> per(clients.size());
  std::barrier start(n + 1);
  Clock::time_point t0;
  Clock::time_point deadline;
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        ClientState& state = clients[c];
        Window& out = per[c];
        servers::BankClient bank(*rig.transports[c], rig.bank->put_port());
        start.arrive_and_wait();
        out.start_slices(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t0.time_since_epoch()).count(),
            seconds);
        while (Clock::now() < deadline) {
          const Op& op = state.ops[state.cursor++ % state.ops.size()];
          const std::int64_t begin = now_ns();
          bool ok = false;
          if (op.kind == kBalance) {
            const auto balance = bank.balance(rig.accounts[op.a], kDollar);
            ok = balance.ok();
            if (ok && exact_balances && balance.value() != rig.minted[op.a]) {
              ++state.balance_mismatches;
            }
          } else {
            ok = bank.transfer(rig.accounts[op.a], rig.accounts[op.b], kDollar,
                               op.amount).ok();
            if (ok) {
              state.ledger[op.a] -= op.amount;
              state.ledger[op.b] += op.amount;
            }
          }
          const std::int64_t end = now_ns();
          if (!record) continue;
          if (ok) {
            out.record(op.kind, end, static_cast<double>(end - begin) / 1e3);
          } else {
            ++out.failed[op.kind];
          }
          if (traced) {
            out.spans.push_back(
                {op.kind, begin, end, FrameTracer::last_call_on_this_thread()});
          }
        }
      });
    }
    t0 = Clock::now();
    deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    start.arrive_and_wait();
  }
  Window merged;
  merged.elapsed_s = seconds_since(t0);
  for (auto& w : per) merged.merge(std::move(w));
  return merged;
}

struct Snapshot {
  ClientCounters client;
  std::uint64_t served = 0;
  std::uint64_t dup_suppressed = 0;
  ServiceCounters service;
  TimedBackend::Counters storage;
};

Snapshot snapshot(Rig& rig) {
  Snapshot s;
  // std_info first, so the counters below do not count its own call.
  const auto info = rpc::std_info(*rig.transports.front(),
                                  rig.bank->master_capability(), true);
  if (info.ok()) s.service.gc_groups = parse_std_info(info.value()).gc_groups;
  const auto& ns = rig.net->stats();
  s.client = read_client_counters(rig.transports, *rig.net,
                                  ns.unicasts.load() + ns.broadcasts.load());
  s.served = rig.bank->requests_served();
  s.dup_suppressed = rig.bank->reply_cache_stats().duplicates_suppressed;
  for (const auto& op : rig.bank->op_metrics()) {
    s.service.ops[op.name] = {op.calls, op.total_us, op.max_us};
  }
  if (rig.timed != nullptr) s.storage = rig.timed->counters();
  return s;
}

/// Reopens the volume in a fresh BankServer and checks every account
/// against the minted amounts plus the client ledger of confirmed
/// transfers.  Returns the reopen time in microseconds.
double verify_durable(Rig& rig, const Options& o,
                      const std::vector<ClientState>& clients, Report& report) {
  std::vector<std::int64_t> expected = rig.minted;
  for (const auto& c : clients) {
    for (std::size_t i = 0; i < expected.size(); ++i) expected[i] += c.ledger[i];
  }
  std::int64_t minted_total = 0;
  for (const auto m : rig.minted) minted_total += m;

  rig.bank.reset();  // stops the workers and drains the committer
  rig.timed.reset();
  const auto start = Clock::now();
  servers::BankServer reopened(
      *rig.host, amoeba::Port(kBankGetPort), rig.scheme, o.seed,
      std::make_shared<amoeba::storage::FileBackend>(o.run_dir / "bank_vol"));
  const double reopen_us = seconds_since(start) * 1e6;
  reopened.start(2);

  std::vector<std::int64_t> seen(expected.size(), 0);
  std::atomic<std::uint64_t> refused{0};
  on_clients(o.clients, [&](int c) {
    servers::BankClient bank(*rig.transports[c], reopened.put_port());
    for (std::size_t i = static_cast<std::size_t>(c); i < seen.size();
         i += static_cast<std::size_t>(o.clients)) {
      const auto balance = bank.balance(rig.accounts[i], kDollar);
      if (balance.ok()) {
        seen[i] = balance.value();
      } else {
        refused.fetch_add(1);
      }
    }
  });
  std::int64_t total = 0;
  std::uint64_t mismatched = 0;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    total += seen[i];
    if (seen[i] != expected[i]) ++mismatched;
  }
  report.check("reopened_caps_validate", refused.load() == 0,
               std::to_string(seen.size() - refused.load()) + "/" +
                   std::to_string(seen.size()) + " accounts readable after reopen");
  report.check("conservation", total == minted_total,
               "sum " + std::to_string(total) + ", minted " + std::to_string(minted_total));
  report.check("ledger", mismatched == 0,
               std::to_string(mismatched) + " accounts differ from minted + confirmed transfers");
  return reopen_us;
}

/// The traced window and every per-layer metric of an in-process run.
void report_layers(Rig& rig, std::vector<ClientState>& clients, const Window& plain,
                   const Options& o, const Profile& p, Report& report) {
  const bool exact = !p.durable;
  const Snapshot before = snapshot(rig);
  rig.tracer->set_tracing(true);
  if (rig.timed != nullptr) rig.timed->set_tracing(true);
  const Window traced = run_window(rig, clients, o.seconds, true, true, exact);
  rig.tracer->set_tracing(false);
  if (rig.timed != nullptr) rig.timed->set_tracing(false);
  const Snapshot after = snapshot(rig);
  report.add_attempted(traced.ok_ops() + traced.failed_ops());
  report.add_failed(traced.failed_ops());

  const std::uint64_t ops = traced.ok_ops() + traced.failed_ops();
  const double per = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  const auto frames = rig.tracer->join();
  const std::vector<StorageSpan> spans =
      rig.timed != nullptr ? rig.timed->take_spans() : std::vector<StorageSpan>{};
  const TraceSummary summary = analyze_trace(traced, frames, spans);
  dump_spans(o.out_dir / ("spans-" + o.workload + "-seed" + std::to_string(o.seed) + ".csv"),
             traced, frames, spans);

  report_storage(report, before.storage, after.storage, spans, ops);
  report.metric("storage.gc_groups_per_op",
                static_cast<double>(after.service.gc_groups - before.service.gc_groups) * per,
                "1/op", ops);
  report.metric("replication.shipped_per_op", 0.0, "1/op", ops);
  report.metric("replication.lag_lsn", 0.0, "lsn", 1);
  report_handlers(report, before.service, after.service);
  report_trace(report, summary);
  report.metric("rpc.dup_suppressed",
                static_cast<double>(after.dup_suppressed - before.dup_suppressed),
                "count", ops);
  report.metric("rpc.served_per_op",
                static_cast<double>(after.served - before.served) * per, "1/op", ops);
  report_client(report, before.client, after.client, summary, plain, traced);
  report.metric("bench.gen_late_p99_us", 0.0, "us", 0);

  ReplayPlan plan;
  plan.scheme = amoeba::core::SchemeKind::one_way_xor;
  plan.objects = p.accounts;
  for (const auto& c : clients) {
    auto& singles = plan.singles.emplace_back();
    auto& pairs = plan.pairs.emplace_back();
    const std::size_t used = std::min(c.cursor, c.ops.size());
    for (std::size_t i = 0; i < used; ++i) {
      const Op& op = c.ops[i];
      singles.push_back(op.a);
      if (op.kind == kTransfer) pairs.emplace_back(op.a, op.b);
    }
  }
  replay_core_crypto(plan, report);
}

}  // namespace

int run_inproc(const Options& o, Report& report) {
  const Profile p = profile_for(o.workload);
  const bool exact = !p.durable;  // balances never change without transfers
  // Set up kSetups times (setup_s is their median); measure the last one.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const auto start = Clock::now();
    rig = setup(p, o, i);
    setup_s.push_back(seconds_since(start));
  }

  std::vector<ClientState> clients(static_cast<std::size_t>(o.clients));
  for (int c = 0; c < o.clients; ++c) {
    clients[c].ops = generate_ops(p, o.seed, c);
    clients[c].ledger.assign(p.accounts, 0);
  }
  (void)run_window(*rig, clients, kWarmupSeconds, false, false, exact);
  // A traced run needs its untraced window only as the reference for the
  // tracing overhead, so it spends most of its time traced.
  const double plain_s = o.trace ? o.seconds / 3 : o.seconds;
  const Window plain = run_window(*rig, clients, plain_s, true, false, exact);
  report_end_to_end(report, plain, median(setup_s), peak_rss_mb(::getpid()));
  report.add_attempted(plain.ok_ops() + plain.failed_ops());
  report.add_failed(plain.failed_ops());
  if (o.trace) report_layers(*rig, clients, plain, o, p, report);

  if (p.durable) {
    const std::uint64_t journaled = rig->timed->counters().group_records +
                                    rig->timed->counters().direct_appends;
    const double reopen_us = verify_durable(*rig, o, clients, report);
    report.metric("storage.recover_us_per_op",
                  journaled > 0 ? reopen_us / static_cast<double>(journaled) : 0.0,
                  "us/op", journaled);
  } else {
    std::uint64_t mismatches = 0;
    std::uint64_t reads = 0;
    for (const auto& c : clients) {
      mismatches += c.balance_mismatches;
      reads += c.cursor;
    }
    report.check("balances_match_minted", mismatches == 0,
                 std::to_string(mismatches) + " of " + std::to_string(reads) +
                     " balance replies differ from the minted amount");
    report.metric("storage.recover_us_per_op", 0.0, "us/op", 0);
  }
  return 0;
}

}  // namespace perfbench
