// E15: what replication costs the primary's mutate path.
//
// The volume under test is a grouped (PR-6) object store whose backend is
// wrapped as a replication primary (docs/PROTOCOL.md §9) shipping every
// flush cycle to a ReplicaServer on another simulated machine.  The
// contrast:
//
//   * unreplicated grouped   -- the PR-6 baseline, no peers attached,
//   * replicated, async      -- ship-and-forget: the hook encodes the
//                               cycle frame and queues it; mutators never
//                               wait on the backup,
//   * replicated, ack-one    -- every flush cycle waits for one backup's
//                               durable apply (one RPC round trip per
//                               CYCLE, amortized over the whole group).
//
// The acceptance bar (PR 8): async-replicated pure mutate must stay
// within 1.3x of unreplicated grouped -- shipping is an encode + a queue
// push per flush cycle, nothing a mutator waits on.  The report prints
// the three timings, appends one JSON line to BENCH_replication.json,
// and exits nonzero if the async bar fails.
//
// The bar presumes the backup has a core of its own -- in deployment it
// is another MACHINE; only the simulation co-locates it.  On a 1-core
// host the replica's decode+apply (work at least comparable to the
// mutation work being measured) time-shares with the mutator, so the
// ratio is reported but the exit-code gate is waived there.
//
// Knobs: --smoke (token repetitions for CI).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "smoke.hpp"

#include "amoeba/common/rng.hpp"
#include "amoeba/core/object_store.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/replication.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"

namespace {

using namespace amoeba;

constexpr Port kPort{0xE15E15E15ULL};
constexpr int kObjects = 4096;
/// Pipelined durability window (same shape as E14's mutate loops).
constexpr int kWindow = 4096;
[[nodiscard]] std::shared_ptr<const core::ProtectionScheme> scheme() {
  static const std::shared_ptr<const core::ProtectionScheme> shared = [] {
    Rng rng(19);
    return std::shared_ptr<const core::ProtectionScheme>(
        core::make_scheme(core::SchemeKind::encrypted, rng));
  }();
  return shared;
}

struct Payload {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Every rig (the unreplicated baseline too) runs the committer's fixed
/// adaptive pacing: it lingers up to 200 us while no mutator waits, so the
/// pipelined cycles are big enough to amortize a shipment's encode + RPC
/// + remote apply.
[[nodiscard]] core::Durability<Payload> codec(
    const std::shared_ptr<storage::Backend>& backend) {
  core::Durability<Payload> d;
  d.committer = storage::GroupCommitter::create(backend);
  d.encode = [](Writer& w, const Payload& p) {
    w.u64(p.a);
    w.u64(p.b);
  };
  d.decode = [](Reader& r, Payload& p) {
    p.a = r.u64();
    p.b = r.u64();
    return r.ok();
  };
  return d;
}

/// A grouped store over either a bare MemoryBackend (mode == nullopt) or
/// a ReplicatedBackend shipping to a live ReplicaServer one simulated
/// machine away.
struct Rig {
  explicit Rig(std::optional<storage::AckMode> mode)
      : primary_machine(net.add_machine("primary")),
        backup_machine(net.add_machine("backup")) {
    std::shared_ptr<storage::Backend> backend =
        std::make_shared<storage::MemoryBackend>(16);
    if (mode.has_value()) {
      replica = std::make_unique<rpc::ReplicaServer>(
          backup_machine, Port(0x7B01), scheme(), 3,
          std::make_shared<storage::MemoryBackend>(16));
      replica->start(2);
      replicated = rpc::replicate_to(
          backend, *mode, primary_machine, 7,
          {{"backup", replica->volume_capability()}});
      backend = replicated;
    }
    store = std::make_unique<core::ObjectStore<Payload>>(
        scheme(), kPort, 17, 16, codec(backend));
    caps.reserve(kObjects);
    for (int i = 0; i < kObjects; ++i) {
      caps.push_back(store->create({static_cast<std::uint64_t>(i), 0}));
    }
  }

  ~Rig() {
    store.reset();       // drains the committer (and its shipping hook)
    replicated.reset();  // joins the shipper threads
    if (replica != nullptr) {
      replica->stop();
    }
  }

  /// Drains the shipping backlog (setup's creates each flushed a cycle of
  /// their own) so a timed region measures steady-state mutate cost, not
  /// the backup catching up on setup.
  void sync() {
    if (replicated == nullptr) {
      return;
    }
    for (int i = 0; i < 20'000; ++i) {
      const auto stats = replicated->stats();
      bool synced = true;
      for (const auto& peer : stats.peers) {
        synced = synced && peer.queued == 0;
      }
      if (synced) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  net::Network net;
  net::Machine& primary_machine;
  net::Machine& backup_machine;
  std::unique_ptr<rpc::ReplicaServer> replica;
  std::shared_ptr<storage::ReplicatedBackend> replicated;
  std::unique_ptr<core::ObjectStore<Payload>> store;
  std::vector<core::Capability> caps;
};

/// E14's pipelined mutate loop: up to kWindow releases overlap each flush
/// cycle (and, here, each shipment).
void mutate_loop(benchmark::State& state, Rig& rig) {
  rig.sync();
  Rng rng(99);
  std::uint64_t ticket = 0;
  int outstanding = 0;
  for (auto _ : state) {
    auto opened = rig.store->open(rig.caps[rng.below(kObjects)],
                                  core::rights::kWrite);
    if (!opened.ok()) {
      state.SkipWithError("open failed");
      break;
    }
    ++opened.value().value->b;
    opened.value().mark_dirty();
    ticket = opened.value().release_async();
    if (++outstanding >= kWindow) {
      rig.store->wait_durable(ticket);
      outstanding = 0;
    }
  }
  rig.store->wait_durable(ticket);
  state.SetItemsProcessed(state.iterations());
}

void BM_MutateUnreplicatedGrouped(benchmark::State& state) {
  Rig rig(std::nullopt);
  mutate_loop(state, rig);
}
BENCHMARK(BM_MutateUnreplicatedGrouped);

void BM_MutateReplicatedAsync(benchmark::State& state) {
  Rig rig(storage::AckMode::async);
  mutate_loop(state, rig);
}
BENCHMARK(BM_MutateReplicatedAsync);

void BM_MutateReplicatedAckOne(benchmark::State& state) {
  Rig rig(storage::AckMode::ack_one);
  mutate_loop(state, rig);
}
BENCHMARK(BM_MutateReplicatedAckOne);

[[nodiscard]] double timed_mutates(Rig& rig, int ops) {
  rig.sync();
  Rng rng(1);
  return amoeba::bench::timed_ms([&] {
    std::uint64_t ticket = 0;
    int outstanding = 0;
    for (int i = 0; i < ops; ++i) {
      auto opened = rig.store->open(rig.caps[rng.below(kObjects)],
                                    core::rights::kWrite);
      ++opened.value().value->b;
      opened.value().mark_dirty();
      ticket = opened.value().release_async();
      if (++outstanding >= kWindow) {
        rig.store->wait_durable(ticket);
        outstanding = 0;
      }
    }
    rig.store->wait_durable(ticket);
  });
}

/// Contrast report: the PR-8 acceptance numbers, printed, appended as one
/// JSON line to BENCH_replication.json, enforced (async bar only --
/// ack-one's cost is a round trip per cycle and load-dependent, so it is
/// reported, not gated).  Returns the process exit code.
[[nodiscard]] int report(bool smoke) {
  const int ops = smoke ? 40'000 : 400'000;

  const double unreplicated_ms = [&] {
    Rig rig(std::nullopt);
    return timed_mutates(rig, ops);
  }();
  double async_ms = 0;
  std::uint64_t async_shipped = 0;
  {
    Rig rig(storage::AckMode::async);
    async_ms = timed_mutates(rig, ops);
    async_shipped = rig.replicated->stats().shipped_lsn;
  }
  double ack_one_ms = 0;
  std::uint64_t ack_one_shipped = 0;
  {
    Rig rig(storage::AckMode::ack_one);
    ack_one_ms = timed_mutates(rig, ops);
    ack_one_shipped = rig.replicated->stats().shipped_lsn;
  }

  const double async_ratio = async_ms / unreplicated_ms;
  const double ack_one_ratio = ack_one_ms / unreplicated_ms;
  std::printf(
      "\nE15 replication contrast (pure mutate, grouped, %d ops)\n"
      "  unreplicated grouped          : %9.1f ms  (%6.2f us/op)\n"
      "  replicated, async             : %9.1f ms  (%6.2f us/op, %llu "
      "shipments)\n"
      "  replicated, ack-one           : %9.1f ms  (%6.2f us/op, %llu "
      "shipments)\n"
      "  async / unreplicated          : %9.2fx  (acceptance bar: <= "
      "1.3x)%s\n"
      "  ack-one / unreplicated        : %9.2fx  (reported, not gated)\n",
      ops, unreplicated_ms, unreplicated_ms * 1e3 / ops, async_ms,
      async_ms * 1e3 / ops, static_cast<unsigned long long>(async_shipped),
      ack_one_ms, ack_one_ms * 1e3 / ops,
      static_cast<unsigned long long>(ack_one_shipped), async_ratio,
      async_ratio <= 1.3 ? "  PASS" : "  FAIL", ack_one_ratio);

  if (std::FILE* json = std::fopen("BENCH_replication.json", "a")) {
    std::fprintf(
        json,
        "{\"bench\": \"e15\", \"mode\": \"%s\", \"ops\": %d, "
        "\"window\": %d, \"unreplicated_ms\": %.3f, \"async_ms\": %.3f, "
        "\"ack_one_ms\": %.3f, \"async_vs_unreplicated\": %.3f, "
        "\"ack_one_vs_unreplicated\": %.3f, \"async_shipments\": %llu, "
        "\"ack_one_shipments\": %llu}\n",
        smoke ? "smoke" : "full", ops, kWindow, unreplicated_ms, async_ms,
        ack_one_ms, async_ratio, ack_one_ratio,
        static_cast<unsigned long long>(async_shipped),
        static_cast<unsigned long long>(ack_one_shipped));
    std::fclose(json);
  }

  if (async_ratio > 1.3) {
    if (std::thread::hardware_concurrency() < 2) {
      std::printf(
          "  (gate waived: 1-core host -- the co-located backup's apply "
          "work time-shares with the measured mutator)\n");
      return 0;
    }
    std::fprintf(stderr,
                 "E15 FAIL: async replication (%.1f ms) exceeded 1.3x of "
                 "unreplicated grouped (%.1f ms)\n",
                 async_ms, unreplicated_ms);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    smoke |= std::string_view(argv[i]) == "--smoke";
  }
  amoeba::bench::initialize(argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return report(smoke);
}
