#include "replay.hpp"

#include <barrier>
#include <thread>
#include <unordered_map>

#include "amoeba/core/object_store.hpp"
#include "amoeba/crypto/one_way.hpp"

namespace perfbench {
namespace {

using amoeba::core::Capability;
namespace rights = amoeba::core::rights;
using Store = amoeba::core::ObjectStore<std::int64_t>;

constexpr std::size_t kMaxOpsPerPass = 100'000;
constexpr double kMaxPassSeconds = 0.2;
constexpr int kRepeats = 3;

volatile std::uint64_t g_sink = 0;

enum class StoreOp { open, open2, check };

/// One timed pass of `op` over a thread's sequence; ns per call.
double timed_pass(Store& store, const std::vector<Capability>& caps,
                  const std::vector<std::uint32_t>& singles,
                  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
                  StoreOp op, std::uint64_t& failures) {
  const std::size_t n = std::min(
      kMaxOpsPerPass, op == StoreOp::open2 ? pairs.size() : singles.size());
  const auto start = Clock::now();
  std::size_t done = 0;
  for (; done < n; ++done) {
    bool ok = false;
    if (op == StoreOp::open) {
      auto opened = store.open(caps[singles[done]], rights::kRead);
      ok = opened.ok();
    } else if (op == StoreOp::check) {
      const auto granted = store.check(caps[singles[done]], rights::kRead);
      ok = granted.ok();
    } else {
      auto both = store.open2(caps[pairs[done].first], rights::kRead,
                              caps[pairs[done].second], rights::kRead);
      ok = both.ok();
    }
    if (!ok) ++failures;
    if ((done & 1023) == 1023 && seconds_since(start) > kMaxPassSeconds) {
      ++done;
      break;
    }
  }
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  return done == 0 ? 0.0 : ns / static_cast<double>(done);
}

struct PhaseResult {
  double ns_per_op = 0.0;
  double hit_ratio = 0.0;
  std::uint64_t ops = 0;
};

/// Runs `op` on `threads` threads at once (each replaying its own client's
/// sequence), kRepeats times; median over repeats of the mean per-thread
/// ns per call.
PhaseResult run_phase(Store& store, const std::vector<Capability>& caps,
                      const ReplayPlan& plan,
                      const std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>& pairs,
                      StoreOp op, std::size_t threads, std::uint64_t& failures) {
  std::vector<double> per_repeat;
  PhaseResult result;
  const auto before = store.cache_stats();
  for (int r = 0; r < kRepeats; ++r) {
    std::vector<double> ns(threads, 0.0);
    std::vector<std::uint64_t> fails(threads, 0);
    std::barrier sync(static_cast<std::ptrdiff_t>(threads));
    {
      std::vector<std::jthread> workers;
      for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          sync.arrive_and_wait();
          ns[t] = timed_pass(store, caps, plan.singles[t], pairs[t], op, fails[t]);
        });
      }
    }
    double sum = 0.0;
    for (std::size_t t = 0; t < threads; ++t) {
      sum += ns[t];
      failures += fails[t];
      result.ops += std::min(kMaxOpsPerPass, op == StoreOp::open2
                                                 ? pairs[t].size()
                                                 : plan.singles[t].size());
    }
    per_repeat.push_back(sum / static_cast<double>(threads));
  }
  const auto after = store.cache_stats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups = hits + static_cast<double>(after.misses - before.misses);
  result.hit_ratio = lookups > 0 ? hits / lookups : 0.0;
  result.ns_per_op = median(per_repeat);
  return result;
}

void replay_crypto(const ReplayPlan& plan, Report& report) {
  amoeba::Rng rng(0xC0FFEE);
  const auto f = amoeba::crypto::default_one_way();
  {
    constexpr std::size_t kInputs = 100'000;
    std::vector<std::uint64_t> inputs(kInputs);
    for (auto& x : inputs) x = rng.bits(48);  // the one-way domain
    std::vector<double> per_repeat;
    std::uint64_t sink = 0;
    for (int r = 0; r < kRepeats; ++r) {
      const auto start = Clock::now();
      for (const std::uint64_t x : inputs) sink ^= f->apply_raw(x);
      per_repeat.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
          static_cast<double>(kInputs));
    }
    g_sink = sink;  // keeps the loop from being optimised away
    report.metric("crypto.one_way_ns", median(per_repeat), "ns",
                  kInputs * kRepeats);
  }
  const std::vector<std::uint32_t>& sequence = plan.singles.front();
  const std::size_t n = std::min<std::size_t>(sequence.size(), 20'000);
  for (const auto kind : {amoeba::core::SchemeKind::one_way_xor,
                          amoeba::core::SchemeKind::commutative}) {
    const auto scheme = amoeba::core::make_scheme(kind, rng);
    std::unordered_map<std::uint32_t, std::pair<Capability, std::uint64_t>> minted;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t object = sequence[i];
      if (!minted.contains(object)) {
        const std::uint64_t secret = scheme->new_secret(rng);
        minted.emplace(object,
                       std::pair{scheme->mint(amoeba::Port(0x5EED),
                                              amoeba::ObjectNumber(object + 1),
                                              secret, amoeba::Rights::all()),
                                 secret});
      }
    }
    std::vector<std::pair<Capability, std::uint64_t>> calls;
    calls.reserve(n);
    for (std::size_t i = 0; i < n; ++i) calls.push_back(minted.at(sequence[i]));
    std::vector<double> per_repeat;
    std::uint64_t invalid = 0;
    for (int r = 0; r < kRepeats; ++r) {
      const auto start = Clock::now();
      for (const auto& [cap, secret] : calls) {
        if (!scheme->validate(cap, secret).ok()) ++invalid;
      }
      per_repeat.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
          static_cast<double>(std::max<std::size_t>(n, 1)));
    }
    report.metric(std::string("crypto.validate_ns.") + amoeba::core::scheme_name(kind),
                  median(per_repeat), "ns", n * kRepeats);
    report.check(std::string("replay_validates_") + amoeba::core::scheme_name(kind),
                 invalid == 0,
                 std::to_string(n * kRepeats) + " validations, " +
                     std::to_string(invalid) + " refused");
  }
}

}  // namespace

void replay_core_crypto(const ReplayPlan& plan, Report& report) {
  amoeba::Rng rng(0xC0DE);
  const auto scheme = amoeba::core::make_scheme(plan.scheme, rng);
  Store store(scheme, amoeba::Port(0x5EED), 1);
  std::vector<Capability> caps;
  caps.reserve(plan.objects);
  for (std::uint32_t i = 0; i < plan.objects; ++i) caps.push_back(store.create(0));

  // Workloads without two-object calls replay consecutive distinct picks.
  auto pairs = plan.pairs;
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    if (!pairs[t].empty()) continue;
    const auto& s = plan.singles[t];
    for (std::size_t i = 1; i < s.size(); ++i) {
      if (s[i - 1] != s[i]) pairs[t].emplace_back(s[i - 1], s[i]);
    }
  }

  std::uint64_t failures = 0;
  // Warm the validated-capability cache as the server's warm-up did.
  (void)run_phase(store, caps, plan, pairs, StoreOp::open, 1, failures);
  const std::size_t clients = plan.singles.size();
  for (const auto& [label, threads] :
       {std::pair{std::string("t1"), std::size_t{1}}, std::pair{std::string("tN"), clients}}) {
    const PhaseResult open = run_phase(store, caps, plan, pairs, StoreOp::open, threads, failures);
    const PhaseResult open2 = run_phase(store, caps, plan, pairs, StoreOp::open2, threads, failures);
    const PhaseResult check = run_phase(store, caps, plan, pairs, StoreOp::check, threads, failures);
    report.metric("core.open_ns." + label, open.ns_per_op, "ns", open.ops);
    report.metric("core.open2_ns." + label, open2.ns_per_op, "ns", open2.ops);
    report.metric("core.check_ns." + label, check.ns_per_op, "ns", check.ops);
    report.metric("core.cache_hit_ratio." + label, open.hit_ratio, "ratio", open.ops);
  }
  report.check("replay_opens", failures == 0,
               std::to_string(failures) + " refused opens/checks over " +
                   std::to_string(plan.objects) + " objects");
  replay_crypto(plan, report);
}

}  // namespace perfbench
