#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "amoeba/net/network.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"

namespace perfbench {

std::uint64_t Window::ok_ops() const {
  std::uint64_t n = 0;
  for (const auto& h : latency) n += h.count();
  return n;
}

std::uint64_t Window::failed_ops() const {
  std::uint64_t n = 0;
  for (const auto f : failed) n += f;
  return n;
}

void Window::start_slices(std::int64_t start, double seconds) {
  const auto n = std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
  start_ns = start;
  slice_s = seconds / static_cast<double>(n);
  slices.assign(n, Slice{});
}

void Window::record(OpKind kind, std::int64_t end_ns, double us) {
  latency[kind].record_us(us);
  const double offset = static_cast<double>(end_ns - start_ns) / 1e9;
  if (offset < 0 || slices.empty()) return;
  const auto index = static_cast<std::size_t>(offset / slice_s);
  if (index >= slices.size()) return;
  Slice& slice = slices[index];
  ++slice.ops;
  slice.all.record_us(us);
  if (kind == kBalance) slice.balance.record_us(us);
}

double Window::ops_per_s() const {
  return elapsed_s > 0 ? static_cast<double>(ok_ops()) / elapsed_s : 0.0;
}

void Window::merge(Window&& other) {
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    latency[k].merge(other.latency[k]);
    failed[k] += other.failed[k];
  }
  session.merge(other.session);
  gen_late.merge(other.gen_late);
  if (slices.empty()) {
    slices = std::move(other.slices);
    start_ns = other.start_ns;
    slice_s = other.slice_s;
  } else {
    for (std::size_t i = 0; i < std::min(slices.size(), other.slices.size()); ++i) {
      slices[i].ops += other.slices[i].ops;
      slices[i].all.merge(other.slices[i].all);
      slices[i].balance.merge(other.slices[i].balance);
    }
  }
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
}

void report_end_to_end(Report& report, const Window& window, double setup_s,
                       double rss_mb) {
  Histogram all;
  for (const auto& h : window.latency) all.merge(h);
  const std::uint64_t n = all.count();
  const Histogram& balance = window.latency[kBalance];
  std::vector<double> slice_ops;
  std::vector<double> slice_p50;
  std::vector<double> slice_balance_p50;
  for (const auto& slice : window.slices) {
    slice_ops.push_back(static_cast<double>(slice.ops) / window.slice_s);
    if (slice.all.count() > 0) slice_p50.push_back(slice.all.percentile_us(0.50));
    if (slice.balance.count() > 0) {
      slice_balance_p50.push_back(slice.balance.percentile_us(0.50));
    }
  }
  report.metric("ops_per_s", median(slice_ops), "1/s", n);
  report.metric("op_p50_us", median(slice_p50), "us", n);
  report.metric("balance_p50_us", median(slice_balance_p50), "us", balance.count());
  // Whole-window figures: printed, not gated.
  report.metric("ops_per_s_window", window.ops_per_s(), "1/s", n);
  report.metric("op_p50_us_window", all.percentile_us(0.50), "us", n);
  report.metric("op_p99_us", all.percentile_us(0.99), "us", n);
  report.metric("balance_p99_us", balance.percentile_us(0.99), "us", balance.count());
  report.metric("peak_rss_mb", rss_mb, "MB", 1);
  report.metric("setup_s", setup_s, "s", 1);
  // Figures of ops that only some workloads issue: printed, not gated.
  const auto both = [&](const std::string& name, const Histogram& h) {
    if (h.count() == 0) return;
    report.metric(name + "_p50_us", h.percentile_us(0.50), "us", h.count());
    report.metric(name + "_p99_us", h.percentile_us(0.99), "us", h.count());
  };
  for (const OpKind kind : {kLookup, kCreate, kTransfer}) {
    both(kOpNames[kind], window.latency[kind]);
  }
  both("session", window.session);
  const std::uint64_t attempted = n + window.failed_ops();
  report.metric("error_rate",
                attempted > 0 ? static_cast<double>(window.failed_ops()) /
                                    static_cast<double>(attempted)
                              : 0.0,
                "ratio", attempted);
}

TraceSummary analyze_trace(
    const Window& window,
    const std::unordered_map<std::uint64_t, FrameTimes>& frames,
    const std::vector<StorageSpan>& storage) {
  TraceSummary summary;
  const Intervals merged = merge_spans(storage);
  std::int64_t residence_total = 0;
  std::int64_t covered_total = 0;
  for (const ClientSpan& span : window.spans) {
    const auto it = frames.find(FrameTracer::key(span.id.client, span.id.seq));
    if (it == frames.end() || it->second.request_ns == 0 ||
        it->second.reply_ns == 0) {
      continue;
    }
    const FrameTimes& t = it->second;
    const std::int64_t residence = t.reply_ns - t.request_ns;
    residence_total += residence;
    covered_total += covered_ns(merged, t.request_ns, t.reply_ns);
    summary.residence_us[span.kind].push_back(static_cast<double>(residence) / 1e3);
    summary.client_us[span.kind].push_back(
        static_cast<double>(span.end_ns - span.start_ns - residence) / 1e3);
    summary.frame_bytes += t.bytes;
    ++summary.joined;
  }
  summary.storage_share = residence_total > 0
                              ? static_cast<double>(covered_total) /
                                    static_cast<double>(residence_total)
                              : 0.0;
  return summary;
}

void report_trace(Report& report, const TraceSummary& summary) {
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    const std::string op = kOpNames[k];
    report.metric("rpc.residence_us." + op, median(summary.residence_us[k]), "us",
                  summary.residence_us[k].size());
    report.metric("rpc.client_us." + op, median(summary.client_us[k]), "us",
                  summary.client_us[k].size());
  }
  report.metric("storage.residence_share", summary.storage_share, "ratio",
                summary.joined);
}

void dump_spans(const std::filesystem::path& path, const Window& window,
                const std::unordered_map<std::uint64_t, FrameTimes>& frames,
                const std::vector<StorageSpan>& storage) {
  constexpr std::size_t kMaxCalls = 20'000;
  std::ofstream out(path, std::ios::trunc);
  if (!out) return;
  // The window's first kMaxCalls calls in time, and the storage spans
  // that overlap them.
  std::vector<ClientSpan> calls = window.spans;
  const auto cut = calls.begin() + static_cast<std::ptrdiff_t>(std::min(kMaxCalls, calls.size()));
  std::partial_sort(calls.begin(), cut, calls.end(),
                    [](const ClientSpan& a, const ClientSpan& b) { return a.start_ns < b.start_ns; });
  calls.erase(cut, calls.end());
  out << "layer,name,id,start_ns,end_ns,parent\n";
  std::int64_t last_end = 0;
  for (const ClientSpan& s : calls) {
    const std::string id = std::to_string(s.id.client) + ":" + std::to_string(s.id.seq);
    out << "client," << kOpNames[s.kind] << ',' << id << ',' << s.start_ns << ','
        << s.end_ns << ",\n";
    last_end = std::max(last_end, s.end_ns);
    const auto it = frames.find(FrameTracer::key(s.id.client, s.id.seq));
    if (it != frames.end() && it->second.request_ns != 0 && it->second.reply_ns != 0) {
      out << "rpc,residence," << id << ',' << it->second.request_ns << ','
          << it->second.reply_ns << ",client:" << id << '\n';
    }
  }
  const std::int64_t first_start = calls.empty() ? 0 : calls.front().start_ns;
  std::size_t n = 0;
  for (const StorageSpan& s : storage) {
    if (s.end_ns < first_start) continue;
    if (s.start_ns > last_end) break;
    out << "storage," << (s.kind == StorageSpan::meta ? "put_meta" : "append_group")
        << ',' << n++ << ',' << s.start_ns << ',' << s.end_ns << ",\n";
  }
}

void report_storage(Report& report, const TimedBackend::Counters& before,
                    const TimedBackend::Counters& after,
                    const std::vector<StorageSpan>& spans, std::uint64_t ops) {
  const double per = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  std::vector<double> meta_us;
  std::vector<double> group_us;
  for (const StorageSpan& s : spans) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    (s.kind == StorageSpan::meta ? meta_us : group_us).push_back(us);
  }
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  report.metric("storage.meta_writes_per_op",
                d(before.meta_writes, after.meta_writes) * per, "1/op", ops);
  report.metric("storage.meta_us_p50", percentile(meta_us, 0.50), "us", meta_us.size());
  report.metric("storage.meta_us_p99", percentile(meta_us, 0.99), "us", meta_us.size());
  report.metric("storage.meta_bytes_per_op",
                d(before.meta_bytes, after.meta_bytes) * per, "B/op", ops);
  report.metric("storage.groups_per_op", d(before.groups, after.groups) * per,
                "1/op", ops);
  report.metric("storage.group_us_p50", percentile(group_us, 0.50), "us", group_us.size());
  report.metric("storage.group_us_p99", percentile(group_us, 0.99), "us", group_us.size());
  report.metric("storage.group_bytes_per_op",
                d(before.group_bytes, after.group_bytes) * per, "B/op", ops);
  report.metric("storage.bytes_per_op",
                (d(before.meta_bytes, after.meta_bytes) +
                 d(before.group_bytes, after.group_bytes)) * per,
                "B/op", ops);
  report.metric("storage.direct_appends",
                d(before.direct_appends, after.direct_appends), "count", ops);
}

ClientCounters read_client_counters(
    const std::vector<std::unique_ptr<amoeba::rpc::Transport>>& transports,
    const amoeba::net::Network& net, std::uint64_t frames) {
  ClientCounters c;
  for (const auto& t : transports) {
    const auto st = t->stats();
    c.retransmits += st.retransmits;
    c.timeouts += st.timeouts;
    c.cache_hits += st.cache_hits;
    c.cache_misses += st.cache_misses;
  }
  const auto& ns = net.stats();
  c.frames = frames;
  c.locates = ns.locates.load();
  c.rejected = ns.rejected.load();
  c.dropped = ns.dropped.load();
  return c;
}

void report_client(Report& report, const ClientCounters& before,
                   const ClientCounters& after, const TraceSummary& summary,
                   const Window& plain, const Window& traced) {
  const std::uint64_t ops = traced.ok_ops() + traced.failed_ops();
  const double per = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  report.metric("rpc.retransmits_per_op", d(before.retransmits, after.retransmits) * per,
                "1/op", ops);
  report.metric("rpc.timeouts", d(before.timeouts, after.timeouts), "count", ops);
  const double hits = d(before.cache_hits, after.cache_hits);
  const double lookups = hits + d(before.cache_misses, after.cache_misses);
  report.metric("rpc.port_cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio",
                static_cast<std::uint64_t>(lookups));
  report.metric("net.frames_per_op", d(before.frames, after.frames) * per, "1/op", ops);
  report.metric("net.bytes_per_op",
                static_cast<double>(summary.frame_bytes) /
                    static_cast<double>(std::max<std::uint64_t>(summary.joined, 1)),
                "B/op", summary.joined);
  report.metric("net.locates_per_op", d(before.locates, after.locates) * per, "1/op", ops);
  report.metric("net.rejected", d(before.rejected, after.rejected), "count", ops);
  report.metric("net.dropped", d(before.dropped, after.dropped), "count", ops);
  report.metric("bench.trace_overhead_frac",
                plain.ops_per_s() > 0 ? 1.0 - traced.ops_per_s() / plain.ops_per_s() : 0.0,
                "ratio", ops);
}

ServiceCounters parse_std_info(const std::string& text) {
  ServiceCounters out;
  std::istringstream lines(text);
  std::string line;
  const auto field = [](const std::string& l, const std::string& key) {
    const auto at = l.find(key);
    return at == std::string::npos
               ? std::uint64_t{0}
               : std::stoull(l.substr(at + key.size()));
  };
  while (std::getline(lines, line)) {
    if (line.rfind("role=", 0) == 0) {
      out.gc_groups = field(line, " gc.groups=");
      out.shipped_lsn = field(line, " shipped=");
      out.lag_lsn = field(line, ".lag=");
    } else if (line.find(" calls=") != std::string::npos) {
      OpCounters& op = out.ops[line.substr(0, line.find(' '))];
      op.calls = field(line, " calls=");
      op.total_us = field(line, " total_us=");
      op.max_us = field(line, " max_us=");
    }
  }
  return out;
}

void report_handlers(Report& report, const ServiceCounters& before,
                     const ServiceCounters& after) {
  static constexpr std::array<const char*, kOpKinds> kServiceOps = {
      "dir.lookup", "bank.balance", "bank.create_account", "bank.transfer"};
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    OpCounters b;
    OpCounters a;
    if (const auto it = before.ops.find(kServiceOps[k]); it != before.ops.end()) b = it->second;
    if (const auto it = after.ops.find(kServiceOps[k]); it != after.ops.end()) a = it->second;
    const std::uint64_t calls = a.calls - b.calls;
    const std::string op = kOpNames[k];
    report.metric("rpc.handler_us." + op,
                  calls > 0 ? static_cast<double>(a.total_us - b.total_us) /
                                  static_cast<double>(calls)
                            : 0.0,
                  "us", calls);
    report.metric("rpc.handler_max_us." + op, static_cast<double>(a.max_us), "us",
                  a.calls);
  }
}

std::vector<amoeba::core::Capability> create_funded_accounts(
    amoeba::rpc::Transport& transport, const amoeba::core::Capability& master,
    const std::vector<std::int64_t>& amounts) {
  namespace bank_ops = amoeba::servers::bank_ops;
  using CreateEntry = amoeba::rpc::TypedBatch::Entry<
      std::remove_cvref_t<decltype(bank_ops::kCreateAccount)>>;
  using MintEntry = amoeba::rpc::TypedBatch::Entry<
      std::remove_cvref_t<decltype(bank_ops::kMint)>>;
  constexpr std::size_t kPerBatch = 256;
  std::vector<amoeba::core::Capability> accounts;
  accounts.reserve(amounts.size());
  for (std::size_t first = 0; first < amounts.size(); first += kPerBatch) {
    const std::size_t last = std::min(amounts.size(), first + kPerBatch);
    amoeba::rpc::TypedBatch create(transport, master.server_port);
    std::vector<CreateEntry> created;
    for (std::size_t i = first; i < last; ++i) {
      created.push_back(create.add(bank_ops::kCreateAccount));
    }
    const auto made = create.run();
    if (!made.ok()) throw std::runtime_error("setup: create_account batch failed");
    amoeba::rpc::TypedBatch mint(transport, master.server_port);
    std::vector<MintEntry> minted;
    for (std::size_t i = first; i < last; ++i) {
      const auto account = made.value().get(created[i - first]);
      if (!account.ok()) throw std::runtime_error("setup: create_account failed");
      accounts.push_back(account.value().capability);
      minted.push_back(mint.add(bank_ops::kMint, master,
                                {amoeba::servers::currency::kDollar, amounts[i],
                                 accounts.back()}));
    }
    const auto paid = mint.run();
    if (!paid.ok()) throw std::runtime_error("setup: mint batch failed");
    for (const auto& entry : minted) {
      if (!paid.value().get(entry).ok()) throw std::runtime_error("setup: mint failed");
    }
  }
  return accounts;
}

}  // namespace perfbench
