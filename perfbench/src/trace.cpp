#include "trace.hpp"

#include <algorithm>

#include "common.hpp"

namespace perfbench {

TimedBackend::Counters TimedBackend::counters() const {
  Counters c;
  c.meta_writes = meta_writes_.load(std::memory_order_relaxed);
  c.meta_bytes = meta_bytes_.load(std::memory_order_relaxed);
  c.groups = groups_.load(std::memory_order_relaxed);
  c.group_bytes = group_bytes_.load(std::memory_order_relaxed);
  c.group_records = group_records_.load(std::memory_order_relaxed);
  c.direct_appends = direct_appends_.load(std::memory_order_relaxed);
  return c;
}

std::vector<StorageSpan> TimedBackend::take_spans() {
  std::vector<StorageSpan> out;
  {
    const std::lock_guard lock(spans_mutex_);
    out.swap(spans_);
  }
  std::sort(out.begin(), out.end(),
            [](const StorageSpan& a, const StorageSpan& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

void TimedBackend::record(const StorageSpan& span) {
  if (!tracing_.load(std::memory_order_acquire)) return;
  const std::lock_guard lock(spans_mutex_);
  spans_.push_back(span);
}

void TimedBackend::append_journal(std::size_t shard,
                                  std::span<const std::uint8_t> bytes) {
  direct_appends_.fetch_add(1, std::memory_order_relaxed);
  inner_->append_journal(shard, bytes);
}

void TimedBackend::append_journal_batch(
    std::vector<amoeba::storage::ShardAppend>&& appends) {
  direct_appends_.fetch_add(1, std::memory_order_relaxed);
  inner_->append_journal_batch(std::move(appends));
}

void TimedBackend::submit_append_group(
    std::vector<amoeba::storage::ShardAppend>&& appends,
    amoeba::storage::AppendCompletion complete) {
  StorageSpan span;
  span.kind = StorageSpan::group;
  span.records = appends.size();
  for (const auto& append : appends) span.bytes += append.bytes.size();
  span.start_ns = now_ns();
  inner_->submit_append_group(
      std::move(appends),
      [this, span, complete = std::move(complete)](std::exception_ptr error) mutable {
        span.end_ns = now_ns();
        groups_.fetch_add(1, std::memory_order_relaxed);
        group_bytes_.fetch_add(span.bytes, std::memory_order_relaxed);
        group_records_.fetch_add(span.records, std::memory_order_relaxed);
        record(span);
        complete(std::move(error));
      });
}

void TimedBackend::put_meta(std::string_view key,
                            std::span<const std::uint8_t> value) {
  StorageSpan span;
  span.kind = StorageSpan::meta;
  span.bytes = value.size();
  span.records = 1;
  span.start_ns = now_ns();
  inner_->put_meta(key, value);
  span.end_ns = now_ns();
  meta_writes_.fetch_add(1, std::memory_order_relaxed);
  meta_bytes_.fetch_add(span.bytes, std::memory_order_relaxed);
  record(span);
}

namespace {

// Identifies the tracer a thread's cached buffer belongs to, so a thread
// outliving one tracer never writes into the next one's storage.
std::atomic<std::uint64_t> g_tracer_generation{0};

struct ThreadState {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
  CallId last_call;
};
thread_local ThreadState t_state;

}  // namespace

FrameTracer::FrameTracer(amoeba::net::Network& net)
    : generation_(g_tracer_generation.fetch_add(1) + 1),
      tap_(net.attach_tap(
          [this](const amoeba::net::TapRecord& r) { on_frame(r); })) {}

FrameTracer::~FrameTracer() = default;

CallId FrameTracer::last_call_on_this_thread() { return t_state.last_call; }

std::vector<FrameTracer::Event>& FrameTracer::local_buffer() {
  if (t_state.generation != generation_) {
    const std::lock_guard lock(buffers_mutex_);
    buffers_.push_back(std::make_unique<std::vector<Event>>());
    buffers_.back()->reserve(1 << 16);
    t_state.generation = generation_;
    t_state.buffer = buffers_.back().get();
  }
  return *static_cast<std::vector<Event>*>(t_state.buffer);
}

void FrameTracer::on_frame(const amoeba::net::TapRecord& record) {
  if (record.kind != amoeba::net::FrameKind::data ||
      !tracing_.load(std::memory_order_acquire)) {
    return;
  }
  const auto& header = record.message.header;
  if (header.client == 0) return;  // not an at-most-once transaction
  Event event;
  event.client = header.client;
  event.seq = header.seq;
  event.t_ns = now_ns();
  event.bytes = static_cast<std::uint32_t>(kFrameHeaderBytes +
                                           record.message.data.size());
  event.request = std::find(clients_.begin(), clients_.end(), record.src) !=
                  clients_.end();
  if (event.request) t_state.last_call = {header.client, header.seq};
  local_buffer().push_back(event);
}

std::unordered_map<std::uint64_t, FrameTimes> FrameTracer::join() const {
  std::unordered_map<std::uint64_t, FrameTimes> out;
  const std::lock_guard lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    for (const Event& e : *buffer) {
      FrameTimes& t = out[key(e.client, e.seq)];
      t.bytes += e.bytes;
      std::int64_t& slot = e.request ? t.request_ns : t.reply_ns;
      if (slot == 0 || e.t_ns < slot) slot = e.t_ns;
    }
  }
  return out;
}

Intervals merge_spans(const std::vector<StorageSpan>& spans) {
  Intervals merged;
  for (const StorageSpan& s : spans) {  // sorted by start
    if (!merged.empty() && s.start_ns <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, s.end_ns);
    } else {
      merged.emplace_back(s.start_ns, s.end_ns);
    }
  }
  return merged;
}

std::int64_t covered_ns(const Intervals& merged, std::int64_t start,
                        std::int64_t end) {
  // First interval that may end after `start`.
  auto it = std::lower_bound(
      merged.begin(), merged.end(), start,
      [](const auto& interval, std::int64_t t) { return interval.second <= t; });
  std::int64_t covered = 0;
  for (; it != merged.end() && it->first < end; ++it) {
    covered += std::min(end, it->second) - std::max(start, it->first);
  }
  return covered;
}

}  // namespace perfbench
