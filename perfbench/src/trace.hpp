// Measurement taken from outside the layers: a storage::Backend decorator
// that times every metadata replacement and append group, and a network
// tap that timestamps every request and reply frame.  Spans are kept in
// memory while tracing is on and joined after the window on the frame
// header's at-most-once (client, seq) identity, which replies echo.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "amoeba/net/network.hpp"
#include "amoeba/storage/backend.hpp"

namespace perfbench {

/// One timed call into the storage layer.
struct StorageSpan {
  enum Kind : std::uint8_t { meta, group };
  Kind kind = meta;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
};

/// Decorator over the real volume.  Counters are always kept; spans only
/// while tracing.  It must sit UNDER any ReplicatedBackend: the group
/// committer finds the replication hook by dynamic_cast on the backend it
/// is handed.
class TimedBackend final : public amoeba::storage::Backend {
 public:
  struct Counters {
    std::uint64_t meta_writes = 0;
    std::uint64_t meta_bytes = 0;
    std::uint64_t groups = 0;
    std::uint64_t group_bytes = 0;
    std::uint64_t group_records = 0;
    std::uint64_t direct_appends = 0;
  };

  explicit TimedBackend(std::shared_ptr<amoeba::storage::Backend> inner)
      : inner_(std::move(inner)) {}

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_release); }
  [[nodiscard]] Counters counters() const;
  /// Moves the recorded spans out (ordered by start time).
  [[nodiscard]] std::vector<StorageSpan> take_spans();

  [[nodiscard]] std::size_t shard_count() const override {
    return inner_->shard_count();
  }
  void append_journal(std::size_t shard,
                      std::span<const std::uint8_t> bytes) override;
  void append_journal_batch(
      std::vector<amoeba::storage::ShardAppend>&& appends) override;
  void submit_append_group(std::vector<amoeba::storage::ShardAppend>&& appends,
                           amoeba::storage::AppendCompletion complete) override;
  [[nodiscard]] amoeba::storage::AsyncIoStats async_io_stats() const override {
    return inner_->async_io_stats();
  }
  [[nodiscard]] amoeba::Buffer read_journal(std::size_t shard) const override {
    return inner_->read_journal(shard);
  }
  void install_snapshot(std::size_t shard,
                        std::span<const std::uint8_t> bytes) override {
    inner_->install_snapshot(shard, bytes);
  }
  [[nodiscard]] amoeba::Buffer read_snapshot(std::size_t shard) const override {
    return inner_->read_snapshot(shard);
  }
  void put_meta(std::string_view key,
                std::span<const std::uint8_t> value) override;
  [[nodiscard]] amoeba::Buffer get_meta(std::string_view key) const override {
    return inner_->get_meta(key);
  }
  [[nodiscard]] std::vector<std::string> meta_keys() const override {
    return inner_->meta_keys();
  }
  [[nodiscard]] bool empty() const override { return inner_->empty(); }

 private:
  void record(const StorageSpan& span);

  std::shared_ptr<amoeba::storage::Backend> inner_;
  std::atomic<bool> tracing_{false};
  std::atomic<std::uint64_t> meta_writes_{0};
  std::atomic<std::uint64_t> meta_bytes_{0};
  std::atomic<std::uint64_t> groups_{0};
  std::atomic<std::uint64_t> group_bytes_{0};
  std::atomic<std::uint64_t> group_records_{0};
  std::atomic<std::uint64_t> direct_appends_{0};
  std::mutex spans_mutex_;
  std::vector<StorageSpan> spans_;  // guarded by spans_mutex_
};

/// Request/reply frame timestamps of one transaction.
struct FrameTimes {
  std::int64_t request_ns = 0;  // first copy of the request on the tap
  std::int64_t reply_ns = 0;    // first copy of the reply on the tap
  std::uint64_t bytes = 0;      // encoded bytes of every copy seen
};

/// The (client, seq) identity of the last request the calling thread put
/// on the wire -- how a client span finds its frames.
struct CallId {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
};

/// Network tap recording data frames.  Frames whose source is one of the
/// registered client machines are requests, everything else replies.
/// Each thread appends to its own buffer while tracing is on.
class FrameTracer {
 public:
  explicit FrameTracer(amoeba::net::Network& net);
  ~FrameTracer();
  FrameTracer(const FrameTracer&) = delete;
  FrameTracer& operator=(const FrameTracer&) = delete;

  void add_client_machine(amoeba::MachineId id) { clients_.push_back(id); }
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_release); }

  /// The id of the last request the calling thread sent (tracing only).
  [[nodiscard]] static CallId last_call_on_this_thread();

  /// Joins every recorded frame by (client, seq).  Call after the traffic
  /// has stopped.
  [[nodiscard]] std::unordered_map<std::uint64_t, FrameTimes> join() const;

  [[nodiscard]] static std::uint64_t key(std::uint64_t client,
                                         std::uint64_t seq) {
    return client * 0x9E3779B97F4A7C15ull ^ seq;
  }

 private:
  struct Event {
    std::uint64_t client = 0;
    std::uint64_t seq = 0;
    std::int64_t t_ns = 0;
    std::uint32_t bytes = 0;
    bool request = false;
  };
  void on_frame(const amoeba::net::TapRecord& record);
  std::vector<Event>& local_buffer();

  std::vector<amoeba::MachineId> clients_;  // set before traffic starts
  std::atomic<bool> tracing_{false};
  const std::uint64_t generation_;
  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<std::vector<Event>>> buffers_;
  amoeba::net::TapHandle tap_;  // last: detached before the buffers die
};

/// Bytes of one data frame in the SocketNetwork encoding: frame kind and
/// machine ids (9), three ports (24), opcode/flags/status (6), capability
/// (16), params (32), client and seq (16), payload length (4), payload.
inline constexpr std::uint64_t kFrameHeaderBytes = 107;

/// Union of the spans' intervals, sorted and non-overlapping.
using Intervals = std::vector<std::pair<std::int64_t, std::int64_t>>;
[[nodiscard]] Intervals merge_spans(const std::vector<StorageSpan>& spans);

/// Nanoseconds of [start, end) covered by `merged`.
[[nodiscard]] std::int64_t covered_ns(const Intervals& merged,
                                      std::int64_t start, std::int64_t end);

}  // namespace perfbench
