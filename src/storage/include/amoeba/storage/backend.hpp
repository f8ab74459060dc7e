// Pluggable storage volumes behind the durable object store.
//
// A Backend is one "disk" holding, per shard, an append-only journal and
// the most recent snapshot, plus a small named-metadata area (the reply-
// cache floors of rpc::Service live there).  Every journal write reaches
// a volume through its GroupCommitter (storage/group_commit.hpp), which
// hands each flush cycle to submit_append_group(); the one synchronous
// primitive underneath is append_journal_batch().  Two implementations:
//
//   * MemoryBackend -- the same layout in process memory.  The crash/
//     restart test harness runs on it: an append hook fires at every
//     journal barrier (after each append group), and capture() deep-
//     copies the whole volume under its locks -- exactly the disk image a
//     machine losing power at that instant would leave behind.  Recovery
//     from a captured image IS the simulated crash+restart.
//   * FileBackend -- one directory on the real filesystem holding ONE log
//     per volume (commit.log), plus shard-N.snap and meta-KEY.bin.  Each
//     append group lands in commit.log as one checksummed frame -- one
//     write(2), one fsync(2), however many shards it touches -- so a torn
//     tail drops the whole group and a multi-shard group is atomic on the
//     real disk.  Snapshots and metadata are installed via write-temp +
//     fsync + rename + directory fsync (std::ofstream::flush() only
//     reaches the page cache, not the platter).
//
// Concurrency: every method is thread-safe.  append_journal_batch()
// appends to several shards ATOMICALLY with respect to capture() and
// recovery: a two-shard mutation (a bank transfer's debit+credit) is
// either entirely on the image or not at all, so a crash cannot tear
// money in half.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "amoeba/common/serial.hpp"

namespace amoeba::storage {

/// One shard-addressed journal append, for the multi-shard atomic form.
struct ShardAppend {
  std::size_t shard = 0;
  Buffer bytes;
};

/// Completion of an async append group: invoked exactly once, with a null
/// exception_ptr on success or the failure that kept the group off the
/// disk.  May run on the submitting thread (sync adapter) or on a backend
/// reaper thread (io_uring) -- callers must not assume which.
using AppendCompletion = std::function<void(std::exception_ptr)>;

/// Counters an async backend exposes so callers can see the submission
/// pipeline (and tests can prove the flusher never blocks in write(2)).
struct AsyncIoStats {
  std::uint64_t sqe_submitted = 0;  // SQEs pushed to the ring (2 per group)
  std::uint64_t cqe_completed = 0;  // CQEs reaped off the ring
  std::uint64_t inflight = 0;       // groups submitted but not yet complete
  bool async = false;               // true only for a live io_uring backend
};

/// Per-thread blocking-syscall counters, bumped by every write(2)/writev(2)
/// and fsync(2)/fdatasync(2) the storage layer issues on the calling
/// thread.  Same spirit as PR 7's CountedMutex: the io_uring proof is a
/// runtime assertion that the mutator's and flusher's counters stay flat
/// across the steady-state mutate path, not a comment.
struct IoCounters {
  std::uint64_t writes = 0;  // blocking write/writev calls
  std::uint64_t fsyncs = 0;  // blocking fsync/fdatasync calls
};
[[nodiscard]] IoCounters& this_thread_io_counters();

class Backend {
 public:
  virtual ~Backend() = default;

  /// Fixed at volume creation; the object store adopting this backend must
  /// be sharded identically (object number -> shard mapping is layout).
  [[nodiscard]] virtual std::size_t shard_count() const = 0;

  /// Appends to several shards' journals as one atomic group with respect
  /// to capture()/recovery images (all appended or none on the image),
  /// durable on return.  The one synchronous journal primitive.
  virtual void append_journal_batch(std::vector<ShardAppend>&& appends) = 0;

  /// One record to one shard: forwards to append_journal_batch().
  virtual void append_journal(std::size_t shard,
                              std::span<const std::uint8_t> bytes);

  /// Submit/complete-shaped async append: appends the whole group with the
  /// same atomicity as append_journal_batch() and invokes `complete`
  /// exactly once -- with a null exception_ptr when every byte is durable,
  /// with the failure otherwise.  The base implementation is the
  /// synchronous adapter (append, then complete inline on the calling
  /// thread); UringFileBackend overrides it to submit to its ring and
  /// complete from the reaping side.  The group-commit flusher
  /// (storage/group_commit.hpp) is its only caller.  Completions of
  /// successive calls fire in submission order (the commit log is a
  /// sequential structure; recovery depends on it having no gaps).
  virtual void submit_append_group(std::vector<ShardAppend>&& appends,
                                   AppendCompletion complete);

  /// Submission-pipeline counters; all-zero/sync for blocking backends.
  [[nodiscard]] virtual AsyncIoStats async_io_stats() const { return {}; }

  /// Whole-journal read (recovery): the shard's records in append order.
  /// May still include records an installed snapshot subsumes (lsn <= its
  /// applied LSN: ones in flight when it was installed); replay skips
  /// those.
  [[nodiscard]] virtual Buffer read_journal(std::size_t shard) const = 0;

  /// Atomically replaces the shard's snapshot (log compaction) and
  /// truncates the shard's journal: read_journal() returns only what is
  /// appended after this call.  A replication resync relies on the
  /// truncation to reset a backup's shard.
  virtual void install_snapshot(std::size_t shard,
                                std::span<const std::uint8_t> bytes) = 0;

  /// Whole-snapshot read (recovery); empty when none was installed.
  [[nodiscard]] virtual Buffer read_snapshot(std::size_t shard) const = 0;

  /// Small named metadata blobs, replaced atomically per put.
  virtual void put_meta(std::string_view key,
                        std::span<const std::uint8_t> value) = 0;
  [[nodiscard]] virtual Buffer get_meta(std::string_view key) const = 0;
  /// Every metadata key currently on the volume (unspecified order).  The
  /// replication resync path walks this to ship a new backup the whole
  /// metadata area.
  [[nodiscard]] virtual std::vector<std::string> meta_keys() const = 0;

  /// True when the volume holds no journal bytes, snapshots, or metadata
  /// (a fresh disk: the store initializes instead of recovering).
  [[nodiscard]] virtual bool empty() const = 0;
};

/// In-memory volume with crash-capture hooks (the test harness backend).
class MemoryBackend final : public Backend {
 public:
  explicit MemoryBackend(std::size_t shards = 16);

  [[nodiscard]] std::size_t shard_count() const override { return shards_.size(); }
  void append_journal_batch(std::vector<ShardAppend>&& appends) override;
  [[nodiscard]] Buffer read_journal(std::size_t shard) const override;
  void install_snapshot(std::size_t shard,
                        std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] Buffer read_snapshot(std::size_t shard) const override;
  void put_meta(std::string_view key,
                std::span<const std::uint8_t> value) override;
  [[nodiscard]] Buffer get_meta(std::string_view key) const override;
  [[nodiscard]] std::vector<std::string> meta_keys() const override;
  [[nodiscard]] bool empty() const override;

  /// Installs the journal-barrier hook: invoked after every journal append
  /// group with the running append count, OUTSIDE the shard locks (so the
  /// hook may capture()).  The crash harness registers a hook that
  /// snapshots the volume at chosen barriers.
  void set_append_hook(std::function<void(std::uint64_t)> hook);

  /// Total journal appends so far (batch = one per entry).
  [[nodiscard]] std::uint64_t append_count() const {
    return appends_.load(std::memory_order_relaxed);
  }

  /// Deep copy of the volume as of now -- the disk image a crash at this
  /// instant would leave.  Takes every shard lock (ascending) plus the
  /// meta lock, so multi-shard append groups are never torn across it.
  [[nodiscard]] std::shared_ptr<MemoryBackend> capture() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    Buffer journal;
    Buffer snapshot;
  };

  void hook_after_append();

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex meta_mutex_;
  std::map<std::string, Buffer, std::less<>> meta_;
  std::atomic<std::uint64_t> appends_{0};
  std::atomic<bool> hook_set_{false};  // fast-path gate for hook_after_append
  mutable std::mutex hook_mutex_;
  std::function<void(std::uint64_t)> hook_;
};

/// Directory-on-disk volume: the durable deployment backend.  Not final:
/// UringFileBackend (storage/uring_backend.hpp) subclasses it, replacing
/// only the asynchronous commit-log append with ring submission -- every
/// recovery, snapshot, and metadata path is shared.
class FileBackend : public Backend {
 public:
  /// Creates the directory if needed; an existing volume must have been
  /// written with the same shard count.  Throws UsageError, naming the
  /// file, when the directory holds a non-empty shard-N.journal from the
  /// older per-shard journal format: this backend never reads those
  /// files, and opening the volume anyway would silently drop records
  /// that were acknowledged durable.  Reads commit.log once, splitting it
  /// by shard for recovery, and cuts off a torn tail.
  FileBackend(std::filesystem::path directory, std::size_t shards = 16);
  ~FileBackend() override;

  [[nodiscard]] std::size_t shard_count() const override {
    return snapshot_mutexes_.size();
  }
  /// The whole group goes down as ONE checksummed frame in commit.log --
  /// one write, one fsync, however many shards it spans.  A torn frame
  /// drops the whole group at recovery, which is what gives a multi-shard
  /// group real on-disk atomicity.
  void append_journal_batch(std::vector<ShardAppend>&& appends) override;
  [[nodiscard]] Buffer read_journal(std::size_t shard) const override;
  /// Truncates the shard's journal with a reset marker in commit.log (one
  /// small frame, one fsync), or by the GC rewrite once the log is large.
  void install_snapshot(std::size_t shard,
                        std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] Buffer read_snapshot(std::size_t shard) const override;
  void put_meta(std::string_view key,
                std::span<const std::uint8_t> value) override;
  [[nodiscard]] Buffer get_meta(std::string_view key) const override;
  [[nodiscard]] std::vector<std::string> meta_keys() const override;
  [[nodiscard]] bool empty() const override;

  [[nodiscard]] const std::filesystem::path& directory() const {
    return directory_;
  }

 protected:
  /// Encodes `appends` as one complete commit-log group frame
  /// (`length u32 | checksum u32 | body`) into `frame` (cleared first).
  /// Shared by the sync append above and the ring submission path.
  static void encode_group_frame(const std::vector<ShardAppend>& appends,
                                 Buffer& frame);

  /// Called with commit_mutex_ held before any read or write of
  /// commit.log that must not overlap in-flight I/O: recovery reads, GC,
  /// empty(), the synchronous frame append, and gc_commit_log_locked()'s
  /// swap of commit_fd_ to a new inode.  The base backend writes
  /// synchronously, so there is never in-flight I/O to wait out;
  /// UringFileBackend overrides this to drain its ring.  Must NOT be
  /// called from a completion/reaper context (commit_mutex_ ordering:
  /// reaper threads never take it).
  virtual void quiesce_commit_locked() const {}

  /// Commit-log state, all guarded by commit_mutex_.  Lock order: a shard
  /// mutex (when held at all) is taken BEFORE commit_mutex_.  Protected
  /// rather than private so UringFileBackend's submission path can append
  /// to the same log under the same lock.
  mutable std::mutex commit_mutex_;
  int commit_fd_ = -1;  // O_APPEND; one fsync per group frame
  std::uint64_t commit_log_bytes_ = 0;
  Buffer commit_frame_;  // reused staging buffer for group frames

  [[nodiscard]] std::filesystem::path commit_log_path() const;
  /// Every writer calls this, with commit_mutex_ held, for each group it
  /// puts on commit.log: it marks the shards as holding records (so a
  /// snapshot install knows to reset them) and retires the split of the
  /// log that read_journal serves from.
  void note_appended_locked(const std::vector<ShardAppend>& appends);

 private:
  [[nodiscard]] std::filesystem::path snapshot_path(std::size_t shard) const;
  [[nodiscard]] std::filesystem::path meta_path(std::string_view key) const;
  /// write-temp + fsync + rename + directory fsync (the full atomic
  /// replacement recipe -- a rename alone is not durable until the
  /// directory entry itself reaches the disk).
  void replace_file_durably(const std::filesystem::path& path,
                            std::span<const std::uint8_t> bytes,
                            const char* what);
  /// Writes one group frame to commit.log with one fsync, after draining
  /// an async subclass's in-flight frames.  Caller holds commit_mutex_.
  void write_frame_locked(const std::vector<ShardAppend>& appends);
  /// Rewrites commit.log dropping every record a shard snapshot already
  /// subsumes (lsn <= that shard's floor) and every record of
  /// `reset_shard`, whose snapshot is being installed.  Caller holds
  /// commit_mutex_.
  void gc_commit_log_locked(std::size_t reset_shard);
  /// Reads commit.log once into unread_journals_, one journal per shard;
  /// returns where its intact frames end.  Caller holds commit_mutex_.
  std::size_t split_commit_log_locked() const;

  std::filesystem::path directory_;
  int dir_fd_ = -1;  // fsync'd after every rename into the directory
  /// One per shard; serializes that shard's snapshot install and read.
  mutable std::vector<std::mutex> snapshot_mutexes_;
  mutable std::mutex meta_mutex_;
  std::uint64_t commit_gc_low_ = 0;  // log size after the last GC rewrite
  std::vector<std::uint64_t> commit_floor_;  // per-shard snapshot applied LSN
  /// Per shard: commit.log may hold records of it after its last reset
  /// (in flight included).  Guarded by commit_mutex_.
  std::vector<bool> commit_logged_;
  /// commit.log split by shard, each handed out once by read_journal
  /// until the next write retires them all.  Guarded by commit_mutex_.
  mutable std::vector<std::optional<Buffer>> unread_journals_;
};

}  // namespace amoeba::storage
