#include "amoeba/storage/group_commit.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "amoeba/common/error.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"

namespace amoeba::storage {
namespace {

/// Longest the flusher holds a claim to let concurrent mutators grow the
/// cycle; cut short the moment a thread blocks in wait_durable.
constexpr std::chrono::microseconds kLingerCeiling{200};
/// Submitted-but-uncompleted cycles an async backend may have before the
/// flusher stops claiming (a sync backend completes inline: never > 1).
constexpr std::size_t kMaxInflightCycles = 4;

[[nodiscard]] std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

GroupCommitter::GroupCommitter(std::shared_ptr<Backend> backend)
    : backend_(std::move(backend)) {
  if (backend_ == nullptr) {
    throw UsageError("GroupCommitter: null backend");
  }
  pending_.resize(backend_->shard_count());
  // A replicated volume binds itself to its committer: every flush cycle
  // then ships through the post-flush hook (the exact bytes that hit the
  // local disk, ack-mode wait included).  Wiring this here means a server
  // gains replication by being handed a ReplicatedBackend -- no server
  // code changes.
  if (auto* replicated = dynamic_cast<ReplicatedBackend*>(backend_.get())) {
    replicated->bind_committer(*this);
  }
  flusher_ = std::jthread(
      [this](const std::stop_token& stop) { flusher(stop); });
}

GroupCommitter::~GroupCommitter() {
  flusher_.request_stop();
  work_cv_.notify_all();
  // jthread joins; the flusher drains every pending enqueue AND waits out
  // every in-flight async completion first (completions touch this
  // object), so a server shutting down cleanly never strands
  // acknowledged-to-nobody bytes in the queue.
}

std::shared_ptr<GroupCommitter> GroupCommitter::create(
    const std::shared_ptr<Backend>& backend) {
  return backend == nullptr ? nullptr
                            : std::make_shared<GroupCommitter>(backend);
}

GroupCommitter::Ticket GroupCommitter::enqueue_group(
    std::vector<ShardAppend>&& appends) {
  bool wake;
  Ticket ticket;
  {
    // One mutex hold for the whole group: a flush-cycle boundary can never
    // split it, so the backend batch append (atomic w.r.t. capture())
    // receives the group intact.
    const std::lock_guard lock(mutex_);
    for (const ShardAppend& a : appends) {
      Buffer& pending = pending_.at(a.shard);
      if (pending.empty()) {
        dirty_shards_.push_back(a.shard);
      }
      pending.insert(pending.end(), a.bytes.begin(), a.bytes.end());
      ++pending_records_;
    }
    wake = flusher_waiting_;
    ticket = ++issued_;
  }
  if (wake) {
    work_cv_.notify_one();
  }
  return ticket;
}

GroupCommitter::Ticket GroupCommitter::enqueue_meta(std::string_view key,
                                                    Buffer value) {
  bool wake;
  Ticket ticket;
  {
    const std::lock_guard lock(mutex_);
    pending_meta_[std::string(key)] = std::move(value);
    wake = flusher_waiting_;
    ticket = ++issued_;
  }
  if (wake) {
    work_cv_.notify_one();
  }
  return ticket;
}

void GroupCommitter::wait_durable(Ticket ticket) {
  if (ticket == 0) {
    return;
  }
  std::unique_lock lock(mutex_);
  if (durable_ >= ticket) {
    return;  // already durable (even if a later cycle has since failed)
  }
  // Registering as a waiter collapses the adaptive linger: the flusher
  // lingers only while nobody is blocked, so wake it out of that wait.
  ++waiters_;
  work_cv_.notify_all();
  durable_cv_.wait(
      lock, [&] { return durable_ >= ticket || !failure_.empty(); });
  --waiters_;
  if (durable_ < ticket) {
    throw UsageError("GroupCommitter: flush failed, ticket not durable: " +
                     failure_);
  }
}

bool GroupCommitter::is_durable(Ticket ticket) const {
  if (ticket == 0) {
    return true;
  }
  const std::lock_guard lock(mutex_);
  return durable_ >= ticket;
}

void GroupCommitter::drain() {
  Ticket last;
  {
    const std::lock_guard lock(mutex_);
    last = issued_;
  }
  wait_durable(last);
}

GroupCommitter::Stats GroupCommitter::stats() const {
  Stats out;
  {
    const std::lock_guard lock(mutex_);
    out = stats_;
    out.inflight_cycles = inflight_.size();
  }
  // The ring counters live on the backend (zero/sync for blocking ones);
  // folding them in here gives durability_stats()/std_info one surface.
  const AsyncIoStats io = backend_->async_io_stats();
  out.sqe_submitted = io.sqe_submitted;
  out.cqe_completed = io.cqe_completed;
  return out;
}

void GroupCommitter::set_post_flush_hook(PostFlushHook hook) {
  const std::lock_guard lock(mutex_);
  if (post_flush_hook_ != nullptr && hook != nullptr) {
    throw UsageError("GroupCommitter: post-flush hook already installed");
  }
  post_flush_hook_ = std::move(hook);
}

void GroupCommitter::on_cycle_complete(const std::shared_ptr<Cycle>& cycle,
                                       std::exception_ptr error) {
  std::unique_lock lock(mutex_);
  if (cycle->done) {
    return;  // defensive: a backend must complete exactly once
  }
  cycle->done = true;
  cycle->error = std::move(error);
  drain_completions_locked(lock);
}

void GroupCommitter::drain_completions_locked(
    std::unique_lock<std::mutex>& lock) {
  if (draining_) {
    return;  // the thread inside the drain will pick this cycle up too
  }
  draining_ = true;
  while (!inflight_.empty() && inflight_.front()->done) {
    const std::shared_ptr<Cycle> cycle = inflight_.front();
    if (!failure_.empty()) {
      // Already latched: the cycle's outcome no longer matters, nothing
      // past the failure is ever reported durable.
      inflight_.pop_front();
      inflight_cv_.notify_all();
      continue;
    }
    if (cycle->error != nullptr) {
      failure_ = describe(cycle->error);
      inflight_.pop_front();
      durable_cv_.notify_all();
      inflight_cv_.notify_all();
      work_cv_.notify_all();  // the flusher stops claiming on failure
      continue;
    }
    const PostFlushHook hook = post_flush_hook_;
    if (hook != nullptr) {
      // After the local write, before the waiters release: the hook
      // (replication shipping) sees exactly what hit the disk, and a
      // released waiter knows the cycle was already offered to -- and,
      // per the ack mode, acknowledged by -- the backups.  Unlocked, and
      // strictly one cycle at a time in LSN order: `draining_` keeps a
      // concurrent completer out while the mutex is down.
      lock.unlock();
      std::exception_ptr hook_error;
      try {
        hook(FlushCycle{cycle->covered, cycle->bytes, &cycle->metas,
                        &cycle->appends});
      } catch (...) {
        hook_error = std::current_exception();
      }
      lock.lock();
      if (hook_error != nullptr) {
        // A hook failure (replication fencing) latches exactly like a
        // backend write failure: durability -- which now includes the
        // hook's ack contract -- is never reported optimistically.
        failure_ = describe(hook_error);
        inflight_.pop_front();
        durable_cv_.notify_all();
        inflight_cv_.notify_all();
        work_cv_.notify_all();
        continue;
      }
    }
    durable_ = std::max(durable_, cycle->covered);
    ++stats_.groups;
    stats_.records += cycle->records;
    stats_.meta_writes += cycle->metas.size();
    stats_.max_group = std::max(stats_.max_group, cycle->records);
    stats_.flush_cycle_bytes += cycle->bytes;
    inflight_.pop_front();
    durable_cv_.notify_all();
    inflight_cv_.notify_all();
  }
  draining_ = false;
}

void GroupCommitter::flusher(const std::stop_token& stop) {
  const IoCounters& io = this_thread_io_counters();
  std::unique_lock lock(mutex_);
  for (;;) {
    flusher_waiting_ = true;
    work_cv_.wait(lock, [&] {
      return stop.stop_requested() || issued_ > taken_ || !failure_.empty();
    });
    flusher_waiting_ = false;
    if (!failure_.empty() || issued_ == taken_) {
      break;  // latched, or stopped with an empty queue
    }
    if (!stop.stop_requested()) {
      const auto start = std::chrono::steady_clock::now();
      // Grow the cycle while nobody is blocked on it; a waiter's arrival
      // (wait_durable notifies) collapses the linger at once.
      work_cv_.wait_until(lock, start + kLingerCeiling, [&] {
        return waiters_ > 0 || stop.stop_requested() || !failure_.empty();
      });
      stats_.linger_us_current = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    } else {
      stats_.linger_us_current = 0;
    }
    // Backpressure: with an async backend the submit returns immediately,
    // so bound how many cycles may be in flight -- the queue keeps
    // growing while we wait here, which is the "widen under backlog" half
    // of the pacing (the ring amortizes, the queue batches).
    inflight_cv_.wait(lock, [&] {
      return inflight_.size() < kMaxInflightCycles ||
             !failure_.empty() || stop.stop_requested();
    });
    if (!failure_.empty()) {
      break;
    }
    // Claim everything queued so far as one cycle; mutators keep enqueuing
    // the moment the lock drops (that overlap is the whole amortization).
    auto cycle = std::make_shared<Cycle>();
    cycle->covered = issued_;
    taken_ = issued_;
    cycle->appends.reserve(dirty_shards_.size());
    for (const std::size_t s : dirty_shards_) {
      cycle->appends.push_back({s, std::exchange(pending_[s], Buffer{})});
    }
    dirty_shards_.clear();
    cycle->records = std::exchange(pending_records_, 0);
    cycle->metas = std::exchange(pending_meta_, {});
    for (const ShardAppend& a : cycle->appends) {
      cycle->bytes += a.bytes.size();
    }
    const bool has_hook = post_flush_hook_ != nullptr;
    inflight_.push_back(cycle);
    lock.unlock();

    std::exception_ptr meta_error;
    try {
      // Metadata first: within a cycle the reply-cache floor image must
      // hit the volume before the journal effects it gates (§8.4's
      // never-twice ordering; across cycles the rpc layer waits for the
      // floor ticket before journaling, so floors never trail effects).
      for (const auto& [key, value] : cycle->metas) {
        backend_->put_meta(key, value);
      }
    } catch (...) {
      meta_error = std::current_exception();
    }
    if (meta_error != nullptr || cycle->appends.empty()) {
      // Meta-only cycles settle inline; the ordered drain still holds
      // them behind any earlier cycle whose CQE is outstanding.
      on_cycle_complete(cycle, meta_error);
    } else {
      // With a hook installed the group must survive the write (the hook
      // ships these exact bytes), so the backend gets its own copy;
      // without one, ownership moves as before.
      std::vector<ShardAppend> to_disk =
          has_hook ? cycle->appends : std::move(cycle->appends);
      try {
        backend_->submit_append_group(
            std::move(to_disk), [this, cycle](std::exception_ptr error) {
              on_cycle_complete(cycle, std::move(error));
            });
      } catch (...) {
        // Backends are expected to report through the completion, but a
        // synchronous throw (a decorator that validates, a test double)
        // must latch identically; on_cycle_complete drops the second
        // settle if the backend managed both.
        on_cycle_complete(cycle, std::current_exception());
      }
    }

    lock.lock();
    // The zero-blocking-syscall proof: under an io_uring backend this
    // stays at whatever the metadata writes cost (zero on the pure-mutate
    // path) because the ring, not this thread, runs the write+fdatasync.
    stats_.flusher_io_syscalls = io.writes + io.fsyncs;
  }
  // Shutdown/failure path: async completions still in flight touch this
  // object (mutex_, the cycle deque, the cvs) -- wait them out before the
  // destructor tears those members down.  Every submitted chain completes
  // (the uring reaper errors them at worst), so this terminates.
  inflight_cv_.wait(lock, [&] { return inflight_.empty(); });
}

}  // namespace amoeba::storage
