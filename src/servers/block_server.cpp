#include "amoeba/servers/block_server.hpp"

#include <utility>

#include "amoeba/servers/common.hpp"

namespace amoeba::servers {

core::Durability<std::uint32_t> BlockServer::durability(
    std::shared_ptr<storage::GroupCommitter> committer) {
  core::Durability<std::uint32_t> d;
  d.committer = std::move(committer);
  d.encode = [this](Writer& w, const std::uint32_t& index) {
    w.u32(index);
    const std::lock_guard lock(mutex_);
    w.u8(disk_.written(index) ? 1 : 0);
    auto content = disk_.read(index);
    w.bytes(content.ok() ? content.value() : Buffer{});
  };
  d.decode = [this](Reader& r, std::uint32_t& index) {
    index = r.u32();
    const bool was_written = r.u8() != 0;
    const Buffer content = r.bytes();
    if (!r.ok()) {
      return false;
    }
    const std::lock_guard lock(mutex_);
    return disk_.restore(index, content, was_written).ok();
  };
  d.apply_delta = [this](Reader& r, std::uint32_t& index) {
    // One do_write patch: the block content.  The target disk block is
    // the live payload itself; restore is idempotent, so replayed
    // prefixes converge.
    const Buffer content = r.bytes();
    if (!r.ok()) {
      return false;
    }
    const std::lock_guard lock(mutex_);
    return disk_.restore(index, content, /*written=*/true).ok();
  };
  d.dispose = [this](std::uint32_t& index) {
    // Replay overwrote or destroyed a recovered block object: return its
    // disk block, or destroy-replay would leak it forever (the matching
    // decode re-claims the block when the object survives).
    const std::lock_guard lock(mutex_);
    (void)disk_.free_block(index);
  };
  return d;
}

BlockServer::BlockServer(net::Machine& machine, Port get_port,
                         std::shared_ptr<const core::ProtectionScheme> scheme,
                         std::uint64_t seed, Geometry geometry,
                         std::shared_ptr<storage::Backend> backend)
    : rpc::Service(machine, get_port, "block"),
      geometry_(geometry),
      disk_(geometry.block_count, geometry.block_size, geometry.write_once),
      store_(std::move(scheme),
             machine.fbox().listen_port(get_port), seed,
             Store::kDefaultShards,
             durability(storage::GroupCommitter::create(backend))) {
  attach_durability(store_.committer());
  // std.destroy must free the disk block too, not just the slot.
  rpc::register_std_ops(
      *this, store_,
      {.destroy = [this](Store::Opened&& block) {
         return do_free(std::move(block));
       }});
  on(block_ops::kAllocate,
     [this](const auto&) { return do_allocate(); });
  // kRead dominates block traffic; its validate runs through open()'s
  // lock-free prefix, so repeat capabilities reach the shard mutex
  // pre-proven (no crypto, no cache write).
  on(block_ops::kRead, store_,
     [this](const auto&, auto& block) { return do_read(block); });
  on(block_ops::kWrite, store_, [this](const auto& call, auto& block) {
    return do_write(call.body, block);
  });
  on(block_ops::kFree, store_, [this](const auto&, auto& block) {
    return do_free(std::move(block));
  });
  on(block_ops::kInfo, [this](const auto&) { return do_info(); });
}

SimDisk::Stats BlockServer::disk_stats() const {
  const std::lock_guard lock(mutex_);
  return disk_.stats();
}

Result<rpc::CapabilityReply> BlockServer::do_allocate() {
  Result<std::uint32_t> block = [&] {
    const std::lock_guard lock(mutex_);
    return disk_.allocate();
  }();
  if (!block.ok()) {
    return block.error();
  }
  return rpc::CapabilityReply{store_.create(block.value())};
}

Result<rpc::BytesReply> BlockServer::do_read(Store::Opened& block) {
  auto data = [&] {
    const std::lock_guard lock(mutex_);
    return disk_.read(*block.value);
  }();
  if (!data.ok()) {
    return data.error();
  }
  return rpc::BytesReply{std::move(data.value())};
}

Result<void> BlockServer::do_write(const rpc::BytesRequest& req,
                                   Store::Opened& block) {
  const auto written = [&] {
    const std::lock_guard lock(mutex_);
    return disk_.write(*block.value, req.bytes);
  }();
  if (written.ok()) {
    // Journal just the new content as a delta patch (apply_delta restores
    // it into the block named by the payload) -- the full image would
    // re-read and re-journal the whole block for every write.
    Writer patch;
    patch.bytes(req.bytes);
    block.mark_dirty_delta(patch.take());
  }
  return written;
}

Result<void> BlockServer::do_free(Store::Opened&& block) {
  const std::uint32_t index = *block.value;
  const auto destroyed = store_.destroy(std::move(block));
  if (!destroyed.ok()) {
    return destroyed.error();
  }
  const std::lock_guard lock(mutex_);
  return disk_.free_block(index);
}

Result<block_ops::InfoReply> BlockServer::do_info() const {
  const std::lock_guard lock(mutex_);
  return block_ops::InfoReply{disk_.block_count(), disk_.block_size(),
                              disk_.free_count()};
}

// ------------------------------------------------------------- BlockClient

Result<core::Capability> BlockClient::allocate() {
  auto reply = rpc::call(*transport_, server_port_, block_ops::kAllocate);
  if (!reply.ok()) {
    return reply.error();
  }
  return reply.value().capability;
}

Result<Buffer> BlockClient::read(const core::Capability& block) {
  auto reply = rpc::call(*transport_, server_port_, block_ops::kRead, block);
  if (!reply.ok()) {
    return reply.error();
  }
  return std::move(reply.value().bytes);
}

Result<void> BlockClient::write(const core::Capability& block,
                                std::span<const std::uint8_t> data) {
  return rpc::call(*transport_, server_port_, block_ops::kWrite, block,
                   {Buffer(data.begin(), data.end())});
}

Result<void> BlockClient::free_block(const core::Capability& block) {
  return rpc::call(*transport_, server_port_, block_ops::kFree, block);
}

Result<BlockClient::Info> BlockClient::info() {
  auto reply = rpc::call(*transport_, server_port_, block_ops::kInfo);
  if (!reply.ok()) {
    return reply.error();
  }
  return Info{reply.value().block_count, reply.value().block_size,
              reply.value().free_blocks};
}

}  // namespace amoeba::servers
