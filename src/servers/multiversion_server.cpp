#include "amoeba/servers/multiversion_server.hpp"

namespace amoeba::servers {

core::Durability<MultiVersionServer::Payload> MultiVersionServer::durability(
    std::shared_ptr<storage::GroupCommitter> committer) {
  core::Durability<Payload> d;
  d.committer = std::move(committer);
  const auto encode_tree = [this](Writer& w, std::uint32_t root) {
    // Caller (an accessor flush or snapshot) holds the shard lock;
    // pages_mutex_ nests inside it exactly as in the handlers.
    const auto pages = [&] {
      const std::lock_guard pages_lock(pages_mutex_);
      return pages_.pages_of(root);
    }();
    w.u32(static_cast<std::uint32_t>(pages.size()));
    for (const auto& [page_no, data] : pages) {
      w.u32(page_no);
      w.bytes(data);
    }
  };
  const auto decode_tree = [this](Reader& r, std::uint32_t& root) {
    const std::uint32_t count = r.u32();
    std::vector<std::pair<std::uint32_t, Buffer>> pages;
    pages.reserve(count);
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
      const std::uint32_t page_no = r.u32();
      pages.emplace_back(page_no, r.bytes());
    }
    if (!r.ok()) {
      return false;
    }
    const std::lock_guard pages_lock(pages_mutex_);
    root = pages_.rebuild(pages);
    return true;
  };
  d.encode = [encode_tree](Writer& w, const Payload& payload) {
    if (const auto* file = std::get_if<FileObj>(&payload)) {
      w.u8(1);
      w.u32(static_cast<std::uint32_t>(file->version_roots.size()));
      for (const std::uint32_t root : file->version_roots) {
        encode_tree(w, root);
      }
    } else {
      const auto& draft = std::get<DraftObj>(payload);
      w.u8(2);
      w.raw(core::pack(draft.file_cap));
      w.u64(draft.base_versions);
      encode_tree(w, draft.root);
    }
  };
  d.decode = [decode_tree](Reader& r, Payload& payload) {
    const std::uint8_t tag = r.u8();
    if (tag == 1) {
      FileObj file;
      const std::uint32_t versions = r.u32();
      file.version_roots.reserve(versions);
      for (std::uint32_t v = 0; v < versions && r.ok(); ++v) {
        std::uint32_t root = PageStore::kEmptyRoot;
        if (!decode_tree(r, root)) {
          return false;
        }
        file.version_roots.push_back(root);
      }
      payload = std::move(file);
      return r.ok();
    }
    if (tag == 2) {
      DraftObj draft;
      core::CapabilityBytes cap{};
      r.raw(cap);
      draft.file_cap = core::unpack(cap);
      draft.base_versions = r.u64();
      if (!decode_tree(r, draft.root)) {
        return false;
      }
      payload = std::move(draft);
      return r.ok();
    }
    return false;
  };
  d.apply_delta = [this](Reader& r, Payload& payload) {
    // One do_write_page patch: (page, content).  Only drafts journal
    // deltas (committed versions are immutable), so a delta aimed at a
    // file payload is corrupt.  Replay is idempotent: rewriting a page
    // with the same content converges to the same tree.
    auto* draft = std::get_if<DraftObj>(&payload);
    const std::uint32_t page = r.u32();
    const Buffer bytes = r.bytes();
    if (!r.ok() || draft == nullptr) {
      return false;
    }
    const std::lock_guard pages_lock(pages_mutex_);
    auto new_root = pages_.write(draft->root, page, bytes);
    if (!new_root.ok()) {
      return false;
    }
    pages_.release(draft->root);
    draft->root = new_root.value();
    return true;
  };
  d.dispose = [this](Payload& payload) {
    // Recovery replay overwrote a decoded payload: release the trees it
    // built so replayed prefixes don't leak page references.
    const std::lock_guard pages_lock(pages_mutex_);
    if (const auto* file = std::get_if<FileObj>(&payload)) {
      for (const std::uint32_t root : file->version_roots) {
        pages_.release(root);
      }
    } else if (const auto* draft = std::get_if<DraftObj>(&payload)) {
      pages_.release(draft->root);
    }
  };
  return d;
}

MultiVersionServer::MultiVersionServer(
    net::Machine& machine, Port get_port,
    std::shared_ptr<const core::ProtectionScheme> scheme, std::uint64_t seed,
    std::uint32_t page_size,
    std::shared_ptr<storage::Backend> backend)
    : rpc::Service(machine, get_port, "multiversion"),
      pages_(page_size),
      store_(std::move(scheme), machine.fbox().listen_port(get_port), seed,
             Store::kDefaultShards,
             durability(storage::GroupCommitter::create(backend))) {
  attach_durability(store_.committer());
  // std.destroy must release the page-tree references a plain slot
  // destroy would leak.
  rpc::register_std_ops(
      *this, store_,
      {.destroy = [this](Store::Opened&& opened) {
         return do_destroy_any(std::move(opened));
       }});
  on(mv_ops::kCreateFile, [this](const auto&) -> Result<rpc::CapabilityReply> {
    FileObj file;
    file.version_roots.push_back(PageStore::kEmptyRoot);  // empty v0
    return rpc::CapabilityReply{store_.create(Payload{std::move(file)})};
  });
  on(mv_ops::kNewVersion, store_, [this](const auto& call, auto& opened) {
    return do_new_version(call.capability, opened);
  });
  // kReadPage is the multiversion hot path (a reader walks every page of
  // a version with one capability): its repeat validates are lock-free.
  on(mv_ops::kReadPage, store_, [this](const auto& call, auto& opened) {
    return do_read_page(call.body, opened);
  });
  on(mv_ops::kWritePage, store_, [this](const auto& call, auto& opened) {
    return do_write_page(call.body, opened);
  });
  on(mv_ops::kCommit, store_,
     [this](const auto& call) { return do_commit(call.capability); });
  on(mv_ops::kAbort, store_, [this](const auto&, auto& opened) {
    return do_abort(std::move(opened));
  });
  on(mv_ops::kHistory, store_,
     [](const auto&, auto& opened) -> Result<mv_ops::HistoryReply> {
       const auto* file = std::get_if<FileObj>(opened.value);
       if (file == nullptr) {
         return ErrorCode::invalid_argument;
       }
       return mv_ops::HistoryReply{file->version_roots.size()};
     });
  on(mv_ops::kDestroyFile, store_, [this](const auto&, auto& opened) {
    return do_destroy_file(std::move(opened));
  });
}

PageStore::Stats MultiVersionServer::page_stats() const {
  const std::lock_guard lock(pages_mutex_);
  return pages_.stats();
}

Result<rpc::CapabilityReply> MultiVersionServer::do_new_version(
    const core::Capability& file_cap, Store::Opened& opened) {
  DraftObj draft;
  {
    // Take the accessor over: the file's shard lock must be released
    // before the draft slot is allocated (create picks its own shard;
    // holding the first lock would deadlock when both land on the same
    // shard).  The draft's retained root keeps the snapshot alive
    // whatever happens to the file meanwhile; a stale base_versions
    // simply loses the optimistic race at commit.
    Store::Opened file_access = std::move(opened);
    auto* file = std::get_if<FileObj>(file_access.value);
    if (file == nullptr) {
      return ErrorCode::invalid_argument;
    }
    draft.file_cap = file_cap;
    draft.base_versions = file->version_roots.size();
    draft.root = file->version_roots.back();
    const std::lock_guard pages_lock(pages_mutex_);
    pages_.retain(draft.root);  // the draft holds its own snapshot ref
  }
  return rpc::CapabilityReply{store_.create(Payload{std::move(draft)})};
}

Result<rpc::BytesReply> MultiVersionServer::do_read_page(
    const mv_ops::ReadPageRequest& req, Store::Opened& opened) {
  std::uint32_t root;
  if (const auto* draft = std::get_if<DraftObj>(opened.value)) {
    root = draft->root;
  } else {
    const auto& file = std::get<FileObj>(*opened.value);
    if (req.version == MultiVersionClient::kHead) {
      root = file.version_roots.back();
    } else if (req.version < file.version_roots.size()) {
      root = file.version_roots[req.version];
    } else {
      return ErrorCode::not_found;
    }
  }
  auto data = [&] {
    const std::lock_guard pages_lock(pages_mutex_);
    return pages_.read(root, req.page);
  }();
  if (!data.ok()) {
    return data.error();
  }
  return rpc::BytesReply{std::move(data.value())};
}

Result<void> MultiVersionServer::do_write_page(
    const mv_ops::WritePageRequest& req, Store::Opened& opened) {
  auto* draft = std::get_if<DraftObj>(opened.value);
  if (draft == nullptr) {
    // Writing a file capability directly: committed versions are
    // immutable; only drafts accept writes.
    return ErrorCode::immutable;
  }
  {
    const std::lock_guard pages_lock(pages_mutex_);
    auto new_root = pages_.write(draft->root, req.page, req.bytes);
    if (!new_root.ok()) {
      return new_root.error();
    }
    pages_.release(draft->root);
    draft->root = new_root.value();
  }
  // The draft's working tree moved: journal just the one-page patch (the
  // apply_delta codec replays it) instead of the whole draft image --
  // before delta records, every page write re-journaled the entire file
  // content.
  Writer patch;
  patch.u32(req.page);
  patch.bytes(req.bytes);
  opened.mark_dirty_delta(patch.take());
  return {};
}

Result<mv_ops::CommitReply> MultiVersionServer::do_commit(
    const core::Capability& draft_cap) {
  // First pass: learn which file capability the draft forked from (the
  // draft payload is the only place that records it).  The dispatcher
  // already checked the write right; this open re-validates through the
  // shard's capability cache.
  core::Capability file_cap;
  {
    auto opened = store_.open(draft_cap, mv_ops::kCommit.required);
    if (!opened.ok()) {
      return opened.error();
    }
    const auto* draft = std::get_if<DraftObj>(opened.value().value);
    if (draft == nullptr) {
      return ErrorCode::invalid_argument;
    }
    file_cap = draft->file_cap;
  }
  // Second pass: revalidate the draft and the stored file capability
  // under both shard locks; the commit decision and the history push are
  // atomic from here.  Validating the file (not merely peeking its slot)
  // is what stops a stale draft from committing into an unrelated file
  // that reused the number, and makes file revocation cut off drafts.
  // (A concurrent commit of the same draft capability loses the race at
  // this revalidation: the winner destroys the draft slot first.)
  auto pinned = store_.open2(draft_cap, mv_ops::kCommit.required, file_cap,
                             Rights::none());
  if (!pinned.ok()) {
    // Distinguish "draft bad" from "file gone": reopen the draft alone.
    auto draft_alone = store_.open(draft_cap, mv_ops::kCommit.required);
    if (!draft_alone.ok()) {
      return draft_alone.error();
    }
    const auto* draft = std::get_if<DraftObj>(draft_alone.value().value);
    if (draft == nullptr) {
      return ErrorCode::invalid_argument;
    }
    // The draft is fine, so the file side failed: destroyed, reused, or
    // revoked while the draft was open.  The draft is consumed and its
    // snapshot reference dropped, as for a destroyed file.
    const std::uint32_t orphan_root = draft->root;
    const auto destroyed = store_.destroy(std::move(draft_alone.value()));
    if (destroyed.ok()) {
      const std::lock_guard pages_lock(pages_mutex_);
      pages_.release(orphan_root);
    }
    return ErrorCode::no_such_object;
  }
  auto* draft = std::get_if<DraftObj>(pinned.value().a.value);
  if (draft == nullptr) {
    return ErrorCode::invalid_argument;
  }
  const std::uint32_t draft_root = draft->root;
  auto* file = std::get_if<FileObj>(pinned.value().b.value);
  if (file == nullptr) {
    return ErrorCode::invalid_argument;
  }
  if (file->version_roots.size() != draft->base_versions) {
    // Optimistic concurrency: someone committed since this draft forked.
    return ErrorCode::conflict;
  }
  // Committing consumes the draft, so the capability must allow its
  // destruction -- checked before the root is published, otherwise a
  // surviving draft and the file history would both own one reference.
  if (!pinned.value().a.rights.has_all(core::rights::kDestroy)) {
    return ErrorCode::permission_denied;
  }
  // Atomic: the draft's snapshot reference transfers to the file history.
  file->version_roots.push_back(draft_root);
  const std::uint64_t new_index = file->version_roots.size() - 1;
  // Journal the file's new version BEFORE destroying the draft: the
  // destroy drops the (possibly shared) shard lock, so the flush must not
  // wait for the pair's release.
  pinned.value().b.mark_dirty();
  pinned.value().b.flush();
  (void)store_.destroy(std::move(pinned.value().a));
  return mv_ops::CommitReply{new_index};
}

Result<void> MultiVersionServer::do_abort(Store::Opened&& opened) {
  auto* draft = std::get_if<DraftObj>(opened.value);
  if (draft == nullptr) {
    return ErrorCode::invalid_argument;
  }
  const std::uint32_t draft_root = draft->root;
  // Drafts are destroyed through their own object slot; the caller's
  // capability must allow destruction, which a fresh draft cap does.
  const auto destroyed = store_.destroy(std::move(opened));
  if (!destroyed.ok()) {
    return destroyed.error();
  }
  const std::lock_guard pages_lock(pages_mutex_);
  pages_.release(draft_root);
  return {};
}

Result<void> MultiVersionServer::do_destroy_file(Store::Opened&& opened) {
  auto* file = std::get_if<FileObj>(opened.value);
  if (file == nullptr) {
    return ErrorCode::invalid_argument;
  }
  const std::vector<std::uint32_t> roots = std::move(file->version_roots);
  const auto destroyed = store_.destroy(std::move(opened));
  if (!destroyed.ok()) {
    return destroyed.error();
  }
  const std::lock_guard pages_lock(pages_mutex_);
  for (const std::uint32_t root : roots) {
    pages_.release(root);
  }
  return {};
}

Result<void> MultiVersionServer::do_destroy_any(Store::Opened&& opened) {
  if (std::holds_alternative<DraftObj>(*opened.value)) {
    return do_abort(std::move(opened));
  }
  return do_destroy_file(std::move(opened));
}

// ------------------------------------------------------ MultiVersionClient

Result<core::Capability> MultiVersionClient::create_file() {
  auto reply = rpc::call(*transport_, server_port_, mv_ops::kCreateFile);
  if (!reply.ok()) {
    return reply.error();
  }
  return reply.value().capability;
}

Result<core::Capability> MultiVersionClient::new_version(
    const core::Capability& file) {
  auto reply = rpc::call(*transport_, server_port_, mv_ops::kNewVersion, file);
  if (!reply.ok()) {
    return reply.error();
  }
  return reply.value().capability;
}

Result<Buffer> MultiVersionClient::read_page(const core::Capability& cap,
                                             std::uint32_t page_no,
                                             std::uint64_t version_index) {
  auto reply = rpc::call(*transport_, server_port_, mv_ops::kReadPage, cap,
                         {page_no, version_index});
  if (!reply.ok()) {
    return reply.error();
  }
  return std::move(reply.value().bytes);
}

Result<void> MultiVersionClient::write_page(
    const core::Capability& draft, std::uint32_t page_no,
    std::span<const std::uint8_t> data) {
  return rpc::call(*transport_, server_port_, mv_ops::kWritePage, draft,
                   {page_no, Buffer(data.begin(), data.end())});
}

Result<std::uint64_t> MultiVersionClient::commit(
    const core::Capability& draft) {
  auto reply = rpc::call(*transport_, server_port_, mv_ops::kCommit, draft);
  if (!reply.ok()) {
    return reply.error();
  }
  return reply.value().version;
}

Result<void> MultiVersionClient::abort(const core::Capability& draft) {
  return rpc::call(*transport_, server_port_, mv_ops::kAbort, draft);
}

Result<std::uint64_t> MultiVersionClient::history(
    const core::Capability& file) {
  auto reply = rpc::call(*transport_, server_port_, mv_ops::kHistory, file);
  if (!reply.ok()) {
    return reply.error();
  }
  return reply.value().versions;
}

Result<void> MultiVersionClient::destroy(const core::Capability& file) {
  return rpc::call(*transport_, server_port_, mv_ops::kDestroyFile, file);
}

}  // namespace amoeba::servers
