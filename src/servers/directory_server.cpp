#include "amoeba/servers/directory_server.hpp"

#include <optional>

namespace amoeba::servers {
namespace {

/// True for paths resolve_path/resolve_paths reject up front: no leading,
/// trailing, or doubled separators.
[[nodiscard]] bool malformed_path(std::string_view path) {
  return !path.empty() && (path.front() == '/' || path.back() == '/' ||
                           path.find("//") != std::string_view::npos);
}

/// Splits the leading component off `path` ("a/b/c" -> "a", rest "b/c").
[[nodiscard]] std::string_view pop_component(std::string_view& path) {
  const std::size_t slash = path.find('/');
  std::string_view component;
  if (slash == std::string_view::npos) {
    component = path;
    path = {};
  } else {
    component = path.substr(0, slash);
    path.remove_prefix(slash + 1);
  }
  return component;
}

/// A non-directory server answers a LOOKUP with no_such_operation (opcode
/// spaces are disjoint per service class): the path used a file as a
/// directory -- ENOTDIR in UNIX terms.
[[nodiscard]] ErrorCode as_walk_error(ErrorCode code) {
  return code == ErrorCode::no_such_operation ? ErrorCode::invalid_argument
                                              : code;
}

}  // namespace

core::Durability<DirectoryServer::Directory> DirectoryServer::durability(
    std::shared_ptr<storage::GroupCommitter> committer) {
  core::Durability<Directory> d;
  d.committer = std::move(committer);
  d.encode = [](Writer& w, const Directory& dir) {
    w.u32(static_cast<std::uint32_t>(dir.size()));
    for (const auto& [name, capability] : dir) {
      w.str(name);
      w.raw(capability);
    }
  };
  d.decode = [](Reader& r, Directory& dir) {
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
      std::string name = r.str();
      core::CapabilityBytes capability{};
      r.raw(capability);
      dir.emplace(std::move(name), capability);
    }
    return r.ok();
  };
  return d;
}

DirectoryServer::DirectoryServer(
    net::Machine& machine, Port get_port,
    std::shared_ptr<const core::ProtectionScheme> scheme, std::uint64_t seed,
    std::shared_ptr<storage::Backend> backend)
    : rpc::Service(machine, get_port, "directory"),
      store_(std::move(scheme), machine.fbox().listen_port(get_port), seed,
             Store::kDefaultShards,
             durability(storage::GroupCommitter::create(backend))) {
  attach_durability(store_.committer());
  // std.destroy keeps the delete semantics: only empty directories die.
  rpc::register_std_ops(
      *this, store_,
      {.destroy = [this](Store::Opened&& dir) {
         return do_delete(std::move(dir));
       }});
  on(dir_ops::kCreateDir, [this](const auto&) -> Result<rpc::CapabilityReply> {
    return rpc::CapabilityReply{store_.create(Directory{})};
  });
  // kLookup/kList are the directory read paths; their open() validates a
  // repeat directory capability lock-free before taking the shard mutex.
  on(dir_ops::kLookup, store_, [this](const auto& call, auto& dir) {
    return do_lookup(call.body, dir);
  });
  on(dir_ops::kEnter, store_, [this](const auto& call, auto& dir) {
    return do_enter(call.body, dir);
  });
  on(dir_ops::kRemove, store_, [this](const auto& call, auto& dir) {
    return do_remove(call.body, dir);
  });
  on(dir_ops::kList, store_,
     [this](const auto&, auto& dir) { return do_list(dir); });
  on(dir_ops::kDeleteDir, store_, [this](const auto&, auto& dir) {
    return do_delete(std::move(dir));
  });
}

Result<rpc::CapabilityReply> DirectoryServer::do_lookup(
    const dir_ops::NameRequest& req, Store::Opened& dir) {
  auto it = dir.value->find(req.name);
  if (it == dir.value->end()) {
    return ErrorCode::not_found;
  }
  return rpc::CapabilityReply{core::unpack(it->second)};
}

Result<void> DirectoryServer::do_enter(const dir_ops::EnterRequest& req,
                                       Store::Opened& dir) {
  if (req.name.empty()) {
    return ErrorCode::invalid_argument;
  }
  if (dir.value->contains(req.name)) {
    return ErrorCode::exists;
  }
  dir.value->emplace(req.name, core::pack(req.target));
  dir.mark_dirty();
  return {};
}

Result<void> DirectoryServer::do_remove(const dir_ops::NameRequest& req,
                                        Store::Opened& dir) {
  if (dir.value->erase(req.name) == 0) {
    return ErrorCode::not_found;
  }
  dir.mark_dirty();
  return {};
}

Result<dir_ops::ListReply> DirectoryServer::do_list(Store::Opened& dir) {
  dir_ops::ListReply reply;
  reply.entries.reserve(dir.value->size());
  for (const auto& [name, capability] : *dir.value) {
    reply.entries.push_back(DirEntry{name, core::unpack(capability)});
  }
  return reply;
}

Result<void> DirectoryServer::do_delete(Store::Opened&& dir) {
  if (!dir.value->empty()) {
    return ErrorCode::not_empty;
  }
  return store_.destroy(std::move(dir));
}

// --------------------------------------------------------- DirectoryClient

Result<core::Capability> DirectoryClient::create_dir() {
  auto reply = rpc::call(*transport_, server_port_, dir_ops::kCreateDir);
  if (!reply.ok()) {
    return reply.error();
  }
  return reply.value().capability;
}

Result<core::Capability> DirectoryClient::lookup(const core::Capability& dir,
                                                 const std::string& name) {
  auto reply =
      rpc::call(*transport_, server_port_, dir_ops::kLookup, dir, {name});
  if (!reply.ok()) {
    return reply.error();
  }
  return reply.value().capability;
}

Result<void> DirectoryClient::enter(const core::Capability& dir,
                                    const std::string& name,
                                    const core::Capability& target) {
  return rpc::call(*transport_, server_port_, dir_ops::kEnter, dir,
                   {name, target});
}

Result<void> DirectoryClient::remove(const core::Capability& dir,
                                     const std::string& name) {
  return rpc::call(*transport_, server_port_, dir_ops::kRemove, dir, {name});
}

Result<std::vector<DirEntry>> DirectoryClient::list(
    const core::Capability& dir) {
  auto reply = rpc::call(*transport_, server_port_, dir_ops::kList, dir);
  if (!reply.ok()) {
    return reply.error();
  }
  return std::move(reply.value().entries);
}

Result<void> DirectoryClient::delete_dir(const core::Capability& dir) {
  return rpc::call(*transport_, server_port_, dir_ops::kDeleteDir, dir);
}

Result<core::Capability> resolve_path(rpc::Transport& transport,
                                      const core::Capability& root,
                                      std::string_view path) {
  if (malformed_path(path)) {
    return ErrorCode::invalid_argument;
  }
  core::Capability current = root;
  while (!path.empty()) {
    const std::string_view component = pop_component(path);
    // Address the lookup to whatever server manages the current node --
    // this is what makes cross-server traversal transparent.
    DirectoryClient dir(transport, current.server_port);
    auto next = dir.lookup(current, std::string(component));
    if (!next.ok()) {
      return as_walk_error(next.error());
    }
    current = next.value();
  }
  return current;
}

std::vector<Result<core::Capability>> resolve_paths(
    rpc::Transport& transport, const core::Capability& root,
    std::span<const std::string> paths) {
  struct Walk {
    core::Capability at;
    std::string_view rest;
    std::optional<ErrorCode> failed;
    bool done = false;
  };
  std::vector<Walk> walks(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    walks[i].at = root;
    walks[i].rest = paths[i];
    if (malformed_path(walks[i].rest)) {
      walks[i].failed = ErrorCode::invalid_argument;
    } else if (walks[i].rest.empty()) {
      walks[i].done = true;  // empty path resolves to the root itself
    }
  }
  // Level-synchronous rounds: every unfinished walk advances one
  // component per round, and walks standing at the same server share one
  // batch frame.  Port order in the map keeps round trips deterministic.
  for (;;) {
    std::map<Port, std::vector<std::size_t>> frontier;
    for (std::size_t i = 0; i < walks.size(); ++i) {
      if (!walks[i].done && !walks[i].failed.has_value()) {
        frontier[walks[i].at.server_port].push_back(i);
      }
    }
    if (frontier.empty()) {
      break;
    }
    for (auto& [server, members] : frontier) {
      rpc::TypedBatch batch(transport, server);
      std::vector<rpc::TypedBatch::Entry<dir_ops::LookupOp>> entries;
      entries.reserve(members.size());
      for (const auto i : members) {
        entries.push_back(
            batch.add(dir_ops::kLookup, walks[i].at,
                      {std::string(pop_component(walks[i].rest))}));
      }
      auto replies = batch.run();
      if (!replies.ok()) {
        for (const auto i : members) {
          walks[i].failed = as_walk_error(replies.error());
        }
        continue;
      }
      // run() guarantees one reply per queued entry on success.
      for (std::size_t k = 0; k < members.size(); ++k) {
        Walk& walk = walks[members[k]];
        auto found = replies.value().get(entries[k]);
        if (!found.ok()) {
          walk.failed = as_walk_error(found.error());
          continue;
        }
        walk.at = found.value().capability;
        walk.done = walk.rest.empty();
      }
    }
  }
  std::vector<Result<core::Capability>> results;
  results.reserve(walks.size());
  for (const auto& walk : walks) {
    results.push_back(walk.failed.has_value()
                          ? Result<core::Capability>(*walk.failed)
                          : Result<core::Capability>(walk.at));
  }
  return results;
}

}  // namespace amoeba::servers
