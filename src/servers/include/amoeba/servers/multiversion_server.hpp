// The multiversion file server (§3.5).
//
// "An important property of this file system is its ability to provide
// atomic updates on files.  In short, a user can ask to make a new version
// of a file, which results in a capability for the new version.  The new
// version acts like it is a page-by-page copy of the original ... The new
// version can be modified at will, and then atomically 'committed', thus
// becoming the new file.  A file is thus a sequence of versions.  Once a
// version of a file has been committed, it cannot be modified."
//
// Commit uses optimistic concurrency control (the Mullender & Tanenbaum
// 1982 design this section summarizes): a draft records which version it
// was forked from; commit succeeds only if that version is still the head,
// otherwise the competing committer won and the caller gets `conflict`.
//
// Two object kinds live in one capability space: files (the committed
// version sequence) and drafts (uncommitted new versions).  Draft writes
// are copy-on-write through the PageStore, so a draft of a gigabyte file
// costs O(pages actually changed).
#pragma once

#include <memory>
#include <mutex>
#include <variant>
#include <vector>

#include "amoeba/core/object_store.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/common.hpp"
#include "amoeba/servers/page_tree.hpp"

namespace amoeba::servers {

/// The multiversion file server's operation table.
namespace mv_ops {

struct ReadPageRequest {
  std::uint32_t page = 0;
  std::uint64_t version = 0;  // MultiVersionClient::kHead = current head
  using Wire = rpc::Layout<ReadPageRequest,
                           rpc::Param<0, &ReadPageRequest::page>,
                           rpc::Param<1, &ReadPageRequest::version>>;
};

struct WritePageRequest {
  std::uint32_t page = 0;
  Buffer bytes;
  using Wire = rpc::Layout<WritePageRequest,
                           rpc::Param<0, &WritePageRequest::page>,
                           rpc::RawData<&WritePageRequest::bytes>>;
};

struct CommitReply {
  std::uint64_t version = 0;  // index of the newly committed version
  using Wire = rpc::Layout<CommitReply, rpc::Param<0, &CommitReply::version>>;
};

struct HistoryReply {
  std::uint64_t versions = 0;
  using Wire =
      rpc::Layout<HistoryReply, rpc::Param<0, &HistoryReply::versions>>;
};

inline constexpr rpc::Op<rpc::Empty, rpc::CapabilityReply> kCreateFile{
    0x0401, "mv.create_file", rpc::kFactoryOp};
inline constexpr rpc::Op<rpc::Empty, rpc::CapabilityReply> kNewVersion{
    0x0402, "mv.new_version", core::rights::kWrite};  // file cap -> draft cap
inline constexpr rpc::Op<ReadPageRequest, rpc::BytesReply> kReadPage{
    0x0403, "mv.read_page", core::rights::kRead};
inline constexpr rpc::Op<WritePageRequest, rpc::Empty> kWritePage{
    0x0404, "mv.write_page", core::rights::kWrite};  // draft cap
inline constexpr rpc::Op<rpc::Empty, CommitReply> kCommit{
    0x0405, "mv.commit", core::rights::kWrite};  // draft cap
inline constexpr rpc::Op<rpc::Empty, rpc::Empty> kAbort{
    0x0406, "mv.abort", core::rights::kWrite};  // draft cap
inline constexpr rpc::Op<rpc::Empty, HistoryReply> kHistory{
    0x0407, "mv.history", core::rights::kRead};  // file cap
inline constexpr rpc::Op<rpc::Empty, rpc::Empty> kDestroyFile{
    0x0408, "mv.destroy_file", core::rights::kDestroy};

}  // namespace mv_ops

class MultiVersionServer final : public rpc::Service {
 public:
  /// `backend`, when set, journals files and drafts with their page
  /// CONTENT (the codec materializes each version's pages), so a
  /// recovered server serves every committed version and in-flight draft
  /// under the pre-crash capabilities.  Copy-on-write sharing between
  /// versions is not reconstructed on recovery -- correct, just unshared.
  MultiVersionServer(net::Machine& machine, Port get_port,
                     std::shared_ptr<const core::ProtectionScheme> scheme,
                     std::uint64_t seed, std::uint32_t page_size = 1024,
                     std::shared_ptr<storage::Backend> backend = nullptr);
  ~MultiVersionServer() override { stop(); }  // quiesce workers first

  [[nodiscard]] std::uint32_t page_size() const { return pages_.page_size(); }
  [[nodiscard]] PageStore::Stats page_stats() const;

 private:
  struct FileObj {
    std::vector<std::uint32_t> version_roots;  // [0] = v0; back() = head
  };
  struct DraftObj {
    // The full capability (not just the number) the draft was forked
    // from: commit revalidates it, so a draft cannot attach its pages to
    // an unrelated file that happens to reuse the number after a
    // destroy, and revoking the file cuts off outstanding drafts too.
    core::Capability file_cap;
    std::size_t base_versions = 0;  // history length at fork time
    std::uint32_t root = PageStore::kEmptyRoot;
  };
  using Payload = std::variant<FileObj, DraftObj>;
  using Store = core::ObjectStore<Payload>;

  /// Captures `this`: encode/decode walk and rebuild page trees under
  /// pages_mutex_ (taken AFTER a shard lock, matching every handler);
  /// pages_ is declared before store_ so recovery may fill it.
  [[nodiscard]] core::Durability<Payload> durability(
      std::shared_ptr<storage::GroupCommitter> committer);

  [[nodiscard]] Result<rpc::CapabilityReply> do_new_version(
      const core::Capability& file_cap, Store::Opened& opened);
  [[nodiscard]] Result<rpc::BytesReply> do_read_page(
      const mv_ops::ReadPageRequest& req, Store::Opened& opened);
  [[nodiscard]] Result<void> do_write_page(
      const mv_ops::WritePageRequest& req, Store::Opened& opened);
  [[nodiscard]] Result<mv_ops::CommitReply> do_commit(
      const core::Capability& draft_cap);
  [[nodiscard]] Result<void> do_abort(Store::Opened&& opened);
  [[nodiscard]] Result<void> do_destroy_file(Store::Opened&& opened);
  /// std.destroy: files release their whole history, drafts behave like
  /// abort -- the uniform opcode accepts either object kind.
  [[nodiscard]] Result<void> do_destroy_any(Store::Opened&& opened);

  // Files and drafts are exclusive under their shard locks while opened;
  // commit holds the draft and its file together via open_with_peek.  The
  // page store (shared refcounted trees) keeps its own lock, always
  // acquired after a shard lock and never around store_ calls, so the
  // shard -> pages ordering is acyclic.  pages_ precedes store_: the
  // durable store's recovery constructor rebuilds trees into it.
  mutable std::mutex pages_mutex_;
  PageStore pages_;
  Store store_;
};

/// Client stub for the multiversion file service.
class MultiVersionClient {
 public:
  MultiVersionClient(rpc::Transport& transport, Port server_port)
      : transport_(&transport), server_port_(server_port) {}

  [[nodiscard]] Result<core::Capability> create_file();
  /// Forks a draft ("make a new version") from the current head.
  [[nodiscard]] Result<core::Capability> new_version(
      const core::Capability& file);
  /// Reads from a committed version (version_index; npos = head) of a file
  /// capability, or from a draft capability's working tree.
  static constexpr std::uint64_t kHead = ~std::uint64_t{0};
  [[nodiscard]] Result<Buffer> read_page(const core::Capability& cap,
                                         std::uint32_t page_no,
                                         std::uint64_t version_index = kHead);
  [[nodiscard]] Result<void> write_page(const core::Capability& draft,
                                        std::uint32_t page_no,
                                        std::span<const std::uint8_t> data);
  /// Atomic commit; `conflict` if another draft committed first.
  [[nodiscard]] Result<std::uint64_t> commit(const core::Capability& draft);
  [[nodiscard]] Result<void> abort(const core::Capability& draft);
  [[nodiscard]] Result<std::uint64_t> history(const core::Capability& file);
  [[nodiscard]] Result<void> destroy(const core::Capability& file);

 private:
  rpc::Transport* transport_;
  Port server_port_;
};

}  // namespace amoeba::servers
