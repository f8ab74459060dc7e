#include "amoeba/servers/bank_server.hpp"

#include <optional>

namespace amoeba::servers {
namespace {

/// Addition with overflow rejection (balances are client-controlled).
[[nodiscard]] bool add_checked(std::int64_t a, std::int64_t b,
                               std::int64_t& out) {
  return !__builtin_add_overflow(a, b, &out);
}

/// Multiplication likewise (conversion rates scale client balances).
[[nodiscard]] bool mul_checked(std::int64_t a, std::int64_t b,
                               std::int64_t& out) {
  return !__builtin_mul_overflow(a, b, &out);
}

}  // namespace

core::Durability<BankServer::Account> BankServer::durability(
    std::shared_ptr<storage::GroupCommitter> committer) {
  core::Durability<Account> d;
  d.committer = std::move(committer);
  d.encode = [](Writer& w, const Account& account) {
    w.u32(static_cast<std::uint32_t>(account.balances.size()));
    for (const auto& [currency, balance] : account.balances) {
      w.u32(currency);
      w.i64(balance);
    }
    w.u8(account.is_master ? 1 : 0);
  };
  d.decode = [](Reader& r, Account& account) {
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
      const std::uint32_t currency = r.u32();
      account.balances[currency] = r.i64();
    }
    account.is_master = r.u8() != 0;
    return r.ok();
  };
  return d;
}

BankServer::BankServer(net::Machine& machine, Port get_port,
                       std::shared_ptr<const core::ProtectionScheme> scheme,
                       std::uint64_t seed,
                       std::shared_ptr<storage::Backend> backend)
    : rpc::Service(machine, get_port, "bank"),
      store_(std::move(scheme), machine.fbox().listen_port(get_port), seed,
             Store::kDefaultShards,
             durability(storage::GroupCommitter::create(backend))) {
  if (store_.durability_stats().recovered) {
    // Restart path: the master account is already in the recovered table;
    // re-mint its capability instead of creating (and journaling) a new
    // economy.
    std::optional<ObjectNumber> master_object;
    store_.for_each([&](ObjectNumber object, const Account& account) {
      if (account.is_master) {
        master_object = object;
      }
    });
    if (!master_object.has_value()) {
      throw UsageError("BankServer: recovered volume has no master account");
    }
    master_ = store_.mint_for(*master_object, Rights::all()).value();
  } else {
    Account master;
    master.is_master = true;
    master_ = store_.create(std::move(master));
  }
  attach_durability(store_.committer());

  rpc::register_std_ops(*this, store_);
  on(bank_ops::kCreateAccount,
     [this](const auto&) -> Result<rpc::CapabilityReply> {
       return rpc::CapabilityReply{store_.create(Account{})};
     });
  // kBalance is the bank's read path: its open() proves a repeat
  // capability through the seqlock'd validate cache before locking.
  on(bank_ops::kBalance, store_, [this](const auto& call, auto& account) {
    return do_balance(call.body, account);
  });
  on(bank_ops::kTransfer, store_, [this](const auto& call) {
    return do_transfer(call.capability, call.body);
  });
  on(bank_ops::kConvert, store_, [this](const auto& call, auto& account) {
    return do_convert(call.body, account);
  });
  on(bank_ops::kMint, store_, [this](const auto& call) {
    return do_mint(call.capability, call.body);
  });
}

void BankServer::set_conversion_rate(std::uint32_t from, std::uint32_t to,
                                     std::int64_t num, std::int64_t den) {
  if (num <= 0 || den <= 0) {
    throw UsageError("conversion rate must be positive");
  }
  const std::unique_lock lock(rates_mutex_);
  rates_[{from, to}] = {num, den};
}

Result<bank_ops::BalanceReply> BankServer::do_balance(
    const bank_ops::BalanceRequest& req, Store::Opened& account) {
  const auto& balances = account.value->balances;
  auto it = balances.find(req.currency);
  return bank_ops::BalanceReply{it == balances.end() ? 0 : it->second};
}

Result<void> BankServer::do_transfer(const core::Capability& from_cap,
                                     const bank_ops::TransferRequest& req) {
  // Both accounts under their shard locks at once: the transfer is atomic
  // against every other transfer touching either account, without any
  // bank-wide serialization.  The rights come straight from the op table.
  auto pair = store_.open2(from_cap, bank_ops::kTransfer.required, req.to,
                           bank_ops::kTransfer.data_rights);
  if (!pair.ok()) {
    return pair.error();
  }
  auto& [from, to] = pair.value();
  if (req.amount <= 0) {
    return ErrorCode::invalid_argument;
  }
  std::int64_t& from_balance = from.value->balances[req.currency];
  if (from_balance < req.amount) {
    return ErrorCode::insufficient_funds;
  }
  if (from.object == to.object) {
    return {};  // self-transfer: no-op
  }
  // Distinct accounts: the maps are distinct, so taking the second
  // reference cannot invalidate the first.
  std::int64_t& to_balance = to.value->balances[req.currency];
  std::int64_t new_to = 0;
  if (!add_checked(to_balance, req.amount, new_to)) {
    return ErrorCode::invalid_argument;
  }
  from_balance -= req.amount;
  to_balance = new_to;
  // Both sides journal as ONE append group when the pair is released: a
  // crash image never holds the debit without the credit.
  from.mark_dirty();
  to.mark_dirty();
  return {};
}

Result<bank_ops::ConvertReply> BankServer::do_convert(
    const bank_ops::ConvertRequest& req, Store::Opened& account) {
  if (req.amount <= 0) {
    return ErrorCode::invalid_argument;
  }
  std::pair<std::int64_t, std::int64_t> rate;
  {
    const std::shared_lock lock(rates_mutex_);
    auto it = rates_.find({req.from_currency, req.to_currency});
    if (it == rates_.end()) {
      return ErrorCode::bad_currency;  // inconvertible
    }
    rate = it->second;
  }
  auto& balances = account.value->balances;
  if (balances[req.from_currency] < req.amount) {
    return ErrorCode::insufficient_funds;
  }
  const auto [num, den] = rate;
  std::int64_t scaled = 0;
  if (!mul_checked(req.amount, num, scaled)) {
    return ErrorCode::invalid_argument;
  }
  const std::int64_t converted = scaled / den;
  std::int64_t new_balance = 0;
  if (!add_checked(balances[req.to_currency], converted, new_balance)) {
    return ErrorCode::invalid_argument;
  }
  balances[req.from_currency] -= req.amount;
  balances[req.to_currency] = new_balance;
  account.mark_dirty();
  return bank_ops::ConvertReply{converted};
}

Result<void> BankServer::do_mint(const core::Capability& master_cap,
                                 const bank_ops::MintRequest& req) {
  auto pair = store_.open2(master_cap, bank_ops::kMint.required, req.to,
                           bank_ops::kMint.data_rights);
  if (!pair.ok()) {
    return pair.error();
  }
  auto& [master, to] = pair.value();
  if (!master.value->is_master) {
    // A forged kMint bit on an ordinary account must not create money.
    return ErrorCode::permission_denied;
  }
  if (req.amount <= 0) {
    return ErrorCode::invalid_argument;
  }
  std::int64_t new_balance = 0;
  if (!add_checked(to.value->balances[req.currency], req.amount,
                   new_balance)) {
    return ErrorCode::invalid_argument;
  }
  to.value->balances[req.currency] = new_balance;
  to.mark_dirty();
  return {};
}

// -------------------------------------------------------------- BankClient

Result<core::Capability> BankClient::create_account() {
  auto reply = rpc::call(*transport_, server_port_, bank_ops::kCreateAccount);
  if (!reply.ok()) {
    return reply.error();
  }
  return reply.value().capability;
}

Result<std::int64_t> BankClient::balance(const core::Capability& account,
                                         std::uint32_t currency) {
  auto reply = rpc::call(*transport_, server_port_, bank_ops::kBalance,
                         account, {currency});
  if (!reply.ok()) {
    return reply.error();
  }
  return reply.value().balance;
}

Result<void> BankClient::transfer(const core::Capability& from,
                                  const core::Capability& to,
                                  std::uint32_t currency,
                                  std::int64_t amount) {
  return rpc::call(*transport_, server_port_, bank_ops::kTransfer, from,
                   {currency, amount, to});
}

std::vector<Result<void>> BankClient::transfer_many(
    std::span<const Transfer> transfers) {
  rpc::TypedBatch batch(*transport_, server_port_);
  std::vector<rpc::TypedBatch::Entry<bank_ops::TransferOp>> entries;
  entries.reserve(transfers.size());
  for (const auto& transfer : transfers) {
    entries.push_back(
        batch.add(bank_ops::kTransfer, transfer.from,
                  {transfer.currency, transfer.amount, transfer.to}));
  }
  std::vector<Result<void>> results;
  results.reserve(transfers.size());
  auto replies = batch.run();
  if (!replies.ok()) {
    results.assign(transfers.size(), Result<void>(replies.error()));
    return results;
  }
  // run() guarantees one reply per queued entry on success.
  for (const auto& entry : entries) {
    results.push_back(replies.value().get(entry));
  }
  return results;
}

Result<std::int64_t> BankClient::convert(const core::Capability& account,
                                         std::uint32_t from_currency,
                                         std::uint32_t to_currency,
                                         std::int64_t amount) {
  auto reply = rpc::call(*transport_, server_port_, bank_ops::kConvert,
                         account, {from_currency, to_currency, amount});
  if (!reply.ok()) {
    return reply.error();
  }
  return reply.value().converted;
}

Result<void> BankClient::mint(const core::Capability& master,
                              const core::Capability& to,
                              std::uint32_t currency, std::int64_t amount) {
  return rpc::call(*transport_, server_port_, bank_ops::kMint, master,
                   {currency, amount, to});
}

}  // namespace amoeba::servers
