// The core and crypto layers measured from outside: the workload's own
// capability sequence replayed through a benchmark-owned object store and
// the deployed one-way function, at one thread and at the workload's
// client count.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "amoeba/core/schemes.hpp"
#include "common.hpp"

namespace perfbench {

struct ReplayPlan {
  amoeba::core::SchemeKind scheme = amoeba::core::SchemeKind::one_way_xor;
  std::uint32_t objects = 0;
  /// Per client thread: the objects its single-object calls named.
  std::vector<std::vector<std::uint32_t>> singles;
  /// Per client thread: the (from, to) objects of its two-object calls.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> pairs;
};

/// Emits core.* and crypto.* metrics into `report`.
void replay_core_crypto(const ReplayPlan& plan, Report& report);

}  // namespace perfbench
