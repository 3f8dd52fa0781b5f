// Folding a relay leg's task result back into the leg's own result struct,
// shared by every engine that chains legs (store-and-forward detours, their
// download mirror, steered multi-hop uploads).
#pragma once

#include "util/result.h"

namespace droute::transfer {

/// A leg that unwound exceptionally (or was cancelled) reads as a failed
/// leg, started and ended at `now`, with the Task error as its message.
template <typename Leg>
Leg unwrap_leg(const util::Result<Leg>& joined, double now) {
  if (joined.ok()) return joined.value();
  Leg failed{};
  failed.success = false;
  failed.error = joined.error().message;
  failed.start_time = now;
  failed.end_time = now;
  return failed;
}

}  // namespace droute::transfer
