// OAuth2 (RFC 6749) emulation — the authorization layer all three providers
// share (Sec II). We model the refresh-token grant the paper's long-running
// measurement clients exercise: tokens expire, expired tokens are refreshed
// at the cost of one token-endpoint round trip before the upload can start.
#pragma once

#include <cstdint>
#include <string>

#include "sim/simulator.h"
#include "util/result.h"
#include "util/rng.h"

namespace droute::obs {
class Counter;
}  // namespace droute::obs

namespace droute::cloud {

struct AccessToken {
  std::string value;       // opaque bearer token
  sim::Time issued_at = 0;
  double lifetime_s = 3600.0;

  bool expired_at(sim::Time now) const {
    return now >= issued_at + lifetime_s;
  }
};

/// Token endpoint state for one (client, provider) pair.
class OAuthSession {
 public:
  OAuthSession(std::string client_id, double token_lifetime_s,
               std::uint64_t seed);

  /// Returns a valid token, refreshing if needed. `refreshed` (optional out)
  /// reports whether a token-endpoint round trip was required — the caller
  /// charges that RTT to the transfer timeline.
  AccessToken ensure_token(sim::Time now, bool* refreshed = nullptr);

  /// Validates a presented bearer token (the server side of the exchange).
  [[nodiscard]]
  util::Status validate(const AccessToken& token, sim::Time now) const;

  std::uint64_t refresh_count() const { return refresh_count_; }

 private:
  std::string mint(sim::Time now);

  std::string client_id_;
  double token_lifetime_s_;
  util::Rng rng_;
  AccessToken current_;
  bool have_token_ = false;
  std::uint64_t refresh_count_ = 0;
  // obs handle (null when recording is disabled at construction).
  obs::Counter* obs_token_refreshes_ = nullptr;
};

}  // namespace droute::cloud
