#include "wire/sink.h"

#include <algorithm>

#include "check/contract.h"
#include "rsyncx/md5.h"
#include "util/logging.h"

namespace droute::wire {

namespace {
constexpr std::size_t kIoChunk = 256 * 1024;
}

Sink::~Sink() { stop(); }

util::Result<std::uint16_t> Sink::add_ingress(double rate_bytes_per_s) {
  DROUTE_CHECK(!started_, "add_ingress after start");
  auto listener = Listener::bind(0);
  if (!listener.ok()) return util::Error{listener.error()};
  auto ingress = std::make_unique<Ingress>();
  ingress->listener =
      std::make_unique<Listener>(std::move(listener).value());
  ingress->limiter = std::make_unique<RateLimiter>(rate_bytes_per_s);
  const std::uint16_t port = ingress->listener->port();
  ingresses_.push_back(std::move(ingress));
  return port;
}

util::Status Sink::start() {
  DROUTE_CHECK(!started_, "Sink::start called twice");
  started_ = true;
  for (auto& ingress : ingresses_) {
    ingress->thread = std::thread([this, raw = ingress.get()] { serve(raw); });
  }
  return util::Status::success();
}

void Sink::stop() {
  if (stopping_.exchange(true)) return;
  for (auto& ingress : ingresses_) ingress->listener->shutdown();
  for (auto& ingress : ingresses_) {
    if (ingress->thread.joinable()) ingress->thread.join();
  }
}

void Sink::serve(Ingress* ingress) {
  while (!stopping_.load()) {
    auto stream = ingress->listener->accept();
    if (!stream.ok()) return;  // listener shut down
    Stream conn = std::move(stream).value();

    auto len = conn.recv_u64();
    if (!len.ok()) continue;

    rsyncx::Md5 md5;
    std::vector<std::uint8_t> buffer(kIoChunk);
    std::uint64_t remaining = len.value();
    bool failed = false;
    while (remaining > 0) {
      const std::size_t take =
          static_cast<std::size_t>(std::min<std::uint64_t>(kIoChunk,
                                                           remaining));
      // Ingress policing: tokens are charged before the read drains the
      // kernel buffer, bounding sustained throughput at the limiter's rate.
      ingress->limiter->acquire(take);
      auto status = conn.recv_all(std::span(buffer.data(), take));
      if (!status.ok()) {
        failed = true;
        break;
      }
      md5.update(std::span(buffer.data(), take));
      remaining -= take;
    }
    if (failed) continue;

    // Count before acknowledging: the client takes the digest as proof of
    // delivery, so a caller that saw its upload complete must see it here.
    objects_received_.fetch_add(1);
    bytes_received_.fetch_add(len.value());
    const rsyncx::Md5Digest digest = md5.finalize();
    (void)conn.send_all(digest);  // a lost ack fails the upload client-side
  }
}

}  // namespace droute::wire
