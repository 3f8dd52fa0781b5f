// Real rsync-over-TCP tests: the client -> DTN leg as an actual protocol.
#include <gtest/gtest.h>

#include "util/blob.h"
#include "util/rng.h"
#include "wire/rsync_pipe.h"

namespace droute::wire {
namespace {

util::Blob blob_of(std::uint64_t seed, std::size_t size) {
  util::Rng rng(seed);
  return util::make_random_blob(rng, size);
}

class RsyncPipe : public ::testing::Test {
 protected:
  void SetUp() override {
    auto port = server_.start();
    ASSERT_TRUE(port.ok()) << port.error().message;
    port_ = port.value();
  }
  void TearDown() override { server_.stop(); }

  RsyncServer server_;
  std::uint16_t port_ = 0;
};

TEST_F(RsyncPipe, ColdPushSendsFullContent) {
  const util::Blob data = blob_of(1, 3 * 1000 * 1000);
  auto stats = rsync_push(port_, "file.bin", data);
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_TRUE(stats.value().digest_ok);
  // No basis: the delta is essentially the whole file.
  EXPECT_GT(stats.value().delta_bytes, data.size());
  EXPECT_LT(stats.value().delta_bytes, data.size() + 1000);
  EXPECT_LT(stats.value().signature_bytes, 100u);
  EXPECT_EQ(server_.lookup("file.bin").value(), data);
  EXPECT_EQ(server_.pushes_served(), 1u);
}

TEST_F(RsyncPipe, WarmPushSendsOnlyDelta) {
  util::Blob data = blob_of(2, 2 * 1000 * 1000);
  server_.preload("warm.bin", data);
  data[123456] ^= 0x5a;  // one byte changed since the DTN's copy
  auto stats = rsync_push(port_, "warm.bin", data);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().digest_ok);
  EXPECT_LT(stats.value().delta_bytes, data.size() / 50);
  EXPECT_GT(stats.value().signature_bytes, 1000u);  // real block signatures
  EXPECT_EQ(server_.lookup("warm.bin").value(), data);
}

TEST_F(RsyncPipe, SecondPushReusesStoredBasis) {
  util::Blob v1 = blob_of(3, 1000 * 1000);
  auto first = rsync_push(port_, "doc.bin", v1);
  ASSERT_TRUE(first.ok());
  util::Blob v2 = v1;
  v2.insert(v2.begin() + 500, 99, 0x42);
  auto second = rsync_push(port_, "doc.bin", v2);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().digest_ok);
  EXPECT_LT(second.value().delta_bytes, first.value().delta_bytes / 10);
  EXPECT_EQ(server_.lookup("doc.bin").value(), v2);
}

TEST_F(RsyncPipe, DistinctNamesAreIndependent) {
  const util::Blob a = blob_of(4, 100000);
  const util::Blob b = blob_of(5, 150000);
  ASSERT_TRUE(rsync_push(port_, "a", a).ok());
  ASSERT_TRUE(rsync_push(port_, "b", b).ok());
  EXPECT_EQ(server_.lookup("a").value(), a);
  EXPECT_EQ(server_.lookup("b").value(), b);
  EXPECT_FALSE(server_.lookup("c").has_value());
}

TEST_F(RsyncPipe, ThrottledPushRespectsRate) {
  const util::Blob data = blob_of(6, 2 * 1000 * 1000);
  auto fast = rsync_push(port_, "fast.bin", data);
  auto slow = rsync_push(port_, "slow.bin", data, /*rate=*/2e6);  // 2 MB/s
  ASSERT_TRUE(fast.ok() && slow.ok());
  // 2 MB at 2 MB/s ~= 1 s.
  EXPECT_GT(slow.value().seconds, 0.5);
  // Both pushes pay the same CPU work (signature, delta, MD5), which is not
  // negligible under sanitizers (~0.6 s under TSan). The limiter paces only
  // the delta send, so it must add its own time on top: ~1.75 MB beyond the
  // 250 KB burst at 2 MB/s is ~0.875 s.
  EXPECT_GT(slow.value().seconds - fast.value().seconds, 0.5);
}

TEST_F(RsyncPipe, ConnectToDeadServerFails) {
  RsyncServer other;
  auto port = other.start();
  ASSERT_TRUE(port.ok());
  other.stop();
  const util::Blob data = blob_of(7, 1000);
  EXPECT_FALSE(rsync_push(port.value(), "x", data).ok());
}

}  // namespace
}  // namespace droute::wire
