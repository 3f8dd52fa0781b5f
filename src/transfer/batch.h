// Batched transfer engine (DESIGN.md §15): one submission API over every
// backend, and the only way simulated bytes move.
//
// A TransferEngine owns a registry of Segments (named remote endpoints) and
// turns a vector of TransferRequests into one awaitable BatchHandle:
//
//   auto batch = engine.submit_batch(std::move(requests));
//   const bool all_ok = co_await batch;          // sim transports
//   for (std::size_t i = 0; i < batch.size(); ++i) use(batch.status(i));
//
// Per-request statuses support partial-failure reporting: each request
// settles independently (completed / rejected / aborted / link-failed) and
// the batch as a whole settles when the last request does.
//
// Launch is deferred: requests hit the Transport inside the awaiter's
// await_suspend (or an explicit start()/wait()), never at submit time. A
// single-request batch therefore starts its flow at exactly the co_await
// point, its completion resumes the awaiter in the same sim event the flow
// finishes in, and a parent task cancelled before the co_await never
// touches the fabric at all (every request settles as kCancelled with the
// reason "transfer cancelled before start").
//
// Cancellation is cooperative via sim::Task: cancelling the awaiting task
// cancels the batch, which aborts in-flight requests in index order and
// settles unstarted ones without touching the transport. A cancelled batch
// releases every per-request resource synchronously on sim transports — no
// pending sim events, no live flows — and always decrements
// transfer.batch_inflight exactly once, even when the handle itself is
// dropped (the chaos harness audits this).
//
// Awaiting is lvalue-only (&-qualified awaiter methods), matching the rest
// of the Task layer (GCC PR 99576 family).
#pragma once

#include <coroutine>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/topology.h"
#include "sim/task.h"
#include "transfer/transport.h"
#include "util/result.h"

namespace droute::obs {
class Counter;
class Gauge;
}  // namespace droute::obs

namespace droute::transfer {

/// Identifies a registered Segment; 0 is invalid.
using SegmentId = std::uint32_t;
inline constexpr SegmentId kInvalidSegment = 0;

/// A named remote endpoint requests are addressed to. Sim transports use
/// `node`; wire transports use `wire_port` (+ optional egress policing).
struct Segment {
  std::string name;
  net::NodeId node = net::kInvalidNode;
  std::uint16_t wire_port = 0;
  double wire_rate_bytes_per_s = 0.0;  // <= 0: unpoliced first hop
};

enum class Opcode : std::uint8_t { kRead, kWrite };

/// One asynchronous transfer: move `length` bytes between the local source
/// and [target_offset, target_offset+length) of the target segment.
struct TransferRequest {
  Opcode opcode = Opcode::kWrite;
  /// Sim transports: the local endpoint node (WRITE flows source_node ->
  /// segment.node; READ flows segment.node -> source_node).
  net::NodeId source_node = net::kInvalidNode;
  /// Wire transports: the local buffer holding `length` bytes (WRITE only).
  const std::uint8_t* source = nullptr;
  SegmentId target_id = kInvalidSegment;
  std::uint64_t target_offset = 0;
  std::uint64_t length = 0;
  /// Charge the TCP slow-start ramp (first request of a warm connection).
  bool charge_slow_start = true;
  /// Flow label for debugging / cross-traffic identification.
  std::string label;
};

enum class RequestState : std::uint8_t {
  kPending,     // submitted, not yet handed to the transport
  kInFlight,    // transport accepted it; completion pending
  kCompleted,   // all bytes moved
  kRejected,    // transport refused synchronously (`error` holds the reason)
  kAborted,     // cancelled / aborted while in flight
  kLinkFailed,  // ran, but the path died mid-transfer
  kCancelled,   // batch cancelled before the transport ever saw it
};

/// Per-request outcome, pollable at any time through BatchHandle::status().
struct RequestStatus {
  RequestState state = RequestState::kPending;
  std::string error;        // reason for kRejected / kCancelled / failures
  std::uint64_t bytes = 0;  // wire bytes moved (kCompleted)
  double start_s = 0.0;     // transport clock at start (settle time if never started)
  double end_s = 0.0;       // transport clock at settle

  double duration_s() const { return end_s - start_s; }
  bool settled() const {
    return state != RequestState::kPending && state != RequestState::kInFlight;
  }
  bool completed() const { return state == RequestState::kCompleted; }
  /// The request never ran: refused synchronously or cancelled pre-start.
  /// Engines surface these as "<leg> flow rejected: <error>".
  bool rejected() const {
    return state == RequestState::kRejected ||
           state == RequestState::kCancelled;
  }
  /// The transport actually moved (or tried to move) bytes for it.
  bool ran() const {
    return state == RequestState::kCompleted ||
           state == RequestState::kAborted ||
           state == RequestState::kLinkFailed;
  }
};

struct BatchOptions {
  /// Max requests in flight at once; 0 = unlimited (all launch together,
  /// in index order). With a cap, a settling request starts the next
  /// pending one synchronously inside its completion.
  std::size_t concurrency = 0;
};

class TransferEngine;

namespace detail {

/// Batch bookkeeping, owned by a reference count: one reference per
/// BatchHandle, plus one the state holds on itself while any request is in
/// flight, so a dropped handle cannot strand settlement (or the inflight
/// gauge). The batch layer is single-threaded (transport.h), so the count
/// is a plain integer.
class BatchState final : public Transport::Sink {
 public:
  BatchState(TransferEngine* engine, Transport* transport, std::size_t size,
             BatchOptions options);

  void retain() { ++refs_; }
  /// Drops one reference; the last one deletes the state.
  static void release(BatchState* state);

  /// Appends a request; only before launch.
  void add(TransferRequest request);

  /// Hands requests to the transport (respecting the concurrency cap).
  /// Idempotent; a no-op after cancel_before_start().
  void launch();

  /// Cancels the batch: pending requests settle as kCancelled, in-flight
  /// ones are cancelled through the transport in index order (synchronous
  /// settle on sim transports).
  void cancel();

  /// The awaiting task was cancelled before the batch launched: settle
  /// every request as kCancelled with the pre-start reason, without
  /// touching the transport.
  void cancel_before_start();

  bool launched() const { return launched_; }
  bool cancelled() const { return cancelled_; }
  bool all_settled() const { return settled_ == slots_.size(); }
  bool all_completed() const { return completed_ == slots_.size(); }
  std::size_t size() const { return slots_.size(); }
  const RequestStatus& status(std::size_t i) const;

  /// Registers the one-shot resume of a suspended awaiter; it fires as
  /// soon as all_settled(), disarming `promise`'s canceller first when the
  /// awaiter is a sim::Task.
  void set_waiter(std::coroutine_handle<> waiter,
                  sim::TaskPromiseBase* promise);

  /// Pumps a blocking transport until this batch fully settles.
  void drain_blocking();

  /// Transport::Sink: request `i` ended.
  void on_complete(std::size_t i,
                   const Transport::Completion& completion) override;

 private:
  struct Slot {
    TransferRequest request;
    RequestStatus status;
    Transport::OpId op = Transport::kNoOp;
  };

  void pump();                     // launch while the cap allows
  void start_one(std::size_t i);
  void settle(std::size_t i, RequestState state, std::string error,
              std::uint64_t bytes);
  void cancel_before_start_locked();
  void maybe_finish();             // waiter + engine bookkeeping

  TransferEngine* engine_;
  Transport* transport_;
  BatchOptions options_;
  // The requests, viewed through slots_: a one-request batch (every leg of
  // a sequential engine or probe) keeps its slot inline, so it costs one
  // allocation; larger batches use many_.
  Slot one_;
  std::vector<Slot> many_;
  std::span<Slot> slots_;
  std::size_t next_to_start_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t settled_ = 0;
  std::size_t completed_ = 0;
  bool launched_ = false;
  bool cancelled_ = false;
  bool finished_ = false;  // engine notified (inflight gauge decremented)
  std::size_t refs_ = 0;
  std::coroutine_handle<> waiter_;
  sim::TaskPromiseBase* waiter_promise_ = nullptr;
};

}  // namespace detail

/// Joinable view of one submitted batch. Copyable (shares state); awaiting
/// from a sim::Task launches the batch and parks until it settles, and
/// cancelling the awaiting task cancels the batch.
class BatchHandle {
 public:
  explicit BatchHandle(detail::BatchState* state) : state_(state) {
    state_->retain();
  }
  BatchHandle(const BatchHandle& other) : BatchHandle(other.state_) {}
  BatchHandle& operator=(const BatchHandle& other) {
    other.state_->retain();
    detail::BatchState::release(state_);
    state_ = other.state_;
    return *this;
  }
  ~BatchHandle() { detail::BatchState::release(state_); }

  /// Explicitly launches the batch (polling / blocking drivers; co_await
  /// launches implicitly). Idempotent.
  void start() { state_->launch(); }

  /// Blocking join for transports whose completions need pumping (wire).
  /// Launches if necessary; returns ok(). Event-driven transports settle
  /// through their own loop instead — run the simulator and poll done().
  bool wait();

  /// Cancels the batch (see BatchState::cancel for ordering guarantees).
  void cancel() { state_->cancel(); }

  bool done() const { return state_->all_settled(); }
  bool ok() const { return state_->all_completed(); }
  bool cancelled() const { return state_->cancelled(); }
  std::size_t size() const { return state_->size(); }
  const RequestStatus& status(std::size_t i) const {
    return state_->status(i);
  }

  // --- awaiter interface (lvalue-only, like the rest of the Task layer) ---

  bool await_ready() const& {
    return state_->launched() && state_->all_settled();
  }

  template <typename Promise>
  bool await_suspend(std::coroutine_handle<Promise> handle) & {
    if constexpr (std::is_base_of_v<sim::TaskPromiseBase, Promise>) {
      if (handle.promise().cancel_requested() && !state_->launched()) {
        // Task already cancelled: do not put bytes on the wire.
        state_->cancel_before_start();
        return false;  // resume immediately
      }
    }
    state_->launch();
    if (state_->all_settled()) return false;  // settled synchronously
    if constexpr (std::is_base_of_v<sim::TaskPromiseBase, Promise>) {
      state_->set_waiter(handle, &handle.promise());
      // The suspended frame's handle owns the state, and cancel() holds
      // it across the resume that may destroy that frame.
      detail::BatchState* state = state_;
      handle.promise().arm_canceller([state] { state->cancel(); });
    } else {
      state_->set_waiter(handle, nullptr);
    }
    return true;
  }

  /// True when every request completed (partial failures poll status()).
  bool await_resume() const& { return state_->all_completed(); }

 private:
  friend class TransferEngine;  // fills the batch it opened
  detail::BatchState* state_;
};

/// The batched transfer engine: segment registry + batch submission over
/// one Transport backend. A simulated world owns one, next to its fabric,
/// and every transfer engine and the controller borrow it; it must outlive
/// every batch it submitted (and, for batches whose handles were dropped,
/// the transport events that settle them).
class TransferEngine {
 public:
  explicit TransferEngine(Transport* transport);
  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  /// Registers a remote endpoint; the returned id addresses it in requests.
  SegmentId register_segment(Segment segment);

  /// Idempotent per-node registration for sim transports: returns the
  /// existing segment for `node` or registers a fresh one.
  SegmentId ensure_node_segment(net::NodeId node);

  /// nullptr for an unknown id.
  const Segment* segment(SegmentId id) const;

  /// Submits a batch (deferred launch — see BatchHandle). Requests must be
  /// non-empty; unknown target segments settle as kRejected at launch.
  BatchHandle submit_batch(std::vector<TransferRequest> requests,
                           BatchOptions options = {});

  /// Single-request convenience over submit_batch().
  BatchHandle submit(TransferRequest request, BatchOptions options = {});

  /// Batches submitted but not yet fully settled — the chaos leak audit
  /// holds this at zero after every drain.
  std::size_t batches_inflight() const { return batches_inflight_; }

  Transport* transport() const { return transport_; }

 private:
  friend class detail::BatchState;
  BatchHandle open_batch(std::size_t size, BatchOptions options);
  void on_batch_settled();

  Transport* transport_;
  std::vector<Segment> segments_;  // id - 1 indexed
  std::vector<SegmentId> node_segments_;  // by node id; 0 = none yet
  std::size_t batches_inflight_ = 0;
  // obs handles (null when recording is disabled at construction).
  obs::Counter* obs_batches_ = nullptr;
  obs::Counter* obs_requests_ = nullptr;
  obs::Gauge* obs_inflight_ = nullptr;
};

}  // namespace droute::transfer
