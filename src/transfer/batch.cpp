#include "transfer/batch.h"

#include <utility>

#include "check/contract.h"
#include "obs/recorder.h"
#include "sim/task.h"

namespace droute::transfer {
namespace detail {

namespace {
// Reason stamped on requests a batch never handed to the transport; engines
// compose it into their "<leg> flow rejected: " errors.
constexpr const char* kCancelledBeforeStart = "transfer cancelled before start";
}  // namespace

BatchState::BatchState(TransferEngine* engine, Transport* transport,
                       std::size_t size, BatchOptions options)
    : engine_(engine), transport_(transport), options_(options) {
  DROUTE_CHECK(size > 0, "batch must contain at least one request");
  if (size > 1) many_.reserve(size);
}

void BatchState::release(BatchState* state) {
  if (--state->refs_ == 0) delete state;  // lint: allow(raw-new) — counted ownership, see BatchState
}

void BatchState::add(TransferRequest request) {
  DROUTE_CHECK(!launched_, "request added to a launched batch");
  if (many_.capacity() == 0) {  // a one-request batch keeps its slot inline
    DROUTE_CHECK(slots_.empty(), "one-request batch got a second request");
    one_.request = std::move(request);
    slots_ = std::span<Slot>(&one_, 1);
    return;
  }
  DROUTE_CHECK(many_.size() < many_.capacity(), "batch over its size");
  many_.push_back(Slot{std::move(request), {}, Transport::kNoOp});
  slots_ = many_;
}

const RequestStatus& BatchState::status(std::size_t i) const {
  DROUTE_CHECK(i < slots_.size(), "request index out of range");
  return slots_[i].status;
}

void BatchState::launch() {
  if (launched_ || cancelled_) return;
  launched_ = true;
  pump();
  maybe_finish();
}

void BatchState::pump() {
  while (next_to_start_ < slots_.size() && !cancelled_ &&
         (options_.concurrency == 0 || in_flight_ < options_.concurrency)) {
    const std::size_t i = next_to_start_++;
    start_one(i);
  }
}

void BatchState::start_one(std::size_t i) {
  Slot& slot = slots_[i];
  // pump() starts only next_to_start_, and both cancel paths move it past
  // every slot first, so no settled slot is ever started.
  DROUTE_DCHECK(!slot.status.settled(), "starting a settled request");
  const Segment* target = engine_->segment(slot.request.target_id);
  if (target == nullptr) {
    settle(i, RequestState::kRejected, "unknown target segment", 0);
    return;
  }
  slot.status.start_s = transport_->now();
  auto op = transport_->start(*target, slot.request,
                              Transport::CompletionFn{this, i});
  if (!op.ok()) {
    settle(i, RequestState::kRejected, op.error().message, 0);
    return;
  }
  slot.op = op.value();
  slot.status.state = RequestState::kInFlight;
  // A dropped BatchHandle still settles (and releases the engine's inflight
  // accounting) once every started request finishes.
  if (in_flight_++ == 0) retain();
}

void BatchState::on_complete(std::size_t i, const Transport::Completion& done) {
  Slot& slot = slots_[i];
  if (slot.status.settled()) return;  // already cancelled pre-delivery
  // Held for this call: resuming the waiter below may drop the last handle.
  const BatchHandle hold(this);
  slot.op = Transport::kNoOp;
  if (--in_flight_ == 0) release(this);  // the in-flight self-reference
  switch (done.fate) {
    case TransferFate::kCompleted:
      settle(i, RequestState::kCompleted, done.error, done.bytes);
      break;
    case TransferFate::kAborted:
      settle(i, RequestState::kAborted, done.error, done.bytes);
      break;
    case TransferFate::kLinkFailed:
      settle(i, RequestState::kLinkFailed, done.error, done.bytes);
      break;
  }
  pump();  // a freed concurrency slot starts the next pending request
  maybe_finish();
}

void BatchState::settle(std::size_t i, RequestState state, std::string error,
                        std::uint64_t bytes) {
  Slot& slot = slots_[i];
  DROUTE_CHECK(!slot.status.settled(), "request settled twice");
  const bool never_started = slot.status.state == RequestState::kPending &&
                             state == RequestState::kCancelled;
  slot.status.state = state;
  slot.status.error = std::move(error);
  slot.status.bytes = bytes;
  slot.status.end_s = transport_->now();
  if (never_started) slot.status.start_s = slot.status.end_s;
  ++settled_;
  if (state == RequestState::kCompleted) ++completed_;
}

void BatchState::cancel() {
  if (cancelled_) return;
  cancelled_ = true;
  if (!launched_) {
    cancel_before_start_locked();
    return;
  }
  // The aborts below resume the awaiter, whose frame may drop the last
  // handle before this function is done.
  const BatchHandle hold(this);
  // Index order: first settle everything not yet started (so completions
  // delivered during the aborts cannot start new work), then abort the
  // in-flight requests.
  for (std::size_t i = next_to_start_; i < slots_.size(); ++i) {
    if (!slots_[i].status.settled()) {
      settle(i, RequestState::kCancelled, kCancelledBeforeStart, 0);
    }
  }
  next_to_start_ = slots_.size();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].status.state == RequestState::kInFlight &&
        slots_[i].op != Transport::kNoOp) {
      // Event-driven transports settle the slot synchronously (kAborted)
      // inside this call; blocking ones at the next drain.
      transport_->cancel(slots_[i].op);
    }
  }
  maybe_finish();
}

void BatchState::cancel_before_start() {
  if (launched_ || cancelled_) return;
  cancelled_ = true;
  cancel_before_start_locked();
}

void BatchState::cancel_before_start_locked() {
  launched_ = true;  // nothing may launch after this
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].status.settled()) {
      settle(i, RequestState::kCancelled, kCancelledBeforeStart, 0);
    }
  }
  next_to_start_ = slots_.size();
  maybe_finish();
}

void BatchState::set_waiter(std::coroutine_handle<> waiter,
                            sim::TaskPromiseBase* promise) {
  DROUTE_CHECK(!waiter_, "batch already has a waiter");
  DROUTE_CHECK(!all_settled(), "waiter set on a settled batch");
  waiter_ = waiter;
  waiter_promise_ = promise;
}

void BatchState::maybe_finish() {
  if (!launched_) return;
  if (all_settled() && !finished_) {
    finished_ = true;
    engine_->on_batch_settled();
  }
  if (all_settled() && waiter_) {
    const std::coroutine_handle<> waiter = std::exchange(waiter_, nullptr);
    if (waiter_promise_ != nullptr) {
      std::exchange(waiter_promise_, nullptr)->disarm_canceller();
    }
    waiter.resume();
  }
}

void BatchState::drain_blocking() {
  launch();
  while (!all_settled()) {
    if (!transport_->drain_one()) {
      DROUTE_CHECK(all_settled(),
                   "transport has nothing to drain but batch is unsettled");
      break;
    }
  }
}

}  // namespace detail

bool BatchHandle::wait() {
  state_->drain_blocking();
  return state_->all_completed();
}

TransferEngine::TransferEngine(Transport* transport) : transport_(transport) {
  DROUTE_CHECK(transport != nullptr, "TransferEngine needs a transport");
  obs_batches_ = obs::counter("transfer.batches_submitted_total");
  obs_requests_ = obs::counter("transfer.batch_requests_total");
  obs_inflight_ = obs::gauge("transfer.batch_inflight");
}

SegmentId TransferEngine::register_segment(Segment segment) {
  segments_.push_back(std::move(segment));
  return static_cast<SegmentId>(segments_.size());
}

SegmentId TransferEngine::ensure_node_segment(net::NodeId node) {
  DROUTE_CHECK(node >= 0, "ensure_node_segment: invalid node");
  const auto index = static_cast<std::size_t>(node);
  if (index >= node_segments_.size()) node_segments_.resize(index + 1);
  SegmentId& id = node_segments_[index];
  if (id != kInvalidSegment) return id;
  Segment segment;
  segment.name = "node-" + std::to_string(node);
  segment.node = node;
  id = register_segment(std::move(segment));
  return id;
}

const Segment* TransferEngine::segment(SegmentId id) const {
  if (id == kInvalidSegment || id > segments_.size()) return nullptr;
  return &segments_[id - 1];
}

BatchHandle TransferEngine::open_batch(std::size_t size,
                                       BatchOptions options) {
  BatchHandle batch(new detail::BatchState(this, transport_, size, options));  // lint: allow(raw-new) — counted ownership, see BatchState
  obs::add(obs_batches_);
  obs::add(obs_requests_, size);
  ++batches_inflight_;
  obs::add(obs_inflight_, 1.0);
  return batch;
}

BatchHandle TransferEngine::submit_batch(std::vector<TransferRequest> requests,
                                         BatchOptions options) {
  BatchHandle batch = open_batch(requests.size(), options);
  for (TransferRequest& request : requests) {
    batch.state_->add(std::move(request));
  }
  return batch;
}

BatchHandle TransferEngine::submit(TransferRequest request,
                                   BatchOptions options) {
  BatchHandle batch = open_batch(1, options);
  batch.state_->add(std::move(request));
  return batch;
}

void TransferEngine::on_batch_settled() {
  DROUTE_CHECK(batches_inflight_ > 0, "batch settled twice");
  --batches_inflight_;
  obs::add(obs_inflight_, -1.0);
}

}  // namespace droute::transfer
