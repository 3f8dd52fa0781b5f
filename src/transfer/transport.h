// Transport: the backend seam of the batched TransferEngine (DESIGN.md §15).
//
// A Transport moves one TransferRequest's bytes to (or from) a registered
// Segment and reports how the attempt ended. Two families implement it:
//
//   * event-driven (SimTransport): start() schedules work on the simulated
//     fabric and the completion callback fires from inside the sim event
//     loop — possibly synchronously during cancel();
//   * blocking (WireTransport): start() hands the request to a worker and
//     completions are delivered only when the *joining* caller pumps
//     drain_one(), so batch state never needs cross-thread locking.
//
// The split keeps BatchState single-threaded in both worlds: whoever owns
// the batch (a sim::Task or a blocking wait()) is the only thread that ever
// observes request statuses mutate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/result.h"

namespace droute::sim {
class Simulator;
}  // namespace droute::sim

namespace droute::transfer {

struct Segment;
struct TransferRequest;

/// How one request ended. Mirrors RequestState's terminal values.
enum class TransferFate : std::uint8_t {
  kCompleted,   // all bytes moved and verified
  kAborted,     // cancelled while in flight
  kLinkFailed,  // the path (or socket) died mid-transfer
};

class Transport {
 public:
  /// Opaque in-flight operation handle; 0 is "no operation".
  using OpId = std::uint64_t;
  static constexpr OpId kNoOp = 0;

  struct Completion {
    TransferFate fate = TransferFate::kCompleted;
    std::uint64_t bytes = 0;  // wire bytes actually moved
    std::string error;        // detail for non-completed fates (may be empty)
  };

  /// Receives the settlements of the operations started on its behalf.
  class Sink {
   public:
    virtual void on_complete(std::size_t index,
                             const Completion& completion) = 0;

   protected:
    ~Sink() = default;
  };

  /// Where one started operation reports how it ended. Two words and
  /// trivially copyable, so a transport carries it inside its own
  /// completion closure without allocating.
  struct CompletionFn {
    Sink* sink = nullptr;
    std::size_t index = 0;
    void operator()(const Completion& completion) const {
      sink->on_complete(index, completion);
    }
  };

  virtual ~Transport() = default;

  /// Starts moving `request` against `target`. On acceptance the returned
  /// OpId identifies the operation and `done` fires exactly once when it
  /// settles; a synchronous refusal returns the reason instead and `done`
  /// never fires.
  [[nodiscard]] virtual util::Result<OpId> start(const Segment& target,
                                                 const TransferRequest& request,
                                                 CompletionFn done) = 0;

  /// Requests cancellation of an in-flight operation. Event-driven
  /// transports complete it synchronously with kAborted; blocking
  /// transports abort it at the next safe point (delivered via drain_one).
  virtual void cancel(OpId op) = 0;

  /// Blocking transports: park until one started operation finishes, fire
  /// its completion on the calling thread, return true. Event-driven
  /// transports return false (completions arrive through the event loop).
  virtual bool drain_one() { return false; }

  /// Transport-local clock used to stamp request statuses: simulated
  /// seconds for SimTransport, wall seconds for WireTransport.
  virtual double now() const = 0;

  /// The simulator driving an event-driven transport; nullptr for blocking
  /// transports (batches over them are joined with wait(), not co_await).
  virtual sim::Simulator* simulator() const { return nullptr; }
};

}  // namespace droute::transfer
