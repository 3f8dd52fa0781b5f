// SimTransport: the event-driven Transport over net::Fabric flows, and the
// one place outside src/net/ that starts a fabric flow.
//
// One TransferRequest maps to exactly one fabric flow — WRITE flows
// source_node -> segment.node, READ the reverse — started at start() time
// (never earlier: the batch layer defers to the awaiter, which is what
// keeps flow-id allocation order, and therefore the whole event schedule,
// tied to the co_await points of the engines). cancel() is
// Fabric::abort_flow, which fires the completion synchronously with
// kAborted, so a cancelled batch settles before cancel() returns and
// leaves no pending sim events.
#pragma once

#include "net/fabric.h"
#include "transfer/batch.h"
#include "transfer/transport.h"

namespace droute::transfer {

class SimTransport final : public Transport {
 public:
  explicit SimTransport(net::Fabric* fabric) : fabric_(fabric) {}

  [[nodiscard]] util::Result<OpId> start(const Segment& target,
                                         const TransferRequest& request,
                                         CompletionFn done) override;
  void cancel(OpId op) override { fabric_->abort_flow(op); }
  double now() const override { return fabric_->simulator()->now(); }
  sim::Simulator* simulator() const override { return fabric_->simulator(); }

  net::Fabric* fabric() const { return fabric_; }

 private:
  net::Fabric* fabric_;
};

}  // namespace droute::transfer
