#include "ctrl/scheduler.h"

#include <algorithm>
#include <utility>

#include "check/contract.h"

namespace droute::ctrl {

BatchScheduler::BatchScheduler(sim::Simulator& simulator, int max_concurrent)
    : simulator_(&simulator), max_concurrent_(max_concurrent) {
  DROUTE_CHECK(max_concurrent_ >= 1, "need concurrency >= 1");
}

BatchScheduler::~BatchScheduler() {
  // Launch nothing more; cancel what is in flight and step until every
  // cancelled job has unwound (cancellation completes synchronously or
  // within already-scheduled events, so this terminates).
  active_ = false;
  for (sim::Task<void>& job : jobs_) job.cancel();
  while (running_ > 0 && simulator_->step()) {
  }
}

bool BatchScheduler::submit(TransferJob job) {
  if (job.file.bytes == 0 || job.id.empty() ||
      !seen_ids_.insert(job.id).second) {
    return false;
  }
  const int priority = job.priority;
  queue_.emplace(priority, std::move(job));
  pump();
  return true;
}

void BatchScheduler::start() {
  active_ = true;
  pump();
}

void BatchScheduler::pump() {
  // A job that settles before its first suspension re-enters pump() from
  // inside run_job(); the guard turns that into another turn of this
  // loop, so the stack stays flat however many jobs settle inline.
  if (pumping_ || !active_) return;
  pumping_ = true;
  std::erase_if(jobs_, [](const sim::Task<void>& job) { return job.done(); });
  while (running_ < max_concurrent_ && !queue_.empty()) {
    auto node = queue_.extract(queue_.begin());
    ++running_;
    sim::Task<void> job = run_job(std::move(node.mapped()));
    if (!job.done()) jobs_.push_back(std::move(job));
  }
  pumping_ = false;
}

sim::Task<void> BatchScheduler::run_job(TransferJob job) {
  JobOutcome outcome;
  outcome.id = job.id;
  outcome.started_at = simulator_->now();
  if (!first_start_) first_start_ = outcome.started_at;

  auto session =
      job.engine.steered_task(job.client, std::move(job.file), job.steering);
  const auto joined = co_await session;
  outcome.finished_at = simulator_->now();
  if (joined.ok()) {
    outcome.decision = joined.value().decision;
    outcome.success = joined.value().success;
    outcome.error = joined.value().error;
  } else {
    outcome.error = joined.error().message;
  }
  last_finish_ = std::max(last_finish_, outcome.finished_at);
  outcomes_.push_back(std::move(outcome));
  --running_;
  pump();
}

double BatchScheduler::makespan_s() const {
  if (!first_start_ || outcomes_.empty()) return 0.0;
  return last_finish_ - *first_start_;
}

}  // namespace droute::ctrl
