// BatchScheduler — the operational artifact the paper gestures at:
// "Universities and institutions with the appropriate means can provide
// routing detours" (Sec I). A site operator queues upload jobs; the
// scheduler bounds concurrency so the DTN is not overrun, honours
// priorities (FIFO within a priority), and reports per-job outcomes and
// the makespan.
//
// Routing is not the scheduler's business: each job names the provider's
// transfer::DetourEngine and the ctrl::Steering (a Controller, or a
// StaticSteering pinning the paper's best route) that picks the session's
// relay chain. Each job runs as a sim::Task over DetourEngine::steered_task,
// and its outcome records the Decision that session rode.
//
// Lifetime: engines and steerings must outlive every job that names them.
// The destructor cancels in-flight jobs and steps the simulator until they
// unwind, so a scheduler must be destroyed before its Simulator
// (DESIGN.md §10).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ctrl/steering.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "transfer/detour.h"

namespace droute::ctrl {

struct TransferJob {
  std::string id;  // unique, caller-chosen
  int priority = 0;  // higher runs earlier
  net::NodeId client = net::kInvalidNode;
  transfer::DetourEngine& engine;  // binds the provider
  Steering& steering;              // picks the session's relay chain
  transfer::FileSpec file;
};

struct JobOutcome {
  std::string id;
  Decision decision;  // the steering decision the session rode
  double started_at = 0.0;
  double finished_at = 0.0;
  bool success = false;
  std::string error;

  double duration_s() const { return finished_at - started_at; }
};

class BatchScheduler {
 public:
  /// Runs at most `max_concurrent` jobs at once on `simulator`'s clock.
  BatchScheduler(sim::Simulator& simulator, int max_concurrent);
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueues a job. Rejected (false) on an empty or duplicate id, or an
  /// empty file.
  bool submit(TransferJob job);

  /// Starts work (idempotent); newly submitted jobs auto-start while the
  /// scheduler is active and below its concurrency bound.
  void start();

  bool idle() const { return running_ == 0 && queue_.empty(); }
  int in_flight() const { return running_; }
  std::size_t queued() const { return queue_.size(); }

  /// In settle order.
  const std::vector<JobOutcome>& outcomes() const { return outcomes_; }

  /// Simulated seconds from the first start to the last completion; 0 if
  /// no job has finished.
  double makespan_s() const;

 private:
  void pump();
  sim::Task<void> run_job(TransferJob job);

  sim::Simulator* simulator_;
  int max_concurrent_;
  // Highest priority first; equal keys keep insertion order (FIFO).
  std::multimap<int, TransferJob, std::greater<>> queue_;
  std::set<std::string> seen_ids_;
  std::vector<sim::Task<void>> jobs_;  // analyze: allow(coroutine-task-field) — the destructor cancels and drains every job, and owners destroy the scheduler before its Simulator (header contract)
  int running_ = 0;
  bool active_ = false;
  bool pumping_ = false;
  std::vector<JobOutcome> outcomes_;
  std::optional<double> first_start_;
  double last_finish_ = 0.0;
};

}  // namespace droute::ctrl
