#ifndef MIRABEL_EDMS_POOL_EXECUTOR_H_
#define MIRABEL_EDMS_POOL_EXECUTOR_H_

#include <functional>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "edms/worker_pool.h"
#include "scheduling/executor.h"

namespace mirabel::edms {

/// Runs a portfolio race's members as strands of a shared WorkerPool instead
/// of spawning one thread per member: each task gets its own strand (tasks
/// are independent, so serialization per strand costs nothing) and the
/// work-stealing pool spreads the strands across its workers alongside
/// whatever gate processing is in flight.
///
/// Deadlock contract: RunAll blocks on the posted futures, so a
/// PortfolioScheduler wired to this executor must NOT be invoked from one of
/// the pool's own worker threads — with every worker blocked inside RunAll
/// nobody is left to run the members. EdmsEngine drives schedulers from its
/// gate-close path (off-pool), which satisfies this; see
/// tests/portfolio_scheduler_test.cc for the wiring.
class WorkerPoolExecutor : public scheduling::Executor {
 public:
  /// `pool` must outlive the executor and every RunAll call.
  explicit WorkerPoolExecutor(WorkerPool* pool) : pool_(pool) {}

  void RunAll(std::vector<std::function<void()>> tasks) override {
    std::vector<std::unique_ptr<WorkerPool::Strand>> strands;
    std::vector<std::future<void>> futures;
    strands.reserve(tasks.size());
    futures.reserve(tasks.size());
    for (auto& task : tasks) {
      strands.push_back(pool_->CreateStrand());
      futures.push_back(strands.back()->Post(std::move(task)));
    }
    for (auto& future : futures) future.get();
  }

 private:
  WorkerPool* pool_;
};

}  // namespace mirabel::edms

#endif  // MIRABEL_EDMS_POOL_EXECUTOR_H_
