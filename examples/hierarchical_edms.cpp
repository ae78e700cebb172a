// A miniature Europe: the 3-level EDMS hierarchy of the paper's Fig. 2 —
// prosumers issuing flex-offers, BRPs negotiating/aggregating/forwarding,
// and a TSO scheduling the macro offers — simulated tick by tick on the
// slice clock, including network latency and message loss. Pass a shard
// count as the first argument to partition every aggregating node's engine
// (default 1 shard per node).
//
// Every gate's greedy run is capped by iterations, not by wall-clock time,
// so the output depends on neither the host's speed nor the shard count
// (beyond the first line). Its ctest entries compare stdout with
// examples/expected/hierarchical_edms_<shards>.txt.
#include <cstdio>
#include <cstdlib>

#include "node/simulation.h"

using mirabel::node::EdmsSimulation;
using mirabel::node::SimulationConfig;
using mirabel::node::SimulationReport;

/// Greedy iterations per scheduling run; deep enough that greedy's own stop
/// rule ends most runs.
constexpr int kGreedyIterations = 4096;

int main(int argc, char** argv) {
  size_t shards = 1;
  if (argc > 1) {
    long parsed = std::strtol(argv[1], nullptr, 10);
    shards = parsed < 1 ? 1 : (parsed > 64 ? 64 : static_cast<size_t>(parsed));
  }
  std::printf("engine shards per aggregating node: %zu\n\n", shards);
  // 2-level deployment first: BRPs schedule locally.
  {
    SimulationConfig config;
    config.num_brps = 3;
    config.prosumers_per_brp = 25;
    config.days = 2;
    config.use_tso = false;
    config.offers_per_day = 4.0;
    config.seed = 11;
    config.shards_per_node = shards;
    config.scheduler_budget_s = 0.0;
    config.scheduler_max_iterations = kGreedyIterations;
    std::puts("== 2-level EDMS (prosumers + BRPs) ==");
    EdmsSimulation sim(config);
    SimulationReport report = sim.Run();
    std::printf("%s\n\n", report.ToString().c_str());
  }

  // 3-level deployment: BRPs forward macro offers to the TSO (the paper §2:
  // "the process is essentially repeated at a higher level").
  {
    SimulationConfig config;
    config.num_brps = 3;
    config.prosumers_per_brp = 25;
    config.days = 2;
    config.use_tso = true;
    config.offers_per_day = 4.0;
    config.seed = 11;
    config.shards_per_node = shards;
    config.scheduler_budget_s = 0.0;
    config.scheduler_max_iterations = kGreedyIterations;
    std::puts("== 3-level EDMS (prosumers + BRPs + TSO) ==");
    EdmsSimulation sim(config);
    SimulationReport report = sim.Run();
    std::printf("%s\n\n", report.ToString().c_str());
  }

  // Degraded network: latency + 5% message loss. The system degrades
  // gracefully — lost schedules become fallbacks, never broken state
  // (paper §1's fault-tolerance claim).
  {
    SimulationConfig config;
    config.num_brps = 2;
    config.prosumers_per_brp = 20;
    config.days = 2;
    config.use_tso = false;
    config.offers_per_day = 4.0;
    config.seed = 11;
    config.bus.latency_slices = 1;
    config.bus.drop_probability = 0.05;
    config.shards_per_node = shards;
    config.scheduler_budget_s = 0.0;
    config.scheduler_max_iterations = kGreedyIterations;
    std::puts("== 2-level EDMS with 5% message loss ==");
    EdmsSimulation sim(config);
    SimulationReport report = sim.Run();
    std::printf("%s\n", report.ToString().c_str());
  }
  return 0;
}
