#include "sched/scheduler.hpp"

#include <algorithm>
#include <array>
#include <tuple>
#include <utility>
#include <vector>

#include "sched/cp_scheduler.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/greedy_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/profiler.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace pipesched {

const char* scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Original:
      return "original";
    case SchedulerKind::List:
      return "list";
    case SchedulerKind::Greedy:
      return "greedy";
    case SchedulerKind::Optimal:
      return "optimal";
    case SchedulerKind::Exhaustive:
      return "exhaustive";
  }
  return "?";
}

const char* optimal_backend_name(OptimalBackend backend) {
  switch (backend) {
    case OptimalBackend::Bnb:
      return "bnb";
    case OptimalBackend::Cp:
      return "cp";
  }
  return "?";
}

bool parse_optimal_backend(const std::string& name, OptimalBackend* out) {
  if (name == "bnb") {
    *out = OptimalBackend::Bnb;
  } else if (name == "cp") {
    *out = OptimalBackend::Cp;
  } else {
    return false;
  }
  return true;
}

ScheduleResult run_scheduler(SchedulerKind kind, const Machine& machine,
                             const DepGraph& dag, const SearchConfig& config,
                             const PipelineState& initial) {
  // Named after the scheduler so the timeline distinguishes e.g. the
  // list-schedule seed pass from the optimal search.
  TraceSpan trace_span(scheduler_kind_name(kind));
  Timer wall;
  ScheduleResult result;
  switch (kind) {
    case SchedulerKind::Optimal:
      return run_optimal_backend(machine, dag, config, initial);
    case SchedulerKind::Exhaustive:
      return exhaustive_search(machine, dag, config, initial);
    case SchedulerKind::Original: {
      // Keep the front-end tuple order and let the timing engine insert
      // whatever NOPs it needs: every experiment's "before" column.
      std::vector<TupleIndex> order(dag.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<TupleIndex>(i);
      }
      result.schedule = evaluate_order(machine, dag, order, initial);
      break;
    }
    case SchedulerKind::List:
      result.schedule = list_schedule(machine, dag, initial);
      break;
    case SchedulerKind::Greedy:
      result.schedule = greedy_schedule(machine, dag, initial);
      break;
  }
  // A heuristic's one schedule is both its seed and its best; every
  // search counter keeps its default.
  result.stats.initial_nops = result.schedule.total_nops();
  result.stats.best_nops = result.stats.initial_nops;
  result.stats.seconds = wall.seconds();
  return result;
}

ScheduleResult run_optimal_backend(const Machine& machine, const DepGraph& dag,
                                   const SearchConfig& config,
                                   const PipelineState& initial) {
  switch (config.backend) {
    case OptimalBackend::Bnb:
      return optimal_schedule(machine, dag, config, initial);
    case OptimalBackend::Cp:
      return cp_schedule(machine, dag, config, initial);
  }
  throw Error("unknown optimal backend");
}

std::vector<int> equivalence_classes(const Machine& machine,
                                     const DepGraph& dag, bool strong,
                                     bool pressure_constrained) {
  const std::size_t n = dag.size();
  std::vector<int> cls(n, -1);
  int next = 1;

  // Paper rule: one shared class (id 0) for null instructions — no unit,
  // no predecessors, AND no dependents. All three are required for the
  // position-swap argument: a sigma-empty source with successors is not
  // interchangeable with its classmates (issuing it early is what lets
  // its consumer start early), and one with predecessors can stall on
  // producer latency where a classmate would not. The cross-solver
  // differential oracle caught the successor case as a missed optimum.
  // The rule is cost-sound but NOT pressure-sound (reordering null defs
  // shifts live ranges), so it is disabled under a register ceiling; the
  // strong automorphism classes below remain sound either way.
  if (!pressure_constrained) {
    for (std::size_t i = 0; i < n; ++i) {
      const Opcode op = dag.block().tuple(static_cast<TupleIndex>(i)).op;
      if (!machine.uses_pipeline(op) &&
          dag.preds(static_cast<TupleIndex>(i)).empty() &&
          dag.succs(static_cast<TupleIndex>(i)).empty()) {
        cls[i] = 0;
      }
    }
  }
  if (!strong) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cls[i] < 0) cls[i] = next++;
    }
    return cls;
  }

  // Strong classes for the rest: quadratic scan is fine at block sizes.
  // Successor lists hold no duplicates, so two tuples have equal
  // successor sets when the lists are equally long and every successor of
  // one has the other among its predecessors.
  const auto same_succs = [&](std::size_t i, std::size_t j) {
    const auto succs_i = dag.succs(static_cast<TupleIndex>(i));
    return succs_i.size() == dag.succs(static_cast<TupleIndex>(j)).size() &&
           std::all_of(succs_i.begin(), succs_i.end(), [&](TupleIndex s) {
             return dag.pred_set(s).test(j);
           });
  };
  // Under a register ceiling, classmates must additionally be
  // liveness-interchangeable: swapping their issue positions replays the
  // same live-set trajectory. Identical pred *sets* are not enough —
  // `Add 1, 1` consumes two remaining uses of tuple 1 where `Neg 1`
  // consumes one — so require the operand-ref multiset and result-ness
  // to match too. (Use counts of i and j agree automatically: with equal
  // succ sets every common successor references each exactly once.)
  const auto pressure_signature = [&](std::size_t i) {
    const Tuple& t = dag.block().tuple(static_cast<TupleIndex>(i));
    TupleIndex lo = t.a.is_ref() ? t.a.ref : -1;
    TupleIndex hi = t.b.is_ref() ? t.b.ref : -1;
    if (lo > hi) std::swap(lo, hi);
    return std::tuple<bool, TupleIndex, TupleIndex>(
        opcode_has_result(t.op), lo, hi);
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (cls[i] >= 0) continue;
    cls[i] = next;
    const auto& units_i = machine.pipelines_for(
        dag.block().tuple(static_cast<TupleIndex>(i)).op);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (cls[j] >= 0) continue;
      const auto& units_j = machine.pipelines_for(
          dag.block().tuple(static_cast<TupleIndex>(j)).op);
      if (units_i == units_j &&
          dag.pred_set(static_cast<TupleIndex>(i)) ==
              dag.pred_set(static_cast<TupleIndex>(j)) &&
          same_succs(i, j) &&
          (!pressure_constrained ||
           pressure_signature(i) == pressure_signature(j))) {
        cls[j] = next;
      }
    }
    ++next;
  }
  return cls;
}

std::vector<TupleIndex> seed_order(const DepGraph& dag,
                                   const SearchConfig& config) {
  if (config.seed_with_list_schedule) return list_schedule_order(dag);
  std::vector<TupleIndex> order(dag.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<TupleIndex>(i);
  }
  return order;
}

bool breaks_register_ceiling(const DepGraph& dag,
                             const std::vector<TupleIndex>& order,
                             const SearchConfig& config) {
  LiveValues live(dag, config.max_live_registers);
  for (TupleIndex t : order) {
    if (live.blocks(t)) return true;
    live.push(t);
  }
  return false;
}

SearchBudget::SearchBudget(const SearchConfig& config, const char* label)
    : monitor_(label),
      lambda_(config.curtail_lambda),
      has_deadline_(config.deadline_seconds > 0) {
  if (has_deadline_) {
    deadline_at_ =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(config.deadline_seconds));
  }
}

void SearchBudget::tick(const SearchStats& stats, int incumbent_nops,
                        std::size_t depth, std::uint64_t cache_probes,
                        std::uint64_t cache_hits) {
  if (has_deadline_ && !deadline_expired_ &&
      std::chrono::steady_clock::now() >= deadline_at_) {
    deadline_expired_ = true;
  }
  monitor_.heartbeat(stats.nodes_expanded, incumbent_nops,
                     static_cast<std::uint32_t>(depth), cache_probes,
                     cache_hits);
}

bool SearchBudget::observed() {
  return trace_enabled() || profiler_enabled() || watchdog_enabled();
}

std::vector<int> latency_heights(const Machine& machine, const DepGraph& dag) {
  const std::size_t n = dag.size();
  std::vector<int> lh(n, 0);
  for (std::size_t ri = n; ri-- > 0;) {
    const auto index = static_cast<TupleIndex>(ri);
    const int step =
        std::max(1, machine.latency_for(dag.block().tuple(index).op));
    for (TupleIndex s : dag.succs(index)) {
      lh[ri] = std::max(lh[ri], step + lh[static_cast<std::size_t>(s)]);
    }
  }
  return lh;
}

void flush_search_metrics(const SearchStats& stats) {
  if (!metrics_enabled()) return;
  static Counter& runs = metrics_counter(
      "ps_search_runs_total", {}, "Optimal-backend searches completed");
  static const std::array<Counter*, kSearchCounterCount> counters = [] {
    std::array<Counter*, kSearchCounterCount> out{};
    for (std::size_t i = 0; i < kSearchCounterCount; ++i) {
      const SearchCounter& c = kSearchCounters[i];
      MetricLabels labels;
      if (c.label[0] != '\0') labels.emplace_back(c.family.label, c.label);
      out[i] = &metrics_counter(c.family.name, labels, c.family.help);
    }
    return out;
  }();
  static const char* kCurtailHelp =
      "Searches truncated before exhausting the space, by expired budget";
  static Counter& curtailed_lambda = metrics_counter(
      "ps_search_curtailed_total", {{"reason", "lambda"}}, kCurtailHelp);
  static Counter& curtailed_deadline = metrics_counter(
      "ps_search_curtailed_total", {{"reason", "deadline"}}, kCurtailHelp);
  static LogHistogram& seconds = metrics_histogram(
      "ps_search_seconds", {}, "Wall-clock seconds per search");

  runs.increment();
  for (std::size_t i = 0; i < kSearchCounterCount; ++i) {
    counters[i]->add(stats.*kSearchCounters[i].member);
  }
  if (stats.curtail_reason == CurtailReason::Lambda) {
    curtailed_lambda.increment();
  } else if (stats.curtail_reason == CurtailReason::Deadline) {
    curtailed_deadline.increment();
  }
  seconds.observe(stats.seconds);
}

}  // namespace pipesched
