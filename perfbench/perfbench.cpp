// perfbench — layered end-to-end benchmark of the pipesched back end.
//
//   perfbench --workload <corpus|large_blocks|regs_tight>
//             [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//             [--inject-fault]
//
// One run = set-up, then closed-loop passes over the workload's block set
// through the public entry points users call (compile_source, or parse +
// codegen + compile_with_register_limit), then the correctness gate.
//
//   set-up     inputs are generated from --seed (and selected, where the
//              workload selects) three times; setup_s is the median. None
//              of it is timed as compile work.
//   warm-up    one untimed pass; its outputs are checked, fingerprinted
//              and cross-checked like every other pass.
//   passes     timed passes until --seconds of pass time have elapsed
//              (at least two). Each worker takes its next block only when
//              its previous block is done. Every pass does the same work,
//              so time metrics use each block's best pass.
//   checks     after every pass, outside the timed region: the simulator
//              replays each schedule, the interpreter runs it, the
//              optimized block is compared with the unoptimized tuples,
//              and the register allocation is verified. A seeded sample of
//              proven-optimal blocks is re-solved by the CP backend.
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends half the
// time on untraced passes and half on traced passes, which call each
// layer's public function in pipeline order under a span recorded here,
// with the sampling profiler on; it reports the per-layer metrics, the
// layer-sum coverage of the untraced per-block time, and the tracing
// overhead. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit status is 0 only when every check passed.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/compiler.hpp"
#include "frontend/codegen.hpp"
#include "frontend/opt/passes.hpp"
#include "frontend/parser.hpp"
#include "ir/dag.hpp"
#include "ir/interp.hpp"
#include "regalloc/spill.hpp"
#include "sched/cp_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sim/simulator.hpp"
#include "synth/corpus.hpp"
#include "synth/generator.hpp"
#include "util/build_info.hpp"
#include "util/profiler.hpp"

namespace {

using namespace pipesched;

// ---------------------------------------------------------------------
// Clocks, host facts, small statistics
// ---------------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// CPU brand string from cpuid (no file reads).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // stop at the first NUL
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Run fn(worker, i) for i in [0, count) on `workers` threads, closed
/// loop: each worker takes its next index only when its previous one is
/// done. One worker runs inline on the calling thread. The first
/// exception a worker throws is rethrown here after every worker joined.
template <class Fn>
void closed_loop(std::size_t workers, std::size_t count, const Fn& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto work = [&](std::size_t worker) {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < count;) fn(worker, i);
    } catch (...) {
      next = count;  // stop handing out work
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  if (workers <= 1) {
    work(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(work, w);
    for (std::thread& t : threads) t.join();
  }
  if (error) std::rethrow_exception(error);
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Pipeline {
  Source,           ///< compile_source(text)
  RegisterLimited,  ///< parse + codegen, then compile_with_register_limit
};

struct Workload {
  std::string name;
  Pipeline pipeline = Pipeline::Source;
  CompileOptions compile;
  std::size_t workers = 1;  ///< closed-loop clients
  std::uint64_t crosscheck_every = 1;  ///< CP re-solves 1 in N optimal blocks
  std::vector<std::string> sources;
};

/// The paper's Table-7 experiment: 16,000 corpus_params blocks, lambda =
/// 50,000, critical-path lower bound on, B&B, one search thread per block,
/// nproc workers. --seed is the corpus base seed (0x5eed = the paper's).
Workload make_corpus(std::uint64_t seed) {
  Workload w;
  w.name = "corpus";
  w.workers = nproc();
  w.compile.search.curtail_lambda = 50000;
  w.compile.search.lower_bound_prune = true;
  w.crosscheck_every = 16;
  CorpusSpec spec;
  spec.base_seed = seed;
  for (const GeneratorParams& p : corpus_params(spec)) {
    w.sources.push_back(generate_source(p).to_string());
  }
  return w;
}

/// Large generated blocks, one at a time on one thread, paper protocol
/// with a fixed lambda: curtailed searches do a fixed amount of work.
/// Three strata, each filled with 64 blocks for every seed, so the mix of
/// outcomes (and with it the work per pass) barely moves with the seed:
/// wide blocks of 60..99 tuples over 18..24 variables, which the search
/// nearly always proves optimal; deep blocks of 100..159 tuples over 7..9
/// variables and big blocks of 160..250 tuples, which it nearly always
/// curtails at lambda. Candidates are generated and optimized in parallel
/// batches but accepted strictly in candidate order, so the chosen set
/// depends on the seed only.
Workload make_large_blocks(std::uint64_t seed) {
  Workload w;
  w.name = "large_blocks";
  w.compile.search.curtail_lambda = 10000;
  w.compile.search.lower_bound_prune = true;
  w.compile.registers = 64;  // ample for these blocks: no spill pressure
  w.crosscheck_every = 1;
  struct Stratum {
    int vars_lo, vars_hi, statements_lo, statements_hi, size_lo, size_hi;
  };
  static const Stratum kStrata[] = {
      {18, 24, 60, 200, 60, 99},
      {7, 9, 250, 600, 100, 159},
      {12, 24, 300, 600, 160, 250},
  };
  constexpr std::size_t kPerStratum = 64;
  constexpr std::size_t kStrataCount = std::size(kStrata);
  const std::uint64_t base = splitmix(seed ^ 0x1a26eb10c45ull);
  std::vector<std::string> chosen[kStrataCount];
  std::size_t full = 0;
  const std::size_t batch = 8 * nproc();
  for (std::size_t first = 0; full < kStrataCount; first += batch) {
    if (first > 200000) throw std::runtime_error("block selection ran out of candidates");
    std::vector<std::string> text(batch);
    std::vector<char> fits(batch);  // not vector<bool>: written concurrently
    closed_loop(nproc(), batch, [&](std::size_t, std::size_t k) {
      const std::uint64_t h = splitmix(base + first + k);
      const Stratum& s = kStrata[(first + k) % kStrataCount];
      GeneratorParams p;
      p.variables = s.vars_lo + static_cast<int>(h % static_cast<std::uint64_t>(
                                                         s.vars_hi - s.vars_lo + 1));
      p.statements = s.statements_lo +
                     static_cast<int>((h >> 8) % static_cast<std::uint64_t>(
                                                     s.statements_hi - s.statements_lo + 1));
      p.constants = 4;
      p.seed = h;
      const SourceProgram program = generate_source(p);
      const int n = static_cast<int>(run_standard_pipeline(generate_tuples(program)).size());
      fits[k] = n >= s.size_lo && n <= s.size_hi;
      text[k] = program.to_string();
    });
    for (std::size_t k = 0; k < batch; ++k) {
      auto& bucket = chosen[(first + k) % kStrataCount];
      if (!fits[k] || bucket.size() == kPerStratum) continue;
      bucket.push_back(std::move(text[k]));
      if (bucket.size() == kPerStratum) ++full;
    }
  }
  for (auto& bucket : chosen) {
    for (auto& source : bucket) w.sources.push_back(std::move(source));
  }
  return w;
}

/// Register-starved blocks over ~45-variable pools and a 16-register
/// file, one thread, B&B: the only workload that runs spill insertion,
/// pressure pruning and the no-incumbent fallback. Two fixed strata: 96
/// blocks of 60..300 statements, which need spill code and mostly end
/// without an incumbent, and 64 of 16..28 statements, which the
/// pressure-constrained search still proves optimal.
Workload make_regs_tight(std::uint64_t seed) {
  Workload w;
  w.name = "regs_tight";
  w.pipeline = Pipeline::RegisterLimited;
  w.compile.registers = 16;
  w.compile.search.curtail_lambda = 10000;
  w.crosscheck_every = 1;
  const std::uint64_t base = splitmix(seed ^ 0x4e6517a11ull);
  const auto add = [&](int count, int lo, int hi) {
    for (int i = 0; i < count; ++i) {
      GeneratorParams p;
      p.statements = lo + (hi - lo) * i / (count - 1);
      p.variables = 40 + i % 11;
      p.constants = 4;
      p.seed = splitmix(base + w.sources.size());
      w.sources.push_back(generate_source(p).to_string());
    }
  };
  add(96, 60, 300);
  add(64, 16, 28);
  return w;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "corpus") return make_corpus(seed);
  if (name == "large_blocks") return make_large_blocks(seed);
  if (name == "regs_tight") return make_regs_tight(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------
// One block through the public entry point (untraced) or layer by layer
// (traced)
// ---------------------------------------------------------------------

enum Layer {
  kParse,
  kCodegen,
  kOpt,
  kDag,
  kList,
  kSearch,
  kSpill,
  kLinearScan,
  kEmit,
  kLayers,
};

/// Span name and metric names per layer.
struct LayerNames {
  const char* span;
  const char* us;     ///< self time per block
  const char* share;  ///< share of the per-block (root span) time
};
constexpr LayerNames kLayerNames[kLayers] = {
    {"frontend.parse", "frontend.parse_us", "frontend.parse_share_pct"},
    {"frontend.codegen", "frontend.codegen_us", "frontend.codegen_share_pct"},
    {"opt", "opt.us", "opt.share_pct"},
    {"ir.dag", "ir.dag_us", "ir.dag_share_pct"},
    {"sched.list", "sched.list_us", "sched.list_share_pct"},
    {"sched.search", "sched.search_us", "sched.search_share_pct"},
    {"regalloc.spill", "regalloc.spill_us", "regalloc.spill_share_pct"},
    {"regalloc.linear_scan", "regalloc.linear_scan_us",
     "regalloc.linear_scan_share_pct"},
    {"asmout.emit", "asmout.emit_us", "asmout.emit_share_pct"},
};

struct BlockResult {
  std::string error;  ///< non-empty when the compile threw
  CompileResult compiled;
  int values_spilled = 0;
  double latency_s = 0;  ///< wall time of the block (traced: its root span)
  // Traced passes only:
  double layer_s[kLayers] = {};
  std::uint64_t tuples_in = 0;   ///< codegen output
  std::uint64_t tuples_out = 0;  ///< optimizer output
  std::uint64_t dag_edges = 0;
};

BlockResult compile_untraced(const Workload& w, const std::string& source) {
  BlockResult r;
  const double t0 = wall_now();
  try {
    if (w.pipeline == Pipeline::Source) {
      r.compiled = compile_source(source, w.compile);
    } else {
      RegisterLimitedResult limited = compile_with_register_limit(
          generate_tuples(parse_source(source)), w.compile);
      r.compiled = std::move(limited.compiled);
      r.values_spilled = limited.values_spilled;
    }
  } catch (const std::exception& e) {
    r.error = e.what()[0] ? e.what() : "exception";
  }
  r.latency_s = wall_now() - t0;
  return r;
}

/// One recorded span. layer == kLayers marks the per-block root span
/// that every layer span of the same block is a child of.
struct Span {
  std::uint32_t block = 0;
  std::uint8_t layer = 0;
  double start = 0;
  double end = 0;
};

/// Records a span for the enclosing scope and adds its duration to
/// `total`.
class SpanScope {
 public:
  SpanScope(std::vector<Span>& spans, double& total, std::uint32_t block, int layer)
      : spans_(spans), total_(total), block_(block), layer_(layer), start_(wall_now()) {}
  ~SpanScope() {
    const double end = wall_now();
    spans_.push_back({block_, static_cast<std::uint8_t>(layer_), start_, end});
    total_ += end - start_;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::vector<Span>& spans_;
  double& total_;
  std::uint32_t block_;
  int layer_;
  double start_;
};

/// The entry point's pipeline, one public layer call per span, in pipeline
/// order. Mirrors compile_source / compile_with_register_limit; the one
/// addition is the separate list_schedule call, which the search also
/// runs internally as its seed (so sched.list is left out of the layer
/// sum). On compile_source workloads the spill span holds only the
/// block_max_live pressure check, since compile_source never spills.
BlockResult compile_traced(const Workload& w, std::uint32_t index,
                           std::vector<Span>& spans) {
  BlockResult r;
  CompileResult& out = r.compiled;
  const Machine& machine = w.compile.machine;
  const int registers = w.compile.registers;
  const bool limited = w.pipeline == Pipeline::RegisterLimited;
  const auto span = [&](int layer) { return SpanScope(spans, r.layer_s[layer], index, layer); };
  try {
    SpanScope root(spans, r.latency_s, index, kLayers);
    SourceProgram program;
    BasicBlock tuples;
    {
      const SpanScope s = span(kParse);
      program = parse_source(w.sources[index]);
    }
    {
      const SpanScope s = span(kCodegen);
      tuples = generate_tuples(program);
    }
    {
      const SpanScope s = span(kOpt);
      out.block = run_standard_pipeline(tuples);
      if (!limited) out.block.validate();
    }
    r.tuples_in = tuples.size();
    r.tuples_out = out.block.size();
    if (limited) {
      const SpanScope s = span(kSpill);
      if (block_max_live(out.block) > registers) {
        SpillResult spilled = insert_spill_code(out.block, registers);
        out.block = std::move(spilled.block);
        r.values_spilled = spilled.values_spilled;
      }
    }
    std::optional<DepGraph> dag;
    {
      const SpanScope s = span(kDag);
      dag.emplace(out.block);
    }
    r.dag_edges = dag->edges().size();
    {
      const SpanScope s = span(kList);
      const Schedule seed = list_schedule(machine, *dag);
      if (seed.size() != out.block.size()) throw std::logic_error("list seed");
    }
    {
      SearchConfig search = w.compile.search;
      if (limited) search.max_live_registers = registers;
      const SpanScope s = span(kSearch);
      ScheduleResult searched = run_optimal_backend(machine, *dag, search);
      out.stats = searched.stats;
      if (limited && !searched.stats.feasible) {
        std::vector<TupleIndex> order(out.block.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
          order[i] = static_cast<TupleIndex>(i);
        }
        out.schedule = evaluate_order(machine, *dag, order);
        out.stats.best_nops = out.schedule.total_nops();
      } else {
        out.schedule = std::move(searched.schedule);
      }
    }
    if (!limited) {
      const SpanScope s = span(kSpill);
      if (block_max_live(out.block) < 0) throw std::logic_error("max live");
    }
    {
      const SpanScope s = span(kLinearScan);
      out.allocation = linear_scan(out.block, out.schedule.order, registers);
    }
    {
      const SpanScope s = span(kEmit);
      out.assembly = emit_assembly(out.block, machine, out.schedule,
                                   out.allocation, w.compile.emit);
    }
  } catch (const std::exception& e) {
    r.error = e.what()[0] ? e.what() : "exception";
  }
  return r;
}

// ---------------------------------------------------------------------
// Correctness gate and exact-count fingerprint
// ---------------------------------------------------------------------

using NamedVars = std::map<std::string, std::int64_t>;

/// Deterministic starting value per variable name.
std::int64_t initial_value(const std::string& name) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char ch : name) h = (h ^ ch) * 1099511628211ull;
  return static_cast<std::int64_t>(splitmix(h) % 2001) - 1000;
}

VarEnv initial_env(const BasicBlock& block) {
  VarEnv env;
  for (std::size_t v = 0; v < block.var_count(); ++v) {
    env[static_cast<VarId>(v)] = initial_value(block.var_name(static_cast<VarId>(v)));
  }
  return env;
}

/// Final variables of the unoptimized tuples, by name: the reference the
/// optimized block must reproduce.
NamedVars reference_vars(const std::string& source) {
  const BasicBlock tuples = generate_tuples(parse_source(source));
  const ExecResult run = interpret(tuples, initial_env(tuples));
  NamedVars named;
  for (std::size_t v = 0; v < tuples.var_count(); ++v) {
    const auto id = static_cast<VarId>(v);
    const auto it = run.final_vars.find(id);
    named[tuples.var_name(id)] =
        it == run.final_vars.end() ? initial_value(tuples.var_name(id)) : it->second;
  }
  return named;
}

struct CheckResult {
  std::string error;  ///< empty = all four checks passed
  int code_cycles = 0;
  double sim_s = 0;
  double interp_s = 0;
};

CheckResult check_block(const Workload& w, const BlockResult& r,
                        const NamedVars& reference) {
  CheckResult c;
  if (!r.error.empty()) {
    c.error = "compile threw: " + r.error;
    return c;
  }
  const CompileResult& out = r.compiled;
  const Schedule& schedule = out.schedule;
  try {
    const DepGraph dag(out.block);
    double t = wall_now();
    const SimResult sim = validate_padded(w.compile.machine, dag, schedule);
    c.sim_s = wall_now() - t;
    c.code_cycles = sim.completion_cycle;
    std::size_t emitted_nops = 0;
    for (std::size_t at = 0;
         (at = out.assembly.find("    nop\n", at)) != std::string::npos; ++at) {
      ++emitted_nops;
    }
    if (!sim.ok) {
      c.error = "simulator rejects the schedule: " + sim.error;
    } else if (sim.total_delay != out.stats.best_nops ||
               schedule.total_nops() != out.stats.best_nops ||
               emitted_nops != static_cast<std::size_t>(out.stats.best_nops)) {
      c.error = "NOP counts disagree: scheduler " +
                std::to_string(out.stats.best_nops) + ", simulator " +
                std::to_string(sim.total_delay) + ", emitted " +
                std::to_string(emitted_nops);
    }
    if (!c.error.empty()) return c;

    t = wall_now();
    const VarEnv env = initial_env(out.block);
    const ExecResult in_order = interpret(out.block, env);
    const ExecResult scheduled = interpret_in_order(out.block, env, schedule.order);
    c.interp_s = wall_now() - t;
    if (scheduled.final_vars != in_order.final_vars) {
      c.error = "scheduled order changes the block's results";
      return c;
    }
    for (const auto& [name, expected] : reference) {
      const VarId id = out.block.find_var(name);
      std::int64_t got = initial_value(name);
      if (id >= 0) {
        const auto it = in_order.final_vars.find(id);
        if (it != in_order.final_vars.end()) got = it->second;
      }
      if (got != expected) {
        c.error = "optimized block changes variable " + name;
        return c;
      }
    }
    if (!verify_allocation(out.block, schedule.order, out.allocation) ||
        out.allocation.registers_used > w.compile.registers) {
      c.error = "register allocation is invalid";
    }
  } catch (const std::exception& e) {
    c.error = std::string("check threw: ") + e.what();
  }
  return c;
}

/// Exact counts of one pass over the block set. For sequential searches
/// every field repeats bit for bit across passes; that equality is what
/// certifies a pure-speed change.
struct Fingerprint {
  std::uint64_t nodes = 0;
  std::uint64_t omega_calls = 0;
  std::uint64_t incumbent_improvements = 0;
  std::uint64_t prune_window = 0;
  std::uint64_t prune_readiness = 0;
  std::uint64_t prune_equivalence = 0;
  std::uint64_t prune_alpha_beta = 0;
  std::uint64_t prune_lower_bound = 0;
  std::uint64_t prune_dominance = 0;
  std::uint64_t prune_pressure = 0;
  std::uint64_t cache_probes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t final_nops = 0;
  std::uint64_t code_cycles = 0;
  std::uint64_t optimal = 0;
  std::uint64_t curtailed = 0;
  std::uint64_t no_incumbent = 0;
  std::uint64_t values_spilled = 0;
  std::uint64_t asm_bytes = 0;

  void add(const BlockResult& r, const CheckResult& c) {
    const SearchStats& s = r.compiled.stats;
    nodes += s.nodes_expanded;
    omega_calls += s.omega_calls;
    incumbent_improvements += s.incumbent_improvements;
    prune_window += s.pruned_window;
    prune_readiness += s.pruned_readiness;
    prune_equivalence += s.pruned_equivalence;
    prune_alpha_beta += s.pruned_alpha_beta;
    prune_lower_bound += s.pruned_lower_bound;
    prune_dominance += s.pruned_dominance;
    prune_pressure += s.pruned_pressure;
    cache_probes += s.cache_probes;
    cache_hits += s.cache_hits;
    final_nops += static_cast<std::uint64_t>(std::max(0, r.compiled.schedule.total_nops()));
    code_cycles += static_cast<std::uint64_t>(c.code_cycles);
    optimal += s.completed && s.feasible;
    curtailed += !s.completed;
    no_incumbent += !s.feasible;
    values_spilled += static_cast<std::uint64_t>(r.values_spilled);
    asm_bytes += r.compiled.assembly.size();
  }

  /// The fields every pass must reproduce.
  std::vector<std::pair<const char*, std::uint64_t>> fields() const {
    return {{"final_nops", final_nops},
            {"code_cycles", code_cycles},
            {"optimal_blocks", optimal},
            {"sched.nodes", nodes},
            {"sched.omega_calls", omega_calls},
            {"sched.prune.window", prune_window},
            {"sched.prune.readiness", prune_readiness},
            {"sched.prune.equivalence", prune_equivalence},
            {"sched.prune.alpha_beta", prune_alpha_beta},
            {"sched.prune.lower_bound", prune_lower_bound},
            {"sched.prune.dominance", prune_dominance},
            {"sched.prune.pressure", prune_pressure}};
  }
};

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0x5eed;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  bool inject_fault = false;
};

class Run {
 public:
  Run(const Options& options, Workload workload)
      : opt_(options), w_(std::move(workload)) {}

  int run(double setup_s, const std::vector<double>& setups) {
    if (!opt_.trace) {
      untraced_phase(opt_.seconds, 2);
      report_end_to_end(setup_s, setups);
    } else {
      untraced_phase(opt_.seconds / 2, 1);
      traced_phase(opt_.seconds / 2);
      report_layers();
    }
    return failed_ == 0 ? 0 : 1;
  }

 private:
  /// One pass over the block set; checks run afterwards, outside the
  /// timed region.
  struct Pass {
    double wall_s = 0;
    double cpu_s = 0;  ///< process CPU time
    std::vector<BlockResult> blocks;
  };

  /// `compile(worker, index)` for every block, closed loop.
  template <class Compile>
  Pass run_pass(const Compile& compile) {
    Pass p;
    p.blocks.resize(w_.sources.size());
    const double cpu0 = process_cpu();
    const double t0 = wall_now();
    closed_loop(w_.workers, w_.sources.size(), [&](std::size_t worker, std::size_t i) {
      p.blocks[i] = compile(worker, i);
    });
    p.wall_s = wall_now() - t0;
    p.cpu_s = process_cpu() - cpu0;
    return p;
  }

  /// Untraced timed passes until `budget_s` of pass time has elapsed
  /// (at least `min_passes`), after one checked warm-up pass. Every pass
  /// repeats the same work, so each block keeps its best latency.
  void untraced_phase(double budget_s, std::size_t min_passes) {
    const auto compile = [&](std::size_t, std::size_t i) {
      return compile_untraced(w_, w_.sources[i]);
    };
    Pass warm = run_pass(compile);
    check_pass(warm);
    const std::size_t n = warm.blocks.size();
    best_latency_s_.assign(n, 1e300);
    double spent = 0;
    while (spent < budget_s || pass_bps_.size() < min_passes) {
      Pass p = run_pass(compile);
      spent += p.wall_s;
      pass_bps_.push_back(static_cast<double>(n) / p.wall_s);
      pass_cpu_ms_.push_back(p.cpu_s * 1e3 / static_cast<double>(n));
      for (std::size_t i = 0; i < n; ++i) {
        best_latency_s_[i] = std::min(best_latency_s_[i], p.blocks[i].latency_s);
      }
      check_pass(p);
    }
  }

  /// Traced passes with the profiler on; each block keeps the layer times
  /// of its fastest traced pass.
  void traced_phase(double budget_s) {
    std::vector<Span> first_spans;
    std::vector<std::vector<Span>> worker_spans(w_.workers);
    profiler_enable();
    double spent = 0;
    std::size_t passes = 0;
    while (spent < budget_s || passes == 0) {
      Pass p = run_pass([&](std::size_t worker, std::size_t i) {
        return compile_traced(w_, static_cast<std::uint32_t>(i), worker_spans[worker]);
      });
      spent += p.wall_s;
      traced_fp_ = check_pass(p);
      if (passes++ == 0) {
        best_traced_ = std::move(p.blocks);
        for (auto& spans : worker_spans) {
          first_spans.insert(first_spans.end(), spans.begin(), spans.end());
        }
      } else {
        for (std::size_t i = 0; i < p.blocks.size(); ++i) {
          if (p.blocks[i].latency_s < best_traced_[i].latency_s) {
            best_traced_[i] = std::move(p.blocks[i]);
          }
        }
      }
      for (auto& spans : worker_spans) spans.clear();
    }
    traced_passes_ = passes;
    profiler_disable();
    phase_samples_ = profiler_samples();
    if (!opt_.spans_path.empty()) write_spans(first_spans);
  }

  /// Gate one pass: the four per-block checks, the fingerprint against
  /// the first pass, and (first pass only) the CP cross-check.
  Fingerprint check_pass(Pass& p) {
    const std::size_t n = p.blocks.size();
    attempted_ += n;
    if (opt_.inject_fault && n > 0 && p.blocks[0].compiled.schedule.size() > 1) {
      auto& order = p.blocks[0].compiled.schedule.order;
      std::swap(order.front(), order.back());
    }
    if (reference_.empty()) {
      reference_.resize(n);
      closed_loop(nproc(), n, [&](std::size_t, std::size_t i) {
        try {
          reference_[i] = reference_vars(w_.sources[i]);
        } catch (const std::exception&) {
          // Left empty; the compile fails the same way and is reported.
        }
      });
    }
    std::vector<CheckResult> checks(n);
    closed_loop(nproc(), n, [&](std::size_t, std::size_t i) {
      checks[i] = check_block(w_, p.blocks[i], reference_[i]);
    });
    Fingerprint fp;
    for (std::size_t i = 0; i < n; ++i) {
      fp.add(p.blocks[i], checks[i]);
      sim_s_ += checks[i].sim_s;
      interp_s_ += checks[i].interp_s;
      if (!checks[i].error.empty()) fail("block " + std::to_string(i) + ": " + checks[i].error);
    }
    checked_blocks_ += n;
    if (!first_) {
      first_ = fp;
      crosscheck(p);
    } else {
      const auto want = first_->fields();
      const auto got = fp.fields();
      for (std::size_t k = 0; k < want.size(); ++k) {
        if (want[k].second != got[k].second) {
          fail(std::string("fingerprint ") + want[k].first + " changed between passes: " +
               std::to_string(want[k].second) + " then " + std::to_string(got[k].second));
        }
      }
      ++fingerprint_repeats_;
    }
    return fp;
  }

  /// Re-solve a seeded sample of the first pass's proven blocks (optimal,
  /// or proven infeasible under the register ceiling) with the CP backend.
  void crosscheck(const Pass& p) {
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < p.blocks.size(); ++i) {
      const BlockResult& r = p.blocks[i];
      if (!r.error.empty() || !r.compiled.stats.completed) continue;
      if (splitmix(opt_.seed ^ (0xc0ffee + i)) % w_.crosscheck_every == 0) {
        sample.push_back(i);
      }
    }
    std::vector<std::string> verdict(sample.size());
    std::atomic<std::size_t> cp_completed{0};
    closed_loop(nproc(), sample.size(), [&](std::size_t, std::size_t k) {
      const CompileResult& out = p.blocks[sample[k]].compiled;
      try {
        const DepGraph dag(out.block);
        SearchConfig config;
        config.backend = OptimalBackend::Cp;
        config.curtail_lambda = 2'000'000;
        if (w_.pipeline == Pipeline::RegisterLimited) {
          config.max_live_registers = w_.compile.registers;
        }
        const ScheduleResult cp = cp_schedule(w_.compile.machine, dag, config);
        const SearchStats& bnb = out.stats;
        const auto verdict_text = [](const SearchStats& s) {
          return s.feasible ? std::to_string(s.best_nops) + " NOPs" : std::string("infeasible");
        };
        if (cp.stats.completed) {
          ++cp_completed;
          if (cp.stats.feasible != bnb.feasible ||
              (bnb.feasible && cp.stats.best_nops != bnb.best_nops)) {
            verdict[k] = "CP proves " + verdict_text(cp.stats) + ", B&B proved " +
                         verdict_text(bnb);
          }
        } else if (cp.stats.feasible &&
                   (!bnb.feasible || cp.stats.best_nops < bnb.best_nops)) {
          verdict[k] = "CP found " + verdict_text(cp.stats) + ", B&B proved " +
                       verdict_text(bnb);
        }
      } catch (const std::exception& e) {
        verdict[k] = std::string("CP threw: ") + e.what();
      }
    });
    crosscheck_sampled_ = sample.size();
    crosscheck_cp_completed_ = cp_completed.load();
    for (std::size_t k = 0; k < sample.size(); ++k) {
      if (!verdict[k].empty()) {
        fail("cross-check block " + std::to_string(sample[k]) + ": " + verdict[k]);
      }
    }
  }

  void fail(const std::string& why) {
    if (failed_ < 10) std::cerr << "perfbench: FAIL " << w_.name << ": " << why << "\n";
    ++failed_;
  }

  /// Chrome trace-event JSON of the first traced pass (Perfetto-ready),
  /// for its first kSpanBlocks blocks: one "block" span per block with its
  /// layer spans as children; all spans of one block carry its index.
  void write_spans(std::vector<Span> spans) const {
    constexpr std::uint32_t kSpanBlocks = 1000;
    std::erase_if(spans, [](const Span& s) { return s.block >= kSpanBlocks; });
    std::ofstream out(opt_.spans_path);
    if (!out) {
      std::cerr << "perfbench: cannot write " << opt_.spans_path << "\n";
      return;
    }
    double origin = 1e300;
    for (const Span& s : spans) origin = std::min(origin, s.start);
    out << "{\"traceEvents\":[\n";
    char buf[256];
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const Span& s = spans[k];
      const bool root = s.layer == kLayers;
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"block\":%u,\"parent\":\"%s\"}}",
                    k ? ",\n" : "", root ? "block" : kLayerNames[s.layer].span,
                    1 + s.block % static_cast<unsigned>(w_.workers),
                    (s.start - origin) * 1e6, (s.end - s.start) * 1e6, s.block,
                    root ? "" : "block");
      out << buf;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

  // ---- reporting -------------------------------------------------------

  using Metric = std::pair<std::string, std::pair<double, std::string>>;

  static double sum(const std::vector<double>& v) {
    double total = 0;
    for (double x : v) total += x;
    return total;
  }

  void print_header() const {
    std::cout << "perfbench " << w_.name << ": " << w_.sources.size()
              << " blocks, " << w_.workers << " worker(s), lambda "
              << w_.compile.search.curtail_lambda << ", registers "
              << w_.compile.registers << "\n";
    std::cout << "provenance: {\"seed\": " << opt_.seed << ", \"nproc\": " << nproc()
              << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
              << ", \"cpu_model\": \"" << cpu_model() << "\", \"build\": \""
              << build_info_line() << "\"}\n";
    std::cout << "untraced passes: " << pass_bps_.size() << ", blocks/s per pass:";
    for (double b : pass_bps_) std::cout << " " << b;
    std::cout << "\nfingerprint (identical in every pass):";
    for (const auto& [name, value] : first_->fields()) {
      std::cout << " " << name << "=" << value;
    }
    std::cout << "\n";
  }

  void print_result(const std::vector<Metric>& metrics) const {
    std::cout << "checks: " << checked_blocks_ << " block results checked, "
              << fingerprint_repeats_ << " pass fingerprint(s) repeated, "
              << crosscheck_sampled_ << " blocks re-solved by CP ("
              << crosscheck_cp_completed_ << " proven), failed " << failed_
              << " (failed_pct " << 100.0 * ratio(static_cast<double>(failed_),
                                                 static_cast<double>(attempted_))
              << " %)\n";
    for (const Metric& m : metrics) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-36s %16.6g %s\n", m.first.c_str(),
                    m.second.first, m.second.second.c_str());
      std::cout << line;
    }
    std::ostringstream json;
    json << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
         << ", \"metrics\": {";
    for (std::size_t k = 0; k < metrics.size(); ++k) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.12g", metrics[k].second.first);
      json << (k ? ", " : "") << "\"" << metrics[k].first << "\": {\"value\": " << value
           << ", \"unit\": \"" << metrics[k].second.second << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
  }

  /// Throughput and CPU come from the best pass, latency from each block's
  /// best pass: the host's interference arrives in bursts that inflate
  /// most passes, but rarely hit one block in every pass.
  void report_end_to_end(double setup_s, const std::vector<double>& setups) const {
    print_header();
    std::cout << "set-up repeats (s):";
    for (double s : setups) std::cout << " " << s;
    std::cout << "\n";
    const Fingerprint& fp = *first_;
    const double n = static_cast<double>(w_.sources.size());
    std::vector<double> latency_ms;
    for (double s : best_latency_s_) latency_ms.push_back(s * 1e3);
    print_result({
        {"blocks_per_s", {*std::max_element(pass_bps_.begin(), pass_bps_.end()), "blocks/s"}},
        {"cpu_ms_per_block",
         {*std::min_element(pass_cpu_ms_.begin(), pass_cpu_ms_.end()), "ms"}},
        {"block_p50_ms", {quantile(latency_ms, 0.5), "ms"}},
        {"block_p90_ms", {quantile(latency_ms, 0.9), "ms"}},
        {"final_nops", {static_cast<double>(fp.final_nops), "NOPs"}},
        {"code_cycles", {static_cast<double>(fp.code_cycles), "cycles"}},
        {"optimal_pct", {100.0 * static_cast<double>(fp.optimal) / n, "%"}},
        {"setup_s", {setup_s, "s"}},
        {"peak_rss_mb", {peak_rss_mb(), "MB"}},
    });
  }

  /// Share of the profiler's search samples whose phase path includes
  /// `phase`, and the number of search samples.
  std::pair<double, std::uint64_t> phase_share(const char* phase) const {
    std::uint64_t in_search = 0, in_phase = 0;
    for (const ProfileSample& s : phase_samples_) {
      const std::string path = ";" + s.path + ";";
      if (path.find(";bnb;") == std::string::npos) continue;
      in_search += s.count;
      if (path.find(";" + std::string(phase) + ";") != std::string::npos) {
        in_phase += s.count;
      }
    }
    return {100.0 * ratio(static_cast<double>(in_phase), static_cast<double>(in_search)),
            in_search};
  }

  void report_layers() const {
    print_header();
    const Fingerprint& fp = traced_fp_;
    const double n = static_cast<double>(w_.sources.size());
    double layer_s[kLayers] = {};
    double block_s = 0;
    std::uint64_t tuples_in = 0, tuples_out = 0, dag_edges = 0;
    for (const BlockResult& r : best_traced_) {
      for (int l = 0; l < kLayers; ++l) layer_s[l] += r.layer_s[l];
      block_s += r.latency_s;
      tuples_in += r.tuples_in;
      tuples_out += r.tuples_out;
      dag_edges += r.dag_edges;
    }
    double layer_sum_s = 0;
    for (int l = 0; l < kLayers; ++l) {
      if (l != kList) layer_sum_s += layer_s[l];
    }
    const auto per_block_us = [&](double s) { return s * 1e6 / n; };
    const double untraced_us = per_block_us(sum(best_latency_s_));
    const double traced_us = per_block_us(block_s);
    const double layer_sum_pct = 100.0 * ratio(per_block_us(layer_sum_s), untraced_us);
    const double overhead_pct = 100.0 * (ratio(traced_us, untraced_us) - 1.0);

    std::cout << "layer self time per block (each block's fastest of " << traced_passes_
              << " traced passes; " << phase_share("bnb").second
              << " profiler samples in the search)\n";
    for (int l = 0; l < kLayers; ++l) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-22s %12.3f us  %6.2f %%%s\n",
                    kLayerNames[l].span, per_block_us(layer_s[l]),
                    100.0 * ratio(layer_s[l], block_s),
                    l == kList ? "  (seed re-run; left out of the sum)" : "");
      std::cout << line;
    }
    std::cout << "  block span self time   "
              << per_block_us(block_s - layer_sum_s - layer_s[kList]) << " us\n"
              << "layer sum " << per_block_us(layer_sum_s) << " us vs untraced block "
              << untraced_us << " us (" << layer_sum_pct << " %)\n"
              << "tracing overhead: traced block " << traced_us << " us vs untraced "
              << untraced_us << " us (" << overhead_pct << " %)\n";

    std::vector<Metric> m;
    const auto add = [&](std::string name, double value, const char* unit) {
      m.push_back({std::move(name), {value, unit}});
    };
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    for (int l = 0; l < kLayers; ++l) add(kLayerNames[l].us, per_block_us(layer_s[l]), "us");
    for (int l = 0; l < kLayers; ++l) {
      add(kLayerNames[l].share, 100.0 * ratio(layer_s[l], block_s), "%");
    }
    add("opt.tuples_in", count(tuples_in), "count");
    add("opt.tuples_out", count(tuples_out), "count");
    add("ir.dag_edges", count(dag_edges), "count");
    add("sched.nodes_per_s", ratio(count(fp.nodes), layer_s[kSearch]), "nodes/s");
    add("sched.omega_per_s", ratio(count(fp.omega_calls), layer_s[kSearch]), "calls/s");
    add("sched.nodes", count(fp.nodes), "count");
    add("sched.omega_calls", count(fp.omega_calls), "count");
    add("sched.incumbent_improvements", count(fp.incumbent_improvements), "count");
    add("sched.prune.window", count(fp.prune_window), "count");
    add("sched.prune.readiness", count(fp.prune_readiness), "count");
    add("sched.prune.equivalence", count(fp.prune_equivalence), "count");
    add("sched.prune.alpha_beta", count(fp.prune_alpha_beta), "count");
    add("sched.prune.lower_bound", count(fp.prune_lower_bound), "count");
    add("sched.prune.dominance", count(fp.prune_dominance), "count");
    add("sched.prune.pressure", count(fp.prune_pressure), "count");
    add("sched.cache_probes", count(fp.cache_probes), "count");
    add("sched.cache_hit_pct", 100.0 * ratio(count(fp.cache_hits), count(fp.cache_probes)),
        "%");
    add("sched.curtailed_blocks", count(fp.curtailed), "count");
    add("sched.no_incumbent_blocks", count(fp.no_incumbent), "count");
    for (const char* phase : {"lower_bound", "dominance_probe", "omega_append", "omega_undo",
                              "candidate_filter", "incumbent_publish"}) {
      add(std::string("sched.phase.") + phase + "_pct", phase_share(phase).first, "%");
    }
    add("regalloc.values_spilled", count(fp.values_spilled), "count");
    add("asmout.bytes", count(fp.asm_bytes), "bytes");
    add("check.sim_us", sim_s_ * 1e6 / count(checked_blocks_), "us");
    add("check.interp_us", interp_s_ * 1e6 / count(checked_blocks_), "us");
    add("trace.untraced_block_us", untraced_us, "us");
    add("trace.traced_block_us", traced_us, "us");
    add("trace.layer_sum_pct", layer_sum_pct, "%");
    add("trace.overhead_pct", overhead_pct, "%");
    print_result(m);
  }

  const Options& opt_;
  Workload w_;
  std::vector<NamedVars> reference_;
  std::optional<Fingerprint> first_;
  Fingerprint traced_fp_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checked_blocks_ = 0;
  std::uint64_t fingerprint_repeats_ = 0;
  std::size_t crosscheck_sampled_ = 0;
  std::size_t crosscheck_cp_completed_ = 0;
  double sim_s_ = 0;
  double interp_s_ = 0;
  std::vector<double> pass_bps_;        ///< raw throughput of each untraced pass
  std::vector<double> pass_cpu_ms_;     ///< process CPU per block, each pass
  std::vector<double> best_latency_s_;  ///< per block, best untraced pass
  std::vector<BlockResult> best_traced_;  ///< per block, fastest traced pass
  std::size_t traced_passes_ = 0;
  std::vector<ProfileSample> phase_samples_;
};

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <corpus|large_blocks|regs_tight> "
               "[--seed N] [--seconds S] [--trace 0|1] "
               "[--spans FILE] [--inject-fault]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--inject-fault") {
      opt.inject_fault = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--spans") {
      opt.spans_path = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty()) return usage("--workload is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  try {
    // Set-up three times from the same seed; the inputs must be identical
    // each time, and setup_s is the median.
    std::vector<double> setups;
    std::optional<Workload> workload;
    for (int k = 0; k < 3; ++k) {
      const double t0 = wall_now();
      Workload w = make_workload(opt.workload, opt.seed);
      setups.push_back(wall_now() - t0);
      std::cerr << "perfbench: set-up " << k + 1 << " took " << setups.back() << " s\n";
      if (workload && w.sources != workload->sources) {
        std::cerr << "perfbench: set-up is not deterministic\n";
        return 1;
      }
      workload = std::move(w);
    }
    Run run(opt, std::move(*workload));
    return run.run(median(setups), setups);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
