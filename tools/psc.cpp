// psc — the pipesched compiler driver.
//
// Compiles the assignment-statement language (with if/while control flow)
// or raw tuple blocks down to scheduled, register-allocated assembly for a
// configurable multi-pipeline machine, exposing every knob the library
// offers. Run `psc --help` for usage.
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "core/compiler.hpp"
#include "core/corpus_runner.hpp"
#include "core/program_compiler.hpp"
#include "core/superblock.hpp"
#include "asmout/emitter.hpp"
#include "frontend/codegen.hpp"
#include "frontend/opt/passes.hpp"
#include "frontend/parser.hpp"
#include "frontend/program_codegen.hpp"
#include "ir/block_parser.hpp"
#include "ir/program_parser.hpp"
#include "ir/dag.hpp"
#include "machine/machine_parser.hpp"
#include "obs/http_exporter.hpp"
#include "regalloc/regalloc.hpp"
#include "sched/split_scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/build_info.hpp"
#include "util/check.hpp"
#include "util/interrupt.hpp"
#include "util/metrics.hpp"
#include "util/profiler.hpp"
#include "util/progress.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace {

using namespace pipesched;

constexpr const char* kUsage = R"(psc - optimal pipeline scheduling compiler

usage: psc [options] [<source-file>]
  (reads stdin when no file is given)

input:
  --tuples              input is tuple-form text instead of source: one
                        basic block, or a whole CFG when the file starts
                        with the "program" keyword
machine:
  --machine <preset>    paper-simulation (default), paper-example,
                        risc-classic, single-issue-deep, unpipelined-units
  --machine-file <path> load a machine description file
scheduling:
  --scheduler <name>    original | list | greedy | optimal (default) |
                        exhaustive
  --backend <name>      optimal-scheduler backend: bnb (default,
                        branch-and-bound) | cp (constraint-propagation
                        over issue slots)
  --lambda <N>          curtail point (0 = search to exhaustion;
                        default 50000); caps complete orders under
                        --scheduler exhaustive
  --deadline <secs>     wall-clock budget per search (0 = none); expiry
                        keeps the best schedule found so far, like lambda
  --no-cache            disable the state-dominance (transposition) cache
  --split <W>           schedule straight-line blocks with the Section 5.3
                        window splitter instead of the global search
  --registers <N>       register-limited compilation: spill + pressure-
                        constrained search so the code fits N registers
back end:
  --mechanism <name>    nop (default) | interlock | wait | tera | carp
  --boundary <name>     drain (default) | chain   (control-flow programs)
  --superblock          merge linear block chains before compiling
  --no-opt              skip the optimizer passes
  --reassociate         balance Add/Mul trees (shortens critical paths)
output:
  --dump-tuples         print the (optimized) tuple form
  --dump-dag            print the dependence DAG as graphviz dot
  --dump-cfg            print the control-flow graph
  --sim-trace           print the pipeline occupancy trace (ASCII)
  --stats               print search statistics (incl. per-prune-rule
                        counters, search throughput, the curtail
                        reason, a metrics snapshot line, p50/p90/p99
                        search-time quantiles when >1 search ran, and
                        the profiler phase-share table under --profile)
  --csv <path>          write per-block search records as CSV
  --jsonl <path>        write per-block search records as JSON lines
observability:
  --trace <out.json>    record a structured trace of the whole compile
                        (pipeline phases as nested spans, search
                        heartbeat counters) as Chrome trace-event JSON —
                        open in chrome://tracing or ui.perfetto.dev
                        (--sim-trace, by contrast, renders the scheduled
                        machine's cycle-by-cycle pipeline occupancy;
                        --trace records the compiler's own wall time)
  --metrics <out>       export a process metrics snapshot (counters,
                        gauges, histograms across search, thread pool,
                        cache, and compile stages); format by extension:
                        .prom/.txt = Prometheus text, .json = JSON
  --progress            live per-block progress on stderr (blocks
                        done/total, errors, blocks/s, ETA)
  --profile <out.folded>
                        sample every thread's phase stack at 997 Hz for
                        the whole compile and write collapsed-stack lines
                        ("phase;subphase count") to <out.folded> — feed
                        straight to flamegraph.pl or speedscope. Adds a
                        phase-share table to --stats. Worker overhead is
                        two relaxed stores per annotated scope
  --watchdog-seconds <s>
                        arm the stall watchdog: any live search whose
                        nodes-expanded heartbeat stops advancing for <s>
                        seconds gets its flight-recorder ring, all phase
                        stacks, and a metrics snapshot dumped to stderr
                        (and <out.folded>.stall.json under --profile)
  --serve <port>        serve live observability endpoints on
                        127.0.0.1:<port> for the compile's duration:
                        /metrics (Prometheus), /metrics.json, /healthz,
                        /readyz, /status (live progress + search
                        heartbeats as JSON), /stacks, and
                        /profile?seconds=N (on-demand collapsed-stack
                        profile; 409 while --profile owns the sampler).
                        Port 0 picks an ephemeral port; the bound URL is
                        printed to stderr either way
  --version             print version, git SHA, and build type
  --help
)";

struct Args {
  std::string input_path;
  bool tuples = false;
  std::string machine_preset = "paper-simulation";
  std::string machine_file;
  SchedulerKind scheduler = SchedulerKind::Optimal;
  OptimalBackend backend = OptimalBackend::Bnb;
  std::uint64_t lambda = 50000;
  double deadline = 0;
  bool dominance_cache = true;
  int split_window = 0;
  int register_limit = 0;
  DelayMechanism mechanism = DelayMechanism::NopPadding;
  BoundaryMode boundary = BoundaryMode::Drain;
  bool superblock = false;
  bool optimize = true;
  bool reassociate = false;
  bool dump_tuples = false;
  bool dump_dag = false;
  bool dump_cfg = false;
  bool sim_trace = false;
  bool stats = false;
  bool progress = false;
  std::string trace_path;
  std::string metrics_path;
  std::string profile_path;
  double watchdog_seconds = 0;
  int serve_port = -1;  ///< -1 = no server; 0 = ephemeral port
  std::string csv_path;
  std::string jsonl_path;
};

std::string read_input(const std::string& path) {
  std::ostringstream oss;
  if (path.empty()) {
    oss << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    PS_CHECK(in.good(), "cannot open " << path);
    oss << in.rdbuf();
  }
  return oss.str();
}

SchedulerKind parse_scheduler(const std::string& name) {
  if (name == "original") return SchedulerKind::Original;
  if (name == "list") return SchedulerKind::List;
  if (name == "greedy") return SchedulerKind::Greedy;
  if (name == "optimal") return SchedulerKind::Optimal;
  if (name == "exhaustive") return SchedulerKind::Exhaustive;
  throw Error("unknown scheduler: " + name);
}

DelayMechanism parse_mechanism(const std::string& name) {
  if (name == "nop") return DelayMechanism::NopPadding;
  if (name == "interlock") return DelayMechanism::ImplicitInterlock;
  if (name == "wait") return DelayMechanism::ExplicitInterlock;
  if (name == "tera") return DelayMechanism::TeraCount;
  if (name == "carp") return DelayMechanism::CarpMask;
  throw Error("unknown delay mechanism: " + name);
}

/// Numeric flag parsing that fails like a CLI, not like a C++ runtime:
/// std::sto* throw std::invalid_argument / std::out_of_range on malformed
/// input, which previously escaped main() uncaught and aborted the
/// process. These helpers reject garbage, trailing junk ("5x"), values
/// out of range, and negative values for unsigned flags, printing
/// "psc: invalid value for --flag" and exiting with status 2 (the
/// conventional usage-error code, distinct from compile failures' 1).
[[noreturn]] void invalid_flag_value(const std::string& flag,
                                     const std::string& value) {
  std::cerr << "psc: invalid value for " << flag << ": '" << value << "'\n";
  std::exit(2);
}

std::uint64_t parse_u64_flag(const std::string& flag,
                             const std::string& value) {
  try {
    std::size_t pos = 0;
    const std::uint64_t parsed = std::stoull(value, &pos);
    // stoull silently wraps negatives ("-1" -> 2^64-1); reject them.
    if (pos != value.size() || value.find('-') != std::string::npos) {
      invalid_flag_value(flag, value);
    }
    return parsed;
  } catch (const std::exception&) {
    invalid_flag_value(flag, value);
  }
}

int parse_int_flag(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const int parsed = std::stoi(value, &pos);
    if (pos != value.size()) invalid_flag_value(flag, value);
    return parsed;
  } catch (const std::exception&) {
    invalid_flag_value(flag, value);
  }
}

double parse_double_flag(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(value, &pos);
    if (pos != value.size()) invalid_flag_value(flag, value);
    return parsed;
  } catch (const std::exception&) {
    invalid_flag_value(flag, value);
  }
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      PS_CHECK(i + 1 < argc, arg << " needs a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      std::exit(0);
    } else if (arg == "--version") {
      std::cout << build_info_line() << "\n";
      std::exit(0);
    } else if (arg == "--serve") {
      const std::string value = next();
      const std::uint64_t port = parse_u64_flag(arg, value);
      if (port > 65535) invalid_flag_value(arg, value);
      args.serve_port = static_cast<int>(port);
    } else if (arg == "--tuples") {
      args.tuples = true;
    } else if (arg == "--machine") {
      args.machine_preset = next();
    } else if (arg == "--machine-file") {
      args.machine_file = next();
    } else if (arg == "--scheduler") {
      args.scheduler = parse_scheduler(next());
    } else if (arg == "--backend") {
      const std::string name = next();
      PS_CHECK(parse_optimal_backend(name, &args.backend),
               "unknown backend: " << name << " (bnb | cp)");
    } else if (arg == "--lambda") {
      args.lambda = parse_u64_flag(arg, next());
    } else if (arg == "--deadline") {
      const std::string value = next();
      args.deadline = parse_double_flag(arg, value);
      if (args.deadline < 0) invalid_flag_value(arg, value);
    } else if (arg == "--no-cache") {
      args.dominance_cache = false;
    } else if (arg == "--split") {
      args.split_window = parse_int_flag(arg, next());
    } else if (arg == "--registers") {
      args.register_limit = parse_int_flag(arg, next());
    } else if (arg == "--mechanism") {
      args.mechanism = parse_mechanism(next());
    } else if (arg == "--boundary") {
      const std::string mode = next();
      PS_CHECK(mode == "drain" || mode == "chain",
               "unknown boundary mode: " << mode);
      args.boundary =
          mode == "chain" ? BoundaryMode::Chain : BoundaryMode::Drain;
    } else if (arg == "--superblock") {
      args.superblock = true;
    } else if (arg == "--no-opt") {
      args.optimize = false;
    } else if (arg == "--reassociate") {
      args.reassociate = true;
    } else if (arg == "--dump-tuples") {
      args.dump_tuples = true;
    } else if (arg == "--dump-dag") {
      args.dump_dag = true;
    } else if (arg == "--dump-cfg") {
      args.dump_cfg = true;
    } else if (arg == "--sim-trace") {
      args.sim_trace = true;
    } else if (arg == "--trace") {
      args.trace_path = next();
    } else if (arg == "--metrics") {
      args.metrics_path = next();
    } else if (arg == "--profile") {
      args.profile_path = next();
      if (args.profile_path.empty()) {
        invalid_flag_value(arg, args.profile_path);
      }
    } else if (arg == "--watchdog-seconds") {
      const std::string value = next();
      args.watchdog_seconds = parse_double_flag(arg, value);
      if (args.watchdog_seconds <= 0) invalid_flag_value(arg, value);
    } else if (arg == "--progress") {
      args.progress = true;
    } else if (arg == "--stats") {
      args.stats = true;
    } else if (arg == "--csv") {
      args.csv_path = next();
    } else if (arg == "--jsonl") {
      args.jsonl_path = next();
    } else if (!arg.empty() && arg[0] == '-') {
      throw Error("unknown option: " + arg + " (see --help)");
    } else {
      PS_CHECK(args.input_path.empty(), "multiple input files given");
      args.input_path = arg;
    }
  }
  return args;
}

void print_metrics_totals();

/// The search's outcome, stated once. For the two outcomes that end
/// without a schedule, psc emits the register-limited fallback order,
/// whose NOPs best_nops then holds.
std::string outcome_text(const SearchStats& stats) {
  const std::string reason = curtail_reason_name(stats.curtail_reason);
  const std::string fallback =
      "; the fallback order has " + std::to_string(stats.best_nops) + " NOPs";
  switch (stats.outcome()) {
    case SearchOutcome::Optimal:
      return "proven optimal";
    case SearchOutcome::Curtailed:
      return "curtailed (" + reason + ")";
    case SearchOutcome::Infeasible:
      return "proven infeasible: no schedule fits the register ceiling" +
             fallback;
    case SearchOutcome::NoSchedule:
      // A curtailed search proves nothing: it ran out of budget before
      // any schedule within the ceiling turned up.
      return "no schedule within the register ceiling found before the " +
             reason + " budget ran out (not proven infeasible)" + fallback;
  }
  return "?";
}

/// One line with every kSearchCounters row of a metrics family, each
/// named by its label value as in the Prometheus series.
void print_counter_family(const char* title,
                          const SearchCounterFamily& family,
                          const SearchStats& stats) {
  std::cerr << "; " << title << ":";
  const char* separator = " ";
  for (const SearchCounter& c : kSearchCounters) {
    if (std::string_view(c.family.name) != family.name) continue;
    std::cerr << separator << c.label << " " << stats.*c.member;
    separator = ", ";
  }
  std::cerr << "\n";
}

void print_stats(const SearchStats& stats) {
  std::cerr << "; search: " << stats.omega_calls << " placements, "
            << stats.schedules_examined << " complete schedules, "
            << outcome_text(stats) << ", initial NOPs " << stats.initial_nops
            << ", final NOPs " << stats.best_nops << ", "
            << static_cast<long>(stats.seconds * 1e6) << "us\n";
  if (stats.seconds > 0 && stats.nodes_expanded > 0) {
    std::cerr << "; throughput: "
              << compact_double(static_cast<double>(stats.nodes_expanded) /
                                    stats.seconds,
                                4)
              << " nodes expanded/second\n";
  }
  print_counter_family("prunes", kPrunedFamily, stats);
  if (stats.cache_probes > 0) {
    print_counter_family("dominance cache", kCacheEventFamily, stats);
  }
  print_metrics_totals();
}

/// Registry view of the run: process-wide totals (they equal the
/// per-search stats summed over every search this process ran), plus
/// search-time quantiles once several searches contributed. Shared by the
/// single-block stats dump and the whole-program summary.
void print_metrics_totals() {
  if (metrics_enabled()) {
    const MetricsSnapshot snapshot = metrics_snapshot();
    std::cerr << "; metrics totals: "
              << static_cast<std::uint64_t>(
                     snapshot.value_or_zero("ps_search_runs_total"))
              << " searches, "
              << static_cast<std::uint64_t>(
                     snapshot.value_or_zero("ps_search_nodes_expanded_total"))
              << " nodes expanded, "
              << static_cast<std::uint64_t>(snapshot.value_or_zero(
                     "ps_search_incumbent_improvements_total"))
              << " incumbent improvements\n";
    const MetricsSnapshot::Series* hist = snapshot.find("ps_search_seconds");
    if (hist != nullptr && hist->count > 1) {
      // Single-search compiles already print the exact wall time above;
      // quantiles only say something new once several searches ran.
      std::cerr << "; search seconds quantiles (" << hist->count
                << " searches): p50 "
                << compact_double(histogram_quantile(*hist, 0.50), 4)
                << "s, p90 " << compact_double(histogram_quantile(*hist, 0.90), 4)
                << "s, p99 " << compact_double(histogram_quantile(*hist, 0.99), 4)
                << "s\n";
    }
  }
}

/// Write the per-block records (one for straight-line input, one per CFG
/// block otherwise) in the corpus runner's CSV/JSONL layout.
void export_records(const Args& args, const std::vector<RunRecord>& records) {
  if (!args.csv_path.empty()) write_corpus_csv(records, args.csv_path);
  if (!args.jsonl_path.empty()) write_corpus_jsonl(records, args.jsonl_path);
}

/// The library options psc's flags select, for every compile path.
CompileOptions compile_options(const Args& args, const Machine& machine) {
  CompileOptions options;
  options.machine = machine;
  options.scheduler = args.scheduler;
  options.search.backend = args.backend;
  options.search.curtail_lambda = args.lambda;
  options.search.deadline_seconds = args.deadline;
  options.search.dominance_cache = args.dominance_cache;
  options.optimize = args.optimize;
  options.reassociate = args.reassociate;
  options.emit.mechanism = args.mechanism;
  if (args.register_limit > 0) options.registers = args.register_limit;
  return options;
}

int compile_one_block(BasicBlock block, const Machine& machine,
                      const Args& args) {
  const CompileOptions options = compile_options(args, machine);
  CompileResult result;
  // --registers overrides --split: the window search knows no ceiling.
  if (args.split_window > 0 && args.register_limit == 0) {
    result.block = args.optimize ? run_standard_pipeline(block) : block;
    SplitConfig config;
    config.window_size = args.split_window;
    config.search = options.search;
    SplitResult split = split_schedule(machine, DepGraph(result.block), config);
    result.schedule = std::move(split.schedule);
    result.stats = split.stats;
    result.allocation =
        linear_scan(result.block, result.schedule.order, options.registers);
    result.assembly = emit_assembly(result.block, machine, result.schedule,
                                    result.allocation, options.emit);
  } else {
    result = args.register_limit > 0
                 ? compile_with_register_limit(block, options).compiled
                 : compile_block(block, options);
  }

  if (args.dump_tuples) std::cerr << result.block.to_string();
  if (args.dump_dag) std::cerr << DepGraph(result.block).to_dot();
  const SearchStats& stats = result.stats;
  if (args.stats) {
    print_stats(stats);
    if (args.register_limit > 0) {
      std::cerr << "; spilled values: " << result.values_spilled << "\n";
    }
  } else if (stats.outcome() == SearchOutcome::Infeasible ||
             stats.outcome() == SearchOutcome::NoSchedule) {
    std::cerr << "; note: " << outcome_text(stats) << "\n";
  }
  export_records(args,
                 {{static_cast<int>(result.block.size()), stats, {}, {}}});
  if (args.sim_trace) {
    const SimResult sim = simulate_interlocked(
        machine, DepGraph(result.block), result.schedule.order);
    std::cerr << render_pipeline_trace(machine, result.block, sim);
  }
  std::cout << result.assembly;
  return 0;
}

int run_compile(const Args& args, HttpExporter* server) {
  const Machine machine =
      args.machine_file.empty()
          ? Machine::preset(args.machine_preset)
          : parse_machine(read_input(args.machine_file));

  const std::string input = read_input(args.input_path);

  // Setup is done (machine + input loaded): flip /readyz before the
  // compile itself starts, the same point a daemon would mark ready.
  if (server != nullptr) server->set_ready(true);

  Program parsed_program;
  bool have_program = false;
  if (args.tuples) {
    // A leading "program" keyword selects the whole-CFG tuple format.
    const std::string head = trim(input).substr(0, 7);
    if (head == "program") {
      PS_TRACE_SPAN("parse");
      parsed_program = parse_program_text(input);
      have_program = true;
    } else {
      BasicBlock block = [&] {
        PS_TRACE_SPAN("parse");
        return parse_block(input);
      }();
      return compile_one_block(std::move(block), machine, args);
    }
  }

  if (!have_program) {
    SourceProgram source = [&] {
      PS_TRACE_SPAN("parse");
      return parse_source(input);
    }();
    if (source.is_straight_line()) {
      BasicBlock tuples = [&] {
        PS_TRACE_SPAN("tuple_gen");
        return generate_tuples(source);
      }();
      return compile_one_block(std::move(tuples), machine, args);
    }
    parsed_program = generate_program(source);
  }

  // Control flow: the whole-program pipeline.
  Program program = std::move(parsed_program);
  if (args.superblock) {
    SuperblockResult merged = merge_linear_chains(program);
    if (args.stats) {
      std::cerr << "; superblock: " << merged.merges << " edges merged, "
                << merged.program.size() << " blocks remain\n";
    }
    program = std::move(merged.program);
  }
  if (args.dump_cfg) std::cerr << program.to_string();
  PS_CHECK(args.split_window == 0 && args.register_limit == 0,
           "--split/--registers currently apply to straight-line input");
  std::unique_ptr<ProgressReporter> progress;
  if (args.progress) {
    progress = std::make_unique<ProgressReporter>(
        program.size(), std::cerr, ProgressReporter::stderr_is_tty());
  }
  ProgramCompileOptions options;
  options.block = compile_options(args, machine);
  options.boundary = args.boundary;
  options.progress = progress.get();
  const ProgramCompileResult result = compile_program(program, options);
  if (progress) progress->finish();
  if (args.stats) {
    std::cerr << "; program: " << result.blocks.size() << " blocks, "
              << result.total_instructions << " instructions, "
              << result.total_nops << " NOPs\n";
    print_metrics_totals();
  }
  std::vector<RunRecord> records;
  for (const CompiledBlock& compiled : result.blocks) {
    records.push_back(
        {static_cast<int>(compiled.optimized.size()), compiled.stats, {}, {}});
  }
  export_records(args, records);
  std::cout << result.assembly;
  return 0;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  // Ctrl-C / SIGTERM: stop serving, close the progress line, and flush
  // every requested observability output before exiting with 128+sig —
  // a killed run still leaves valid trace/metrics/profile files behind.
  // Installed before anything spawns a thread so every worker inherits
  // the blocked signal mask (see util/interrupt.hpp).
  static std::unique_ptr<HttpExporter> server;
  install_graceful_interrupt([&args](int) {
    if (server) server->stop();
    progress_finish_all();
    if (!args.profile_path.empty() && profiler_enabled()) {
      profiler_disable();
      profiler_write_collapsed(args.profile_path);
    }
    if (!args.trace_path.empty() && trace_enabled()) {
      trace_disable();
      trace_write_json(args.trace_path);
    }
    if (!args.metrics_path.empty()) {
      metrics_disable();
      metrics_write(args.metrics_path);
    }
  });

  if (!args.trace_path.empty()) trace_enable();
  // --stats derives its quantile rows and totals from the registry, so it
  // needs collection on even when no --metrics file was requested.
  if (!args.metrics_path.empty() || args.stats) metrics_enable();
  if (args.watchdog_seconds > 0) {
    watchdog_enable(args.watchdog_seconds,
                    args.profile_path.empty() ? std::string()
                                              : args.profile_path +
                                                    ".stall.json");
  }
  if (!args.profile_path.empty()) profiler_enable();

  if (args.serve_port >= 0) {
    try {
      HttpExporterOptions serve_options;
      serve_options.port = static_cast<std::uint16_t>(args.serve_port);
      server = std::make_unique<HttpExporter>(serve_options);
    } catch (const Error& e) {
      // A taken port is a usage error (exit 2), like a bad flag value.
      std::cerr << "psc: " << e.what() << "\n";
      std::exit(2);
    }
    std::cerr << "psc: serving observability endpoints on "
              << server->base_url() << "\n";
  }

  const int code = run_compile(args, server.get());
  if (!args.profile_path.empty()) {
    profiler_disable();  // stops sampling and flushes ps_profile_samples_total
    profiler_write_collapsed(args.profile_path);
    std::cerr << "; profile: " << profiler_total_samples()
              << " samples written to " << args.profile_path
              << " (collapsed-stack format for flamegraph.pl/speedscope)\n";
    if (args.stats) {
      const std::string table = profiler_phase_table();
      if (!table.empty()) {
        std::cerr << "; phase shares (sampled every "
                  << compact_double(profiler_sample_period_seconds() * 1e3, 4)
                  << "ms):\n"
                  << table;
      }
    }
  }
  if (args.watchdog_seconds > 0) watchdog_disable();
  if (!args.trace_path.empty()) {
    trace_disable();
    trace_write_json(args.trace_path);
    std::cerr << "; trace written to " << args.trace_path
              << " (open in chrome://tracing or https://ui.perfetto.dev)\n";
  }
  if (!args.metrics_path.empty()) {
    metrics_disable();
    metrics_write(args.metrics_path);
    std::cerr << "; " << metrics_summary_line() << " written to "
              << args.metrics_path << "\n";
  }
  // Last: endpoints answer until every other output is flushed, then the
  // server joins its threads so psc exits with nothing left running.
  if (server) server->stop();
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const pipesched::Error& e) {
    std::cerr << "psc: error: " << e.what() << "\n";
    return 1;
  }
}
