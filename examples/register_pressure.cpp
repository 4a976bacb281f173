// Domain example: the schedule-quality / register-file trade
// (paper Section 3.1's spill discipline plus our pressure-constrained
// search extension).
//
//   ./register_pressure
//
// A wide reduction wants all its loads in flight at once — which costs
// registers. Sweeping the file size shows: plenty of registers -> zero
// NOPs; a tight file forces spill code and serialization.
#include <iostream>

#include "core/compiler.hpp"
#include "frontend/codegen.hpp"
#include "frontend/parser.hpp"
#include "regalloc/spill.hpp"
#include "util/strings.hpp"

int main() {
  using namespace pipesched;

  const std::string source =
      "s0 = a0 * b0;\n"
      "s1 = a1 * b1;\n"
      "s2 = a2 * b2;\n"
      "s3 = a3 * b3;\n"
      "t0 = s0 + s1;\n"
      "t1 = s2 + s3;\n"
      "dot = t0 + t1;\n";
  std::cout << "8-operand dot product:\n" << source << "\n";

  const BasicBlock block = generate_tuples(parse_source(source));
  std::cout << "unconstrained register pressure (MAXLIVE): "
            << block_max_live(block) << "\n\n";

  std::cout << pad_left("registers", 10) << pad_left("spills", 8)
            << pad_left("NOPs", 6) << pad_left("cycles", 8)
            << pad_left("search", 13) << "\n";
  for (int registers : {32, 8, 6, 5, 4, 3}) {
    CompileOptions options;
    options.registers = registers;
    options.search.curtail_lambda = 200000;
    const RegisterLimitedResult result =
        compile_with_register_limit(block, options);
    std::cout << pad_left(std::to_string(registers), 10)
              << pad_left(std::to_string(result.values_spilled), 8)
              << pad_left(std::to_string(result.compiled.schedule.total_nops()),
                          6)
              << pad_left(
                     std::to_string(result.compiled.schedule.completion_cycle()),
                     8)
              << pad_left(search_outcome_name(result.compiled.stats.outcome()),
                          13)
              << "\n";
  }

  CompileOptions tight;
  tight.registers = 4;
  tight.search.curtail_lambda = 200000;
  const RegisterLimitedResult result =
      compile_with_register_limit(block, tight);
  std::cout << "\nassembly with 4 registers (" << result.values_spilled
            << " value(s) spilled):\n"
            << result.compiled.assembly;
  return 0;
}
