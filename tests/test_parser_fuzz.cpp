// Deterministic mutation fuzzer for every parser that reads untrusted
// text: source programs, tuple blocks, program files, machine files and
// JSON baselines. The committed samples of each format are mutated with a
// fixed seed and a fixed budget - bit flips, truncation, splices from
// other samples, repetition and inserted hostile tokens - and each mutant
// goes to its format's parser. The parser may accept the mutant or reject
// it with pipesched::Error; any other exception fails the test, and a
// crash or hang fails it too.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/codegen.hpp"
#include "frontend/parser.hpp"
#include "frontend/program_codegen.hpp"
#include "ir/block_parser.hpp"
#include "ir/program_parser.hpp"
#include "machine/machine_parser.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace pipesched {
namespace {

struct Sample {
  std::string name;
  std::string text;
};

/// The files in `dir` (relative to the source tree) whose names start
/// with `prefix` and end with `suffix`, in name order.
std::vector<Sample> samples(const std::string& dir, const std::string& prefix,
                            const std::string& suffix) {
  std::vector<Sample> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(PS_SOURCE_DIR) + "/" +
                                           dir)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || name.size() < suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    out.push_back({dir + "/" + name, text.str()});
  }
  std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
    return a.name < b.name;
  });
  return out;
}

/// Tokens at or past the limits the parsers must check: out-of-range
/// integers, unbalanced brackets and quotes, and keywords out of place.
const char* const kHostileTokens[] = {
    "99999999999999999999", "-99999999999999999999", "9223372036854775808",
    "-9223372036854775809", "2147483648", "4294967297",
    "\"99999999999999999999\"", "1e999", "-", "+", "\"", "#", ":", ",",
    ";", "(", ")", "{", "}", "[", "]", "\n", "0", "latency", "enqueue",
    "Const", "block", "ret"};

/// Largest mutant kept: repetition doubles text quickly.
constexpr std::size_t kMaxMutantBytes = 1 << 16;

std::string mutate(Rng& rng, std::string text,
                   const std::vector<Sample>& pool) {
  const std::size_t edits = 1 + rng.next_below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = rng.next_below(text.size() + 1);
    switch (rng.next_below(5)) {
      case 0:  // bit flip
        if (!text.empty()) {
          text[std::min(pos, text.size() - 1)] ^=
              static_cast<char>(1u << rng.next_below(8));
        }
        break;
      case 1:  // truncation
        text.resize(pos);
        break;
      case 2: {  // splice in a slice of any sample
        const std::string& other = pool[rng.next_below(pool.size())].text;
        const std::size_t from = rng.next_below(other.size() + 1);
        const std::size_t len = rng.next_below(other.size() - from + 1);
        text.insert(pos, other, from, len);
        break;
      }
      case 3: {  // repetition of a slice
        const std::size_t len = rng.next_below(text.size() - pos + 1);
        const std::string slice =
            text.substr(pos, std::min<std::size_t>(len, 64));
        const std::size_t times = 1 + rng.next_below(200);
        std::string repeated;
        for (std::size_t t = 0; t < times; ++t) repeated += slice;
        text.insert(pos, repeated);
        break;
      }
      default:  // a hostile token
        text.insert(pos, kHostileTokens[rng.next_below(
                             std::size(kHostileTokens))]);
        break;
    }
    if (text.size() > kMaxMutantBytes) text.resize(kMaxMutantBytes);
  }
  return text;
}

/// Every sample in the source tree, the splice pool of every format.
const std::vector<Sample>& all_samples() {
  static const std::vector<Sample> all = [] {
    std::vector<Sample> out;
    for (const auto& part : {samples("examples/programs", "", ""),
                             samples("machines", "", ".machine"),
                             samples(".", "BENCH_corpus", ".json")}) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }();
  return all;
}

/// Feeds `budget` mutants of `seeds` to `parse`.
void fuzz(const std::vector<Sample>& seeds, std::uint64_t seed, int budget,
          const std::function<void(const std::string&)>& parse) {
  ASSERT_FALSE(seeds.empty());
  Rng rng(seed);
  for (int k = 0; k < budget; ++k) {
    const Sample& base = seeds[rng.next_below(seeds.size())];
    const std::string mutant = mutate(rng, base.text, all_samples());
    try {
      parse(mutant);
    } catch (const Error&) {
      // A clean rejection.
    } catch (const std::exception& e) {
      FAIL() << "mutant " << k << " of " << base.name
             << " escaped as a non-Error exception: " << e.what()
             << "\n--- mutant ---\n"
             << mutant;
    } catch (...) {
      FAIL() << "mutant " << k << " of " << base.name
             << " escaped as a non-std exception\n--- mutant ---\n"
             << mutant;
    }
  }
}

constexpr int kBudget = 8000;

TEST(ParserFuzz, SourceText) {
  fuzz(samples("examples/programs", "", ".ps"), 1, kBudget,
       [](const std::string& text) { parse_source(text); });
}

// The outcome of every SourceText mutant above, hashed with FNV-1a: a
// rejection's Error text; an accepted program's to_string() and its
// lowering's listing and variable names (generate_tuples for straight-line
// code, generate_program for control flow). SourceText checks only the
// exception type; this pins each message, line number and accepted tree.
TEST(ParserFuzz, SourceTextOutcomes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto add = [&hash](std::string_view bytes) {
    for (const unsigned char c : bytes) hash = (hash ^ c) * 0x100000001b3ull;
    hash *= 0x100000001b3ull;  // a zero byte ends each field
  };
  const auto add_vars = [&add](const BasicBlock& block) {
    for (std::size_t v = 0; v < block.var_count(); ++v) {
      add(block.var_name(static_cast<VarId>(v)));
    }
  };
  int rejected = 0;
  int straight = 0;
  int control = 0;
  fuzz(samples("examples/programs", "", ".ps"), 1, kBudget,
       [&](const std::string& text) {
         try {
           const SourceProgram program = parse_source(text);
           add(program.to_string());
           if (program.is_straight_line()) {
             const BasicBlock block = generate_tuples(program);
             add(block.to_string());
             add_vars(block);
             ++straight;
           } else {
             const Program lowered = generate_program(program);
             add(lowered.to_string());
             for (std::size_t b = 0; b < lowered.size(); ++b) {
               add_vars(lowered.block(static_cast<BlockId>(b)).block);
             }
             ++control;
           }
         } catch (const Error& e) {
           add(e.what());
           ++rejected;
           throw;
         }
       });
  EXPECT_EQ(rejected + straight + control, kBudget);
  EXPECT_EQ(hash, 0x3f141d942ab6d960ull)
      << "0x" << std::hex << hash << std::dec << " (" << rejected
      << " rejected, " << straight << " straight-line, " << control
      << " control flow)";
}

TEST(ParserFuzz, TupleBlocks) {
  fuzz(samples("examples/programs", "", ".tuples"), 2, kBudget,
       [](const std::string& text) { parse_block(text); });
}

TEST(ParserFuzz, ProgramFiles) {
  fuzz(samples("examples/programs", "", ".ptuples"), 3, kBudget,
       [](const std::string& text) { parse_program_text(text); });
}

TEST(ParserFuzz, MachineFiles) {
  fuzz(samples("machines", "", ".machine"), 4, kBudget,
       [](const std::string& text) { parse_machine(text); });
}

TEST(ParserFuzz, JsonBaselines) {
  fuzz(samples(".", "BENCH_corpus", ".json"), 5, kBudget,
       [](const std::string& text) { parse_json(text); });
}

}  // namespace
}  // namespace pipesched
