#include "ir/program_parser.hpp"

#include <sstream>
#include <unordered_map>

#include "ir/block_parser.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace pipesched {

namespace {

struct PendingBlock {
  std::string label;
  std::string tuple_text;      // accumulated block-notation lines
  Terminator term;             // target stored as -1, patched by label
  std::string target_label;    // for jump/branch
  bool has_terminator = false;
  int declared_line = 0;
};

std::vector<std::string> words_of(const std::string& line) {
  std::vector<std::string> out;
  for (const std::string& w : split(line, ' ')) {
    const std::string t = trim(w);
    if (!t.empty()) out.push_back(t);
  }
  return out;
}

}  // namespace

Program parse_program_text(const std::string& text) {
  std::vector<PendingBlock> pending;
  int line_no = 0;

  for (const std::string& raw : split(text, '\n')) {
    ++line_no;
    std::string line = raw;
    // ';' comments, as in the per-block notation ('#' marks variables).
    if (auto comment = line.find(';'); comment != std::string::npos) {
      line = line.substr(0, comment);
    }
    const std::string trimmed = trim(line);
    if (trimmed.empty() || trimmed == "program") continue;

    const std::vector<std::string> words = words_of(trimmed);
    if (words[0] == "block") {
      PS_CHECK(words.size() == 2,
               "line " << line_no << ": block <label>");
      for (const PendingBlock& b : pending) {
        PS_CHECK(b.label != words[1],
                 "line " << line_no << ": duplicate block label '"
                         << words[1] << "'");
      }
      PS_CHECK(pending.empty() || pending.back().has_terminator,
               "line " << line_no << ": previous block '"
                       << pending.back().label
                       << "' is missing its terminator");
      PendingBlock block;
      block.label = words[1];
      block.declared_line = line_no;
      pending.push_back(std::move(block));
      continue;
    }

    PS_CHECK(!pending.empty(),
             "line " << line_no << ": content before the first block");
    PendingBlock& current = pending.back();
    PS_CHECK(!current.has_terminator,
             "line " << line_no << ": content after block '"
                     << current.label << "' terminator");

    if (words[0] == "fallthrough" || words[0] == "ret" ||
        words[0] == "jump" || words[0] == "bnez" || words[0] == "beqz") {
      if (words[0] == "fallthrough") {
        PS_CHECK(words.size() == 1, "line " << line_no << ": fallthrough");
        current.term = Terminator::fall_through();
      } else if (words[0] == "ret") {
        PS_CHECK(words.size() == 1, "line " << line_no << ": ret");
        current.term = Terminator::ret();
      } else if (words[0] == "jump") {
        PS_CHECK(words.size() == 2, "line " << line_no << ": jump <label>");
        current.term = Terminator::jump(0);
        current.target_label = words[1];
      } else {
        PS_CHECK(words.size() == 3,
                 "line " << line_no << ": " << words[0] << " <var> <label>");
        current.term =
            Terminator::branch(words[1], 0, /*when_zero=*/words[0] == "beqz");
        current.target_label = words[2];
      }
      current.has_terminator = true;
      continue;
    }

    current.tuple_text += trimmed;
    current.tuple_text += '\n';
  }

  PS_CHECK(!pending.empty(), "no blocks found");
  PS_CHECK(pending.back().has_terminator,
           "final block '" << pending.back().label
                           << "' is missing its terminator");

  // Resolve labels and build the program.
  std::unordered_map<std::string, BlockId> id_of;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    id_of[pending[i].label] = static_cast<BlockId>(i);
  }
  Program program;
  for (PendingBlock& b : pending) {
    const BlockId id = program.add_block();
    program.block_mut(id).block = parse_block(b.tuple_text, b.label);
    if (!b.target_label.empty()) {
      const auto it = id_of.find(b.target_label);
      PS_CHECK(it != id_of.end(),
               "block '" << b.label << "' (line " << b.declared_line
                         << "): unknown target label '" << b.target_label
                         << "'");
      b.term.target = it->second;
    }
    program.block_mut(id).term = std::move(b.term);
  }
  program.validate();
  return program;
}

std::string program_to_text(const Program& program) {
  // Labels: keep existing ones, assign b<i> where empty; disambiguate is
  // the caller's job (duplicate non-empty labels would not round-trip).
  std::vector<std::string> labels(program.size());
  for (std::size_t i = 0; i < program.size(); ++i) {
    const std::string& label =
        program.block(static_cast<BlockId>(i)).block.label();
    labels[i] =
        label.empty() ? std::string("b").append(std::to_string(i)) : label;
  }

  std::ostringstream oss;
  oss << "program\n";
  for (std::size_t i = 0; i < program.size(); ++i) {
    const ProgramBlock& pb = program.block(static_cast<BlockId>(i));
    oss << "block " << labels[i] << "\n";
    // Tuple lines, indented; skip the label line to_string() prepends.
    std::istringstream lines(pb.block.to_string());
    std::string line;
    bool first = true;
    while (std::getline(lines, line)) {
      if (first && !pb.block.label().empty()) {
        first = false;
        continue;
      }
      first = false;
      if (!trim(line).empty()) oss << "  " << trim(line) << "\n";
    }
    switch (pb.term.kind) {
      case Terminator::Kind::FallThrough:
        oss << "  fallthrough\n";
        break;
      case Terminator::Kind::Jump:
        oss << "  jump " << labels[static_cast<std::size_t>(pb.term.target)]
            << "\n";
        break;
      case Terminator::Kind::Branch:
        oss << "  " << (pb.term.when_zero ? "beqz " : "bnez ")
            << pb.term.cond_var << " "
            << labels[static_cast<std::size_t>(pb.term.target)] << "\n";
        break;
      case Terminator::Kind::Return:
        oss << "  ret\n";
        break;
    }
  }
  return oss.str();
}

}  // namespace pipesched
