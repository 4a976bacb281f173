#include "frontend/program_codegen.hpp"

#include <optional>

#include "frontend/codegen.hpp"
#include "util/check.hpp"

namespace pipesched {

namespace {

class ProgramLowerer {
 public:
  explicit ProgramLowerer(const SourceProgram& source) : source_(source) {}

  Program run() {
    open();
    lower(source_.statements);
    seal(Terminator::ret());
    program_.validate();
    return std::move(program_);
  }

 private:
  void open() {
    emitter_.emplace(source_,
                     std::string("b").append(std::to_string(program_.size())));
  }

  /// Close the block under construction with `term`; returns its id and
  /// opens the next block. Forward targets may be patched afterwards via
  /// sequential-id arithmetic (layout order == creation order).
  BlockId seal(Terminator term) {
    const BlockId id = program_.add_block();
    program_.block_mut(id).block = emitter_->take();
    program_.block_mut(id).term = std::move(term);
    open();
    return id;
  }

  std::string fresh_temp() { return ".c" + std::to_string(temp_counter_++); }

  void lower(const std::vector<Stmt>& stmts) {
    for (const Stmt& s : stmts) {
      switch (s.kind) {
        case Stmt::Kind::Assign:
          emitter_->emit_assign(s.target, s.value);
          break;
        case Stmt::Kind::If:
          lower_if(s);
          break;
        case Stmt::Kind::While:
          lower_while(s);
          break;
      }
    }
  }

  void lower_if(const Stmt& s) {
    const std::string temp = fresh_temp();
    emitter_->emit_store(temp, emitter_->emit_expr(s.cond));
    // Branch target patched below: ELSE entry (or END without an else).
    const BlockId cond_block =
        seal(Terminator::branch(temp, 0, /*when_zero=*/true));

    lower(s.then_body);
    if (s.else_body.empty()) {
      const BlockId then_end = seal(Terminator::fall_through());
      program_.block_mut(cond_block).term.target = then_end + 1;  // END
    } else {
      // THEN skips over ELSE to the continuation.
      const BlockId then_end = seal(Terminator::jump(0));
      lower(s.else_body);
      const BlockId else_end = seal(Terminator::fall_through());
      program_.block_mut(cond_block).term.target = then_end + 1;  // ELSE
      program_.block_mut(then_end).term.target = else_end + 1;    // END
    }
  }

  void lower_while(const Stmt& s) {
    seal(Terminator::fall_through());  // preceding code falls into HEAD

    const std::string temp = fresh_temp();
    emitter_->emit_store(temp, emitter_->emit_expr(s.cond));
    const BlockId head =
        seal(Terminator::branch(temp, 0, /*when_zero=*/true));

    lower(s.then_body);
    const BlockId body_end = seal(Terminator::jump(head));
    program_.block_mut(head).term.target = body_end + 1;  // EXIT
  }

  const SourceProgram& source_;
  Program program_;
  std::optional<BlockEmitter> emitter_;
  int temp_counter_ = 0;
};

}  // namespace

Program generate_program(const SourceProgram& source) {
  return ProgramLowerer(source).run();
}

}  // namespace pipesched
