// NameTable: interned names, each stored once, found through one
// open-addressing array of ids.
//
// A source program interns its identifiers in one, and a basic block its
// variables. A name's id is its interning rank, so ids 0..size()-1 visit
// the names in first-interned order. The index is a power-of-two array of
// ids (-1 marks an empty slot), probed linearly and kept at most half
// full. Interning after reserve() and copying a table each cost a fixed
// number of allocations: the name vector and the index, plus one per name
// too long for std::string's inline buffer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pipesched {

class NameTable {
 public:
  /// The id of `name`, or -1 when it was never interned.
  std::int32_t find(std::string_view name) const;

  /// The id of `name`, interning it first when it is new.
  std::int32_t intern(std::string_view name);

  const std::string& name(std::int32_t id) const {
    return names_[static_cast<std::size_t>(id)];
  }
  std::size_t size() const { return names_.size(); }

  /// Room for `count` names in all, so interning up to that many
  /// allocates only for long names.
  void reserve(std::size_t count);

 private:
  /// The slot that holds `name`, or the empty slot where it would go.
  std::size_t slot_of(std::string_view name) const;
  void rehash(std::size_t slots);

  std::vector<std::string> names_;
  std::vector<std::int32_t> slots_;
};

}  // namespace pipesched
