#include "util/name_table.hpp"

namespace pipesched {

namespace {

constexpr std::size_t kMinSlots = 16;

std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (const unsigned char c : name) h = (h ^ c) * 0x100000001b3ull;
  return h ^ (h >> 29);
}

}  // namespace

std::size_t NameTable::slot_of(std::string_view name) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(hash_name(name)) & mask;
  while (slots_[slot] >= 0 && this->name(slots_[slot]) != name) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

std::int32_t NameTable::find(std::string_view name) const {
  if (slots_.empty()) return -1;
  return slots_[slot_of(name)];
}

std::int32_t NameTable::intern(std::string_view name) {
  if (slots_.empty()) rehash(kMinSlots);
  const std::size_t slot = slot_of(name);
  if (slots_[slot] >= 0) return slots_[slot];
  const auto id = static_cast<std::int32_t>(names_.size());
  names_.emplace_back(name);
  if (names_.size() * 2 > slots_.size()) {
    rehash(2 * slots_.size());  // places the new name too
  } else {
    slots_[slot] = id;
  }
  return id;
}

void NameTable::reserve(std::size_t count) {
  names_.reserve(count);
  std::size_t slots = kMinSlots;
  while (slots < 2 * count) slots *= 2;
  if (slots > slots_.size()) rehash(slots);
}

void NameTable::rehash(std::size_t slots) {
  slots_.assign(slots, -1);
  for (std::size_t id = 0; id < names_.size(); ++id) {
    slots_[slot_of(names_[id])] = static_cast<std::int32_t>(id);
  }
}

}  // namespace pipesched
