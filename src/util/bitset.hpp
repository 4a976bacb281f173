// Bitsets over instruction indices.
//
// BitRow is a read-only view of `size()` bits stored in ⌈size/64⌉ words
// that someone else owns: a row of DepGraph's bit matrices, or a
// DynBitset. DynBitset owns its words (a small std::vector) and adds the
// mutations. Both provide only the operations the schedulers need, all
// branch-light.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace pipesched {

/// Read-only view of a set of instruction indices in [0, size()). The
/// words must outlive the view.
class BitRow {
 public:
  BitRow(const std::uint64_t* words, std::size_t nbits)
      : words_(words), nbits_(nbits) {}

  std::size_t size() const { return nbits_; }

  bool test(std::size_t i) const {
    PS_ASSERT(i < nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// True when every bit of *this is also set in `super`.
  bool is_subset_of(BitRow super) const {
    PS_ASSERT(nbits_ == super.nbits_);
    for (std::size_t i = 0; i < word_count(); ++i) {
      if (words_[i] & ~super.words_[i]) return false;
    }
    return true;
  }

  /// True when no bit is set in both.
  bool is_disjoint_from(BitRow other) const {
    PS_ASSERT(nbits_ == other.nbits_);
    for (std::size_t i = 0; i < word_count(); ++i) {
      if (words_[i] & other.words_[i]) return false;
    }
    return true;
  }

  std::size_t count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < word_count(); ++i) {
      n += static_cast<std::size_t>(__builtin_popcountll(words_[i]));
    }
    return n;
  }

  bool operator==(BitRow other) const {
    if (nbits_ != other.nbits_) return false;
    for (std::size_t i = 0; i < word_count(); ++i) {
      if (words_[i] != other.words_[i]) return false;
    }
    return true;
  }

  /// Invoke fn(index) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t wi = 0; wi < word_count(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w) {
        const int bit = __builtin_ctzll(w);
        fn(wi * 64 + static_cast<std::size_t>(bit));
        w &= w - 1;
      }
    }
  }

 private:
  std::size_t word_count() const { return (nbits_ + 63) / 64; }

  const std::uint64_t* words_;
  std::size_t nbits_;
};

/// Set of instruction indices in [0, size()).
class DynBitset {
 public:
  DynBitset() = default;
  explicit DynBitset(std::size_t nbits)
      : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  /// A view of the current bits; valid while *this lives.
  operator BitRow() const { return row(); }

  std::size_t size() const { return nbits_; }

  bool test(std::size_t i) const { return row().test(i); }

  void set(std::size_t i) {
    PS_ASSERT(i < nbits_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  void reset(std::size_t i) {
    PS_ASSERT(i < nbits_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  void clear() {
    for (auto& w : words_) w = 0;
  }

  /// *this |= other. Sizes must match.
  void merge(const DynBitset& other) {
    PS_ASSERT(nbits_ == other.nbits_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  bool is_subset_of(BitRow super) const { return row().is_subset_of(super); }
  bool is_disjoint_from(BitRow other) const {
    return row().is_disjoint_from(other);
  }
  std::size_t count() const { return row().count(); }
  bool operator==(const DynBitset& other) const {
    return row() == other.row();
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    row().for_each(fn);
  }

 private:
  BitRow row() const { return {words_.data(), nbits_}; }

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace pipesched
