/// \file bitset.h
/// \brief Dynamic bitset with cached popcount and sorted-order iteration.
///
/// The flat state-set representation used by the hot automaton layers
/// (the ltsmin `dm/bitvector.h` shape): membership is one shift + mask,
/// insertion maintains an exact element count, and iteration visits set bits
/// in increasing index order — the same order a `std::set<uint32_t>` would
/// produce, which is what keeps the canonical `automaton_io` text (and with
/// it every FNV-1a solve-cache key) byte-identical across the flat rewrite.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fo2dt {

/// \brief A grow-on-insert set of uint32 ids backed by packed 64-bit words.
class Bitset {
 public:
  Bitset() = default;
  /// A set over the universe [0, universe); all bits clear.
  explicit Bitset(size_t universe) : words_((universe + 63) / 64, 0) {}

  /// Inserts \p i, growing the word array as needed. Idempotent.
  void Insert(uint32_t i) {
    const size_t w = i / 64;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const uint64_t mask = uint64_t{1} << (i % 64);
    if ((words_[w] & mask) == 0) {
      words_[w] |= mask;
      ++count_;
    }
  }

  /// Removes \p i if present. Idempotent; never shrinks the word array.
  void Erase(uint32_t i) {
    const size_t w = i / 64;
    if (w >= words_.size()) return;
    const uint64_t mask = uint64_t{1} << (i % 64);
    if ((words_[w] & mask) != 0) {
      words_[w] &= ~mask;
      --count_;
    }
  }

  bool Contains(uint32_t i) const {
    const size_t w = i / 64;
    return w < words_.size() && (words_[w] >> (i % 64)) & 1;
  }

  /// Number of elements (exact, O(1)).
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  void Clear() {
    words_.assign(words_.size(), 0);
    count_ = 0;
  }

  /// The packed words (low id = low bit of word 0). For bulk set algebra.
  const std::vector<uint64_t>& words() const { return words_; }

  friend bool operator==(const Bitset& a, const Bitset& b) {
    if (a.count_ != b.count_) return false;
    // Trailing all-zero words are representation noise, not content.
    const size_t n = a.words_.size() < b.words_.size() ? a.words_.size()
                                                       : b.words_.size();
    for (size_t i = 0; i < n; ++i) {
      if (a.words_[i] != b.words_[i]) return false;
    }
    for (size_t i = n; i < a.words_.size(); ++i) {
      if (a.words_[i] != 0) return false;
    }
    for (size_t i = n; i < b.words_.size(); ++i) {
      if (b.words_[i] != 0) return false;
    }
    return true;
  }
  friend bool operator!=(const Bitset& a, const Bitset& b) { return !(a == b); }

  /// Forward iterator over the set ids, in increasing order.
  class const_iterator {
   public:
    using value_type = uint32_t;

    const_iterator(const uint64_t* words, size_t num_words, size_t word_idx)
        : words_(words), num_words_(num_words), word_idx_(word_idx) {
      cur_ = word_idx_ < num_words_ ? words_[word_idx_] : 0;
      Settle();
    }

    uint32_t operator*() const {
      return static_cast<uint32_t>(word_idx_ * 64 +
                                   static_cast<size_t>(std::countr_zero(cur_)));
    }

    const_iterator& operator++() {
      cur_ &= cur_ - 1;  // clear the lowest set bit
      Settle();
      return *this;
    }

    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.word_idx_ == b.word_idx_ && a.cur_ == b.cur_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return !(a == b);
    }

   private:
    void Settle() {
      while (cur_ == 0 && ++word_idx_ < num_words_) cur_ = words_[word_idx_];
      if (word_idx_ >= num_words_) {
        word_idx_ = num_words_;
        cur_ = 0;
      }
    }

    const uint64_t* words_;
    size_t num_words_;
    size_t word_idx_;
    uint64_t cur_ = 0;
  };

  const_iterator begin() const {
    return const_iterator(words_.data(), words_.size(), 0);
  }
  const_iterator end() const {
    return const_iterator(words_.data(), words_.size(), words_.size());
  }

 private:
  std::vector<uint64_t> words_;
  size_t count_ = 0;
};

/// \brief Calls \p fn(id) for every set bit of a raw word array, ascending.
///
/// The word-array twin of Bitset iteration, for scratch sets carved out of a
/// SolveArena (per-node run sets, grammar support rows) where a container
/// per set would defeat the point of the arena.
template <typename Fn>
inline void ForEachSetBit(const uint64_t* words, size_t num_words, Fn&& fn) {
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t cur = words[w];
    while (cur != 0) {
      fn(static_cast<uint32_t>(w * 64 +
                               static_cast<size_t>(std::countr_zero(cur))));
      cur &= cur - 1;
    }
  }
}

}  // namespace fo2dt
