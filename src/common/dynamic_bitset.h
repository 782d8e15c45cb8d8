// DynamicBitset: a runtime-sized bitset with the word-level operations the
// partition bitstring (Section 3.2 of the paper) needs: bitwise OR merge,
// population count, and fast iteration over set bits.

#ifndef SKYMR_COMMON_DYNAMIC_BITSET_H_
#define SKYMR_COMMON_DYNAMIC_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace skymr {

/// A fixed-size-at-construction bitset backed by 64-bit words.
class DynamicBitset {
 public:
  /// Creates an empty bitset (size 0).
  DynamicBitset() = default;

  /// Creates a bitset with `size` bits, all cleared.
  explicit DynamicBitset(size_t size);

  /// Creates a bitset from a string of '0'/'1' characters, index 0 first.
  static DynamicBitset FromString(const std::string& bits);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Returns bit `index`. Precondition: index < size().
  bool Test(size_t index) const {
    return (words_[index >> 6] >> (index & 63)) & 1u;
  }

  /// Sets bit `index` to 1.
  void Set(size_t index) { words_[index >> 6] |= uint64_t{1} << (index & 63); }

  /// Sets bit `index` to 0.
  void Reset(size_t index) {
    words_[index >> 6] &= ~(uint64_t{1} << (index & 63));
  }

  /// Clears all bits.
  void Clear();

  /// Sets all bits.
  void Fill();

  /// Number of set bits.
  size_t Count() const;

  /// True when no bit is set.
  bool None() const;

  /// True when every bit is set.
  bool All() const;

  /// Index of the first set bit, or size() when none.
  size_t FindFirst() const;

  /// Index of the first set bit strictly after `index`, or size() when none.
  size_t FindNext(size_t index) const;

  /// Index of the last set bit, or size() when none.
  size_t FindLast() const;

  /// Bitwise OR with `other`. Precondition: same size.
  DynamicBitset& operator|=(const DynamicBitset& other);

  /// Bitwise AND with `other`. Precondition: same size.
  DynamicBitset& operator&=(const DynamicBitset& other);

  /// Bitwise AND-NOT (this &= ~other). Precondition: same size.
  DynamicBitset& AndNot(const DynamicBitset& other);

  bool operator==(const DynamicBitset& other) const;
  bool operator!=(const DynamicBitset& other) const {
    return !(*this == other);
  }

  /// Calls `fn(index)` for every set bit in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Renders the bitset as a '0'/'1' string, index 0 first (as the paper
  /// writes bitstrings, e.g. "011110100" for Figure 2).
  std::string ToString() const;

  /// Number of bytes this bitset occupies on the wire.
  size_t ByteSize() const { return words_.size() * sizeof(uint64_t); }

  const std::vector<uint64_t>& words() const { return words_; }
  std::vector<uint64_t>& mutable_words() { return words_; }

  /// Rebuilds a bitset from its word representation.
  static DynamicBitset FromWords(size_t size, std::vector<uint64_t> words);

 private:
  /// Zeroes the unused high bits of the last word.
  void TrimTail();

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace skymr

#endif  // SKYMR_COMMON_DYNAMIC_BITSET_H_
