// Binary serialization used by the MapReduce shuffle.
//
// The engine round-trips every shuffled key and value through this layer so
// that (1) shuffle byte counts are exact, matching what a real Hadoop
// deployment would put on the wire, and (2) no in-memory state can leak
// between "nodes" through a value type.
//
// A type T is shuffle-serializable when Serde<T> provides:
//   static void Write(const T&, ByteSink*);
//   static T Read(ByteSource*);
// Specializations are provided for arithmetic types, std::string,
// std::pair, std::vector, and DynamicBitset. Library message types add
// their own specializations next to their definitions.

#ifndef SKYMR_COMMON_SERDE_H_
#define SKYMR_COMMON_SERDE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/dynamic_bitset.h"
#include "src/common/logging.h"

namespace skymr {

/// Thrown when a deserializer would read past the end of its buffer
/// (truncated or corrupt shuffle data). Checked in every build mode; the
/// MapReduce engine treats it like a task failure, so a bad payload fails
/// the task instead of reading out of bounds.
class SerdeUnderflow : public std::runtime_error {
 public:
  explicit SerdeUnderflow(const std::string& what)
      : std::runtime_error(what) {}
};

/// An append-only byte buffer used as a serialization target. A counting
/// sink (ByteSink::Counting()) stores nothing and only adds up the sizes
/// appended to it, so SerializedByteSize walks a value without encoding it.
class ByteSink {
 public:
  static ByteSink Counting() {
    ByteSink sink;
    sink.counting_ = true;
    return sink;
  }

  void Append(const void* data, size_t size) {
    if (counting_) {
      counted_ += size;
      return;
    }
    if (size == 0) {
      return;  // `data` may be null (e.g. an empty vector's data()).
    }
    const auto* bytes = static_cast<const uint8_t*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + size);
  }

  template <typename T>
  void AppendRaw(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Append(&value, sizeof(T));
  }

  /// Sizes the buffer for `bytes` in total, so appends up to that size
  /// neither reallocate nor leave growth slack.
  void Reserve(size_t bytes) { buffer_.reserve(bytes); }

  /// Bytes appended so far (stored, or only counted).
  size_t size() const { return counting_ ? counted_ : buffer_.size(); }
  const uint8_t* data() const { return buffer_.data(); }
  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
  bool counting_ = false;
  size_t counted_ = 0;
};

/// A sequential reader over a byte buffer produced by ByteSink.
class ByteSource {
 public:
  ByteSource(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteSource(const std::vector<uint8_t>& buffer)
      : data_(buffer.data()), size_(buffer.size()) {}

  void Read(void* out, size_t size) {
    if (size > size_ - pos_) {  // pos_ <= size_ always holds.
      throw SerdeUnderflow("serde underflow: need " + std::to_string(size) +
                           " bytes, " + std::to_string(size_ - pos_) +
                           " remaining");
    }
    if (size == 0) {
      return;  // `out` may be null (e.g. an empty vector's data()).
    }
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
  }

  template <typename T>
  T ReadRaw() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    Read(&value, sizeof(T));
    return value;
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

namespace serde_internal {

/// Validates a length prefix read from untrusted bytes: `count` elements
/// of `elem_size` bytes each must fit in the source's remaining bytes.
/// The division form makes the check immune to `count * elem_size`
/// overflowing uint64 (a corrupt length near 2^64 must underflow, not
/// wrap around to a small allocation). Returns the byte total.
inline uint64_t CheckedLengthBytes(uint64_t count, uint64_t elem_size,
                                   const ByteSource& source,
                                   const char* what) {
  if (count > source.remaining() / elem_size) {
    throw SerdeUnderflow(std::string("serde underflow: ") + what +
                         " length " + std::to_string(count) +
                         " exceeds remaining " +
                         std::to_string(source.remaining()));
  }
  return count * elem_size;  // <= remaining(), so this cannot overflow.
}

/// Caps a container reservation made from an untrusted length prefix.
/// Elements still underflow individually while being read; this only
/// bounds the up-front allocation so a corrupt length cannot demand
/// `count * sizeof(T)` bytes before the first element read fails.
inline size_t BoundedReserve(uint64_t count, const ByteSource& source) {
  constexpr uint64_t kMaxUpFront = 1024;
  return static_cast<size_t>(std::min(
      count, std::min<uint64_t>(source.remaining(), kMaxUpFront)));
}

}  // namespace serde_internal

template <typename T, typename Enable = void>
struct Serde;

/// Arithmetic types and enums: raw little-endian bytes.
template <typename T>
struct Serde<T, std::enable_if_t<std::is_arithmetic_v<T> || std::is_enum_v<T>>> {
  static void Write(const T& value, ByteSink* sink) { sink->AppendRaw(value); }
  static T Read(ByteSource* source) { return source->ReadRaw<T>(); }
};

template <>
struct Serde<std::string> {
  static void Write(const std::string& value, ByteSink* sink) {
    sink->AppendRaw<uint64_t>(value.size());
    sink->Append(value.data(), value.size());
  }
  static std::string Read(ByteSource* source) {
    const auto size = source->ReadRaw<uint64_t>();
    serde_internal::CheckedLengthBytes(size, 1, *source, "string");
    std::string out(size, '\0');
    source->Read(out.data(), size);
    return out;
  }
};

template <typename A, typename B>
struct Serde<std::pair<A, B>> {
  static void Write(const std::pair<A, B>& value, ByteSink* sink) {
    Serde<A>::Write(value.first, sink);
    Serde<B>::Write(value.second, sink);
  }
  static std::pair<A, B> Read(ByteSource* source) {
    A first = Serde<A>::Read(source);
    B second = Serde<B>::Read(source);
    return {std::move(first), std::move(second)};
  }
};

template <typename T>
struct Serde<std::vector<T>> {
  static void Write(const std::vector<T>& value, ByteSink* sink) {
    sink->AppendRaw<uint64_t>(value.size());
    if constexpr (std::is_trivially_copyable_v<T>) {
      sink->Append(value.data(), value.size() * sizeof(T));
    } else {
      for (const T& item : value) {
        Serde<T>::Write(item, sink);
      }
    }
  }
  static std::vector<T> Read(ByteSource* source) {
    const auto size = source->ReadRaw<uint64_t>();
    std::vector<T> out;
    if constexpr (std::is_trivially_copyable_v<T>) {
      const uint64_t bytes =
          serde_internal::CheckedLengthBytes(size, sizeof(T), *source,
                                             "vector");
      out.resize(size);
      source->Read(out.data(), bytes);
    } else {
      // Element reads underflow on their own; just bound the reservation
      // so a corrupt length cannot force a huge allocation up front.
      out.reserve(serde_internal::BoundedReserve(size, *source));
      for (uint64_t i = 0; i < size; ++i) {
        out.push_back(Serde<T>::Read(source));
      }
    }
    return out;
  }
};

template <>
struct Serde<DynamicBitset> {
  static void Write(const DynamicBitset& value, ByteSink* sink) {
    sink->AppendRaw<uint64_t>(value.size());
    sink->Append(value.words().data(),
                 value.words().size() * sizeof(uint64_t));
  }
  static DynamicBitset Read(ByteSource* source) {
    const auto size = source->ReadRaw<uint64_t>();
    // size / 64 (not (size + 63) / 64) so a bit count near 2^64 cannot
    // wrap the word count around to a small number.
    const uint64_t word_count = size / 64 + (size % 64 != 0 ? 1 : 0);
    serde_internal::CheckedLengthBytes(word_count, sizeof(uint64_t), *source,
                                       "bitset");
    std::vector<uint64_t> words(word_count);
    source->Read(words.data(), words.size() * sizeof(uint64_t));
    return DynamicBitset::FromWords(size, std::move(words));
  }
};

/// Serializes a value to a standalone byte vector.
template <typename T>
std::vector<uint8_t> SerializeToBytes(const T& value) {
  ByteSink sink;
  Serde<T>::Write(value, &sink);
  return sink.TakeBuffer();
}

/// Deserializes a value previously produced by SerializeToBytes.
template <typename T>
T DeserializeFromBytes(const std::vector<uint8_t>& bytes) {
  ByteSource source(bytes);
  return Serde<T>::Read(&source);
}

/// Exact encoded size of a value, used for shuffle byte accounting and
/// arena sizing: the encoder runs against a counting sink, so no byte is
/// copied.
template <typename T>
size_t SerializedByteSize(const T& value) {
  ByteSink sink = ByteSink::Counting();
  Serde<T>::Write(value, &sink);
  return sink.size();
}

}  // namespace skymr

#endif  // SKYMR_COMMON_SERDE_H_
