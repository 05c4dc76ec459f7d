#include "mmlab/util/bitio.hpp"

namespace mmlab {

void BitWriter::write(std::uint64_t value, unsigned width) {
  if (width > 64) throw std::invalid_argument("BitWriter: width > 64");
  if (width == 0) return;
  if (width < 64) value &= (1ULL << width) - 1;
  const std::size_t end = bit_size_ + width;
  bytes_.resize((end + 7) / 8);  // new bytes start zeroed
  std::uint8_t* p = bytes_.data() + bit_size_ / 8;
  unsigned left = width;  // bits of `value` still to place, low-aligned
  const unsigned used = static_cast<unsigned>(bit_size_ % 8);
  bit_size_ = end;
  if (used != 0) {
    const unsigned room = 8 - used;
    if (left <= room) {
      *p |= static_cast<std::uint8_t>(value << (room - left));
      return;
    }
    left -= room;
    *p++ |= static_cast<std::uint8_t>(value >> left);
  }
  while (left >= 8) {
    left -= 8;
    *p++ = static_cast<std::uint8_t>(value >> left);
  }
  if (left != 0) *p = static_cast<std::uint8_t>(value << (8 - left));
}

void BitWriter::write_reference(std::uint64_t value, unsigned width) {
  if (width > 64) throw std::invalid_argument("BitWriter: width > 64");
  if (width < 64) value &= (1ULL << width) - 1;
  for (unsigned i = width; i-- > 0;) {
    const bool bit = (value >> i) & 1ULL;
    const std::size_t byte = bit_size_ / 8;
    const unsigned offset = 7 - static_cast<unsigned>(bit_size_ % 8);
    if (byte == bytes_.size()) bytes_.push_back(0);
    if (bit) bytes_[byte] |= static_cast<std::uint8_t>(1u << offset);
    ++bit_size_;
  }
}

void BitWriter::write_ranged(std::int64_t value, std::int64_t min,
                             unsigned width) {
  if (value < min) throw std::invalid_argument("BitWriter: value below min");
  const auto delta = static_cast<std::uint64_t>(value - min);
  if (width < 64 && delta >= (1ULL << width))
    throw std::invalid_argument("BitWriter: value exceeds field range");
  write(delta, width);
}

void BitWriter::align() {
  if (bit_size_ % 8 != 0) write(0, 8 - static_cast<unsigned>(bit_size_ % 8));
}

std::uint64_t BitReader::read(unsigned width) {
  if (width > 64) throw std::invalid_argument("BitReader: width > 64");
  if (pos_ + width > size_bits_) throw BitUnderflow{};
  if (width == 0) return 0;
  const std::size_t byte = pos_ / 8;
  const unsigned bit = static_cast<unsigned>(pos_ % 8);
  // Fast path: with 8 whole bytes at the cursor, any field of <= 64 - bit
  // bits falls inside one big-endian 64-bit load; wider fields (bit > 0)
  // spill at most 7 bits into the following byte, which the underflow
  // check above already proved in bounds (bit + width > 64 forces
  // byte + 8 < size_bits_ / 8).  The byte-wise assembly compiles to a
  // single load + bswap; unaligned access stays portable.
  if (byte + 8 <= size_bits_ / 8) {
    std::uint64_t w = 0;
    for (unsigned i = 0; i < 8; ++i) w = (w << 8) | data_[byte + i];
    pos_ += width;
    if (bit + width <= 64) {
      const std::uint64_t mask =
          width == 64 ? ~0ULL : (1ULL << width) - 1;
      return (w >> (64 - bit - width)) & mask;
    }
    const unsigned rem = bit + width - 64;  // in [1, 7]
    const std::uint64_t head = w & ((1ULL << (64 - bit)) - 1);
    return (head << rem) | (data_[byte + 8] >> (8 - rem));
  }
  // Tail (< 8 bytes left): the same extract from the remaining bytes,
  // zero-padded into one word.  The field ends inside them (the underflow
  // check), so bit + width <= 56 and no spill byte exists.
  std::uint64_t w = 0;
  const std::size_t n = size_bits_ / 8 - byte;
  for (std::size_t i = 0; i < n; ++i) w = (w << 8) | data_[byte + i];
  w <<= 8 * (8 - n);
  pos_ += width;
  return (w >> (64 - bit - width)) & ((1ULL << width) - 1);
}

std::uint64_t BitReader::read_reference(unsigned width) {
  if (width > 64) throw std::invalid_argument("BitReader: width > 64");
  if (pos_ + width > size_bits_) throw BitUnderflow{};
  std::uint64_t value = 0;
  for (unsigned i = 0; i < width; ++i) {
    const std::size_t byte = pos_ / 8;
    const unsigned offset = 7 - static_cast<unsigned>(pos_ % 8);
    value = (value << 1) | ((data_[byte] >> offset) & 1u);
    ++pos_;
  }
  return value;
}

void BitReader::align() {
  while (pos_ % 8 != 0 && pos_ < size_bits_) ++pos_;
}

}  // namespace mmlab
