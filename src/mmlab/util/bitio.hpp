// Bit-granular serialization, MSB-first, as used by the RRC codec.
//
// 3GPP RRC messages are ASN.1 UPER encoded: fields occupy the minimum number
// of bits for their constrained range and are packed back to back with no
// byte alignment.  BitWriter/BitReader provide exactly that primitive; the
// codec layers field semantics (offsets, step sizes) on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace mmlab {

/// Error thrown when a read runs past the end of the buffer.
class BitUnderflow : public std::runtime_error {
 public:
  BitUnderflow() : std::runtime_error("bit buffer underflow") {}
};

class BitWriter {
 public:
  /// Append the low `width` bits of `value`, MSB first. width in [0, 64].
  /// Byte-wise: one resize, then the partial head byte, the whole bytes and
  /// the tail — the RRC encode hot path.
  void write(std::uint64_t value, unsigned width);

  /// The original bit-at-a-time loop, kept as the property-test oracle for
  /// write() (tests/test_bitio.cpp).  Identical contract and bytes.
  void write_reference(std::uint64_t value, unsigned width);

  /// Append a single bit.
  void write_bit(bool bit) { write(bit ? 1 : 0, 1); }

  /// Append a signed value stored as offset-binary over `width` bits with
  /// the given minimum, i.e. encodes (value - min).
  void write_ranged(std::int64_t value, std::int64_t min, unsigned width);

  /// Pad with zero bits to the next byte boundary.
  void align();

  /// Room for `bytes` before the buffer grows (write() resizes per call).
  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

  std::size_t bit_size() const { return bit_size_; }
  /// Final byte buffer; trailing partial byte is zero-padded.
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() && { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_size_ = 0;
};

class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size_bytes)
      : data_(data), size_bits_(size_bytes * 8) {}
  explicit BitReader(const std::vector<std::uint8_t>& buf)
      : BitReader(buf.data(), buf.size()) {}

  /// Read `width` bits MSB-first. Throws BitUnderflow past the end (the
  /// position is unchanged on throw).  Batched: whenever 8 bytes remain at
  /// the cursor, the field is extracted from one 64-bit big-endian load
  /// (plus at most one spill byte for fields straddling past bit 64); with
  /// fewer left, the remaining bytes are loaded zero-padded into one word
  /// — the RRC decode hot path, whose short payloads live in that tail.
  std::uint64_t read(unsigned width);

  /// The original bit-at-a-time loop, kept as the property-test oracle for
  /// the batched fast path (tests/test_bitio.cpp sweeps both across widths,
  /// offsets and buffer tails, mirroring the SWAR varint oracle in
  /// byteio.hpp).  Identical contract to read().
  std::uint64_t read_reference(unsigned width);

  bool read_bit() { return read(1) != 0; }

  /// Inverse of BitWriter::write_ranged.
  std::int64_t read_ranged(std::int64_t min, unsigned width) {
    return min + static_cast<std::int64_t>(read(width));
  }

  /// Skip to the next byte boundary.
  void align();

  std::size_t remaining_bits() const { return size_bits_ - pos_; }
  std::size_t position_bits() const { return pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_bits_;
  std::size_t pos_ = 0;
};

}  // namespace mmlab
