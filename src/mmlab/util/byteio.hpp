// Byte-granular serialization for the MMDS binary dataset format.
//
// Complements util/bitio (bit-packed, for the RRC codec) with the byte-level
// primitives a file format wants: LEB128 varints, zigzag-mapped signed
// varints, raw little-endian scalars, buffered file streaming with an
// incremental CRC-16 so multi-hundred-MB datasets never need a full
// in-memory copy on the write path, and an unbuffered writer for callers
// that already hold whole blocks.  Every writer reports write and close
// failures by throwing.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mmlab {

/// Error thrown when a read runs past the end of the buffer or hits a
/// malformed (over-long) varint.
class ByteUnderflow : public std::runtime_error {
 public:
  explicit ByteUnderflow(const char* what) : std::runtime_error(what) {}
  explicit ByteUnderflow(const std::string& what) : std::runtime_error(what) {}
  ByteUnderflow() : std::runtime_error("byte buffer underflow") {}
};

/// Zigzag mapping: interleaves negative and positive values so small-
/// magnitude signed integers get small varints (-1 -> 1, 1 -> 2, ...).
constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t zigzag_decode(std::uint64_t u) {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

/// Bytes in the LEB128 encoding of `v` (1..10).
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// The SWAR core of ByteReader::varint's fast path, for decode kernels that
/// do their own bounds checks: decodes the LEB128 varint at `p` when it is
/// at most 8 bytes long and returns its length, or returns 0 (leaving `v`
/// alone) when the first 8 bytes all carry a continuation bit.  Reads
/// exactly 8 bytes at `p`, which the caller must own; little-endian hosts
/// only.
inline unsigned varint8_swar(const std::uint8_t* p, std::uint64_t& v) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  // A clear high bit in byte i shows up as a set bit in z at 8i+7, and
  // countr_zero finds the first.
  const std::uint64_t z = ~w & 0x8080808080808080ull;
  if (z == 0) return 0;
  const unsigned len = static_cast<unsigned>(std::countr_zero(z)) / 8 + 1;
  if (len < 8) w &= (std::uint64_t{1} << (8 * len)) - 1;
  w &= 0x7F7F7F7F7F7F7F7Full;
  // Fold the 7-bit payload groups together (8 bytes -> 56 bits).
  w = ((w & 0x7F007F007F007F00ull) >> 1) | (w & 0x007F007F007F007Full);
  w = ((w & 0x3FFF00003FFF0000ull) >> 2) | (w & 0x00003FFF00003FFFull);
  w = ((w & 0x0FFFFFFF00000000ull) >> 4) | (w & 0x000000000FFFFFFFull);
  v = w;
  return len;
}

/// Append-only in-memory byte buffer with varint/scalar encoders.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16le(std::uint16_t v);
  /// Raw IEEE-754 bit pattern, little-endian — bit-exact round trip for
  /// every double including NaN payloads and signed zero.
  void f64le(double v);
  /// LEB128: 7 value bits per byte, high bit = continuation. 1..10 bytes.
  void varint(std::uint64_t v);
  void svarint(std::int64_t v) { varint(zigzag_encode(v)); }
  void raw(const void* data, std::size_t size);
  /// varint length prefix + bytes.
  void str(std::string_view s);

  /// Pointer-kernel support: append `n` zeroed bytes and return a pointer
  /// to the first.  A kernel sizes `n` by a worst-case bound, writes
  /// through the pointer, then truncate()s to the bytes it used.
  std::uint8_t* extend(std::size_t n) {
    const std::size_t old = bytes_.size();
    bytes_.resize(old + n);
    return bytes_.data() + old;
  }
  void truncate(std::size_t size) { bytes_.resize(size); }
  void reserve(std::size_t n) { bytes_.reserve(n); }

  std::size_t size() const { return bytes_.size(); }
  const std::vector<std::uint8_t>& buffer() const { return bytes_; }
  std::vector<std::uint8_t> take() && { return std::move(bytes_); }
  void clear() { bytes_.clear(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Sequential reader over a caller-owned byte span. Throws ByteUnderflow on
/// truncation or malformed varints; the dataset loader converts that into a
/// load error instead of a silent partial load.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint16_t u16le();
  double f64le();
  /// LEB128 decode.  A one-byte varint is read straight from its byte.
  /// Fast path for longer ones: when at least 10 bytes remain (the longest
  /// legal varint), an 8-byte little-endian word is scanned branch-free for
  /// the first clear continuation bit and its 7-bit groups compacted in
  /// O(1) — covering every varint of up to 8 encoded bytes (values below
  /// 2^56, i.e. all ids/channels/counts/deltas in practice).  Longer
  /// varints, buffer tails and big-endian hosts take varint_reference(),
  /// which stays the byte-at-a-time oracle (property-swept against the
  /// fast path in test_byteio.cpp, the crc16_ccitt_update_reference idiom).
  std::uint64_t varint();
  /// The reference byte-at-a-time decoder: bit-identical results, errors
  /// and final position to varint() on every input.
  std::uint64_t varint_reference();
  std::int64_t svarint() { return zigzag_decode(varint()); }
  /// Borrow `size` bytes (no copy); the view aliases the underlying span.
  const std::uint8_t* raw(std::size_t size);
  /// Inverse of ByteWriter::str.
  std::string_view str();
  /// A varint table count, checked before the caller allocates for it:
  /// every table entry takes at least one byte, so a count above
  /// remaining() is damage.  Throws ByteUnderflow naming `table`, which
  /// keeps a decoder's allocation bounded by its input size.
  std::size_t count(std::string_view table);
  void skip(std::size_t n);

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Unbuffered sequential file writer: every write() goes straight to the
/// OS (stdio buffering is off) and is checked, so no failure can hide in a
/// library buffer.  The shard writer hands it whole block buffers; small
/// writes belong in BufferedFileWriter.
class FileWriter {
 public:
  /// Throws std::runtime_error if the file cannot be opened.
  explicit FileWriter(const std::string& path);
  /// Closes without reporting errors: call close() to find out whether
  /// the bytes reached the file.
  ~FileWriter();
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  /// Throws std::runtime_error on a short or failed write.
  void write(const void* data, std::size_t size);
  /// Total bytes written — the current file offset.
  std::uint64_t bytes_written() const { return bytes_written_; }
  /// Close the file; throws std::runtime_error if the close (or any write
  /// the OS deferred to it) failed.  The writer is unusable afterwards;
  /// a second close() is a no-op.
  void close();

 private:
  std::FILE* file_;
  std::string path_;
  std::uint64_t bytes_written_ = 0;
};

/// Buffered sequential file writer that maintains a running CRC-16/CCITT
/// over every byte written. The dataset saver streams carrier blocks
/// through it and appends crc16() as the file trailer.
class BufferedFileWriter {
 public:
  /// Throws std::runtime_error if the file cannot be opened.
  explicit BufferedFileWriter(const std::string& path,
                              std::size_t buffer_size = 256 * 1024);
  /// Best effort, errors unreported: call close() to learn of them.
  ~BufferedFileWriter();
  BufferedFileWriter(const BufferedFileWriter&) = delete;
  BufferedFileWriter& operator=(const BufferedFileWriter&) = delete;

  void write(const void* data, std::size_t size);
  /// CRC-16/CCITT of everything written so far.
  std::uint16_t crc16() const;
  /// Total bytes accepted by write() — the current file offset once
  /// flushed.
  std::uint64_t bytes_written() const { return bytes_written_; }
  /// Hand buffered bytes to the OS; throws on write failure.
  void flush();
  /// flush() then close the file; throws std::runtime_error if either
  /// fails.  Writers that must not report success on a full disk end
  /// with this.  A second close() is a no-op.
  void close();

 private:
  FileWriter file_;
  std::vector<std::uint8_t> buffer_;
  std::size_t fill_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint16_t crc_state_;
};

/// Buffered sequential file reader.
class BufferedFileReader {
 public:
  /// Throws std::runtime_error if the file cannot be opened.
  explicit BufferedFileReader(const std::string& path,
                              std::size_t buffer_size = 256 * 1024);
  ~BufferedFileReader();
  BufferedFileReader(const BufferedFileReader&) = delete;
  BufferedFileReader& operator=(const BufferedFileReader&) = delete;

  /// Read up to `size` bytes; returns the number actually read (short only
  /// at end of file).
  std::size_t read(void* out, std::size_t size);

 private:
  std::FILE* file_;
  std::vector<std::uint8_t> buffer_;
};

/// Slurp a whole file. Returns false if the file cannot be opened/read.
bool read_file_bytes(const std::string& path, std::vector<std::uint8_t>& out);
bool read_file_text(const std::string& path, std::string& out);

}  // namespace mmlab
