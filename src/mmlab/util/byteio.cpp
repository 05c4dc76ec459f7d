#include "mmlab/util/byteio.hpp"

#include <bit>
#include <cstring>

#include "mmlab/util/crc.hpp"

namespace mmlab {

// --- ByteWriter --------------------------------------------------------------

void ByteWriter::u16le(std::uint16_t v) {
  bytes_.push_back(static_cast<std::uint8_t>(v & 0xFF));
  bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::f64le(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i)
    bytes_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::raw(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

void ByteWriter::str(std::string_view s) {
  varint(s.size());
  raw(s.data(), s.size());
}

// --- ByteReader --------------------------------------------------------------

std::uint8_t ByteReader::u8() {
  if (pos_ >= size_) throw ByteUnderflow();
  return data_[pos_++];
}

std::uint16_t ByteReader::u16le() {
  if (size_ - pos_ < 2) throw ByteUnderflow();
  const std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

double ByteReader::f64le() {
  if (size_ - pos_ < 8) throw ByteUnderflow();
  std::uint64_t bits;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&bits, data_ + pos_, 8);
  } else {
    bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t ByteReader::varint() {
  // One-byte varints (most ids, counts and deltas) are a byte test; the
  // word scan costs about three times that on them.
  if (pos_ < size_ && data_[pos_] < 0x80) return data_[pos_++];
  // SWAR fast path (see the header contract): with a full 10-byte window
  // available no truncation is possible within the first 8 encoded bytes,
  // so one unaligned word load replaces up to 8 bounds-checked byte loads.
  if constexpr (std::endian::native == std::endian::little) {
    if (size_ - pos_ >= 10) {
      std::uint64_t v;
      if (const unsigned len = varint8_swar(data_ + pos_, v)) {
        pos_ += len;
        return v;
      }
      // 9- and 10-byte varints (values >= 2^56) are rare enough that the
      // reference loop — which also owns the over-long rejection — takes
      // them.
    }
  }
  return varint_reference();
}

std::uint64_t ByteReader::varint_reference() {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 70; shift += 7) {
    if (pos_ >= size_) throw ByteUnderflow("truncated varint");
    const std::uint8_t byte = data_[pos_++];
    if (shift == 63 && (byte & ~std::uint8_t{1}))
      throw ByteUnderflow("over-long varint");
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) return v;
  }
  throw ByteUnderflow("over-long varint");
}

const std::uint8_t* ByteReader::raw(std::size_t size) {
  if (size_ - pos_ < size) throw ByteUnderflow();
  const std::uint8_t* p = data_ + pos_;
  pos_ += size;
  return p;
}

std::string_view ByteReader::str() {
  const std::uint64_t n = varint();
  if (n > remaining()) throw ByteUnderflow("truncated string");
  const auto* p = raw(static_cast<std::size_t>(n));
  return {reinterpret_cast<const char*>(p), static_cast<std::size_t>(n)};
}

std::size_t ByteReader::count(std::string_view table) {
  const std::uint64_t n = varint();
  if (n > remaining())
    throw ByteUnderflow(std::string(table) + " count " + std::to_string(n) +
                        " exceeds the " + std::to_string(remaining()) +
                        " bytes left");
  return static_cast<std::size_t>(n);
}

void ByteReader::skip(std::size_t n) {
  if (size_ - pos_ < n) throw ByteUnderflow();
  pos_ += n;
}

// --- FileWriter --------------------------------------------------------------

FileWriter::FileWriter(const std::string& path)
    : file_(std::fopen(path.c_str(), "wb")), path_(path) {
  if (!file_) throw std::runtime_error("FileWriter: cannot open " + path);
  std::setvbuf(file_, nullptr, _IONBF, 0);
}

FileWriter::~FileWriter() {
  if (file_) std::fclose(file_);
}

void FileWriter::write(const void* data, std::size_t size) {
  if (size == 0) return;
  if (!file_) throw std::logic_error("FileWriter: write after close: " + path_);
  if (std::fwrite(data, 1, size, file_) != size)
    throw std::runtime_error("FileWriter: write failed: " + path_);
  bytes_written_ += size;
}

void FileWriter::close() {
  if (!file_) return;
  std::FILE* f = file_;
  file_ = nullptr;
  // fclose releases the stream even when it fails, so there is nothing
  // left for the destructor to clean up either way.
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!flushed || !closed)
    throw std::runtime_error("FileWriter: close failed: " + path_);
}

// --- BufferedFileWriter ------------------------------------------------------

BufferedFileWriter::BufferedFileWriter(const std::string& path,
                                       std::size_t buffer_size)
    : file_(path), buffer_(buffer_size), crc_state_(kCrc16CcittInit) {}

BufferedFileWriter::~BufferedFileWriter() {
  // Best effort: flush() throws on failure, the destructor must not.
  try {
    flush();
  } catch (const std::exception&) {
  }
}

void BufferedFileWriter::write(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc_state_ = crc16_ccitt_update(crc_state_, p, size);
  bytes_written_ += size;
  while (size > 0) {
    if (fill_ == buffer_.size()) flush();
    const std::size_t n = std::min(size, buffer_.size() - fill_);
    std::memcpy(buffer_.data() + fill_, p, n);
    fill_ += n;
    p += n;
    size -= n;
  }
}

std::uint16_t BufferedFileWriter::crc16() const {
  return crc16_ccitt_finalize(crc_state_);
}

void BufferedFileWriter::flush() {
  const std::size_t n = fill_;
  fill_ = 0;
  file_.write(buffer_.data(), n);
}

void BufferedFileWriter::close() {
  flush();
  file_.close();
}

// --- BufferedFileReader ------------------------------------------------------

BufferedFileReader::BufferedFileReader(const std::string& path,
                                       std::size_t buffer_size)
    : file_(std::fopen(path.c_str(), "rb")), buffer_(buffer_size) {
  if (!file_)
    throw std::runtime_error("BufferedFileReader: cannot open " + path);
  std::setvbuf(file_, reinterpret_cast<char*>(buffer_.data()), _IOFBF,
               buffer_.size());
}

BufferedFileReader::~BufferedFileReader() {
  if (file_) std::fclose(file_);
}

std::size_t BufferedFileReader::read(void* out, std::size_t size) {
  return std::fread(out, 1, size, file_);
}

// --- whole-file helpers ------------------------------------------------------

namespace {

template <typename Container>
bool read_file_into(const std::string& path, Container& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  out.clear();
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long size = std::ftell(f);
    if (size > 0) out.reserve(static_cast<std::size_t>(size));
    std::fseek(f, 0, SEEK_SET);
  }
  char chunk[64 * 1024];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
    out.insert(out.end(), chunk, chunk + n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace

bool read_file_bytes(const std::string& path, std::vector<std::uint8_t>& out) {
  return read_file_into(path, out);
}

bool read_file_text(const std::string& path, std::string& out) {
  return read_file_into(path, out);
}

}  // namespace mmlab
