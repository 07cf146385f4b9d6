#include "common/serialize.hpp"

#include <array>
#include <cstring>

#include "common/crc32_hw.hpp"

namespace synergy {

const Bytes& SharedBytes::empty_bytes() {
  static const Bytes empty;
  return empty;
}

std::uint8_t* ByteWriter::grow(std::size_t n) {
  const std::size_t old = buf_.size();
  buf_.resize(old + n);
  return buf_.data() + old;
}

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::u32(std::uint32_t v) { store_le(grow(4), v); }

void ByteWriter::u64(std::uint64_t v) { store_le(grow(8), v); }

void ByteWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::bytes(const Bytes& b) {
  u32(static_cast<std::uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void ByteWriter::bytes_raw(const Bytes& b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void ByteWriter::bytes_raw(ByteView b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

bool ByteReader::require(std::size_t n) {
  if (failed_ || n > data_.size() - pos_) {
    failed_ = true;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() {
  if (!require(1)) return 0;
  return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
  if (!require(4)) return 0;
  pos_ += 4;
  return load_le<std::uint32_t>(data_.data() + pos_ - 4);
}

std::uint64_t ByteReader::u64() {
  if (!require(8)) return 0;
  pos_ += 8;
  return load_le<std::uint64_t>(data_.data() + pos_ - 8);
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  if (!require(n)) return {};
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

Bytes ByteReader::bytes() {
  const std::uint32_t n = u32();
  if (!require(n)) return {};
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
          data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

ByteView ByteReader::bytes_view() {
  const std::uint32_t n = u32();
  if (!require(n)) return {};
  ByteView v{data_.data() + pos_, n};
  pos_ += n;
  return v;
}

std::string_view ByteReader::str_view() {
  const ByteView v = bytes_view();
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

void ByteReader::skip(std::size_t n) {
  if (!require(n)) return;
  pos_ += n;
}

Bytes ByteReader::rest() {
  if (failed_) return {};
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_), data_.end());
  pos_ = data_.size();
  return out;
}

ByteView ByteReader::rest_view() {
  if (failed_) return {};
  ByteView out{data_.data() + pos_, data_.size() - pos_};
  pos_ = data_.size();
  return out;
}

std::uint64_t fingerprint(const Bytes& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;

// Slicing-by-8 tables. Table 0 is the classic byte-at-a-time table;
// table k extends a byte's effect through k further zero bytes, so eight
// input bytes fold into one table lookup each per 8-byte block.
struct Crc32Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t;
};

Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? kCrcPoly ^ (c >> 1) : c >> 1;
    }
    tables.t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = tables.t[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

const Crc32Tables& crc32_tables() {
  static const Crc32Tables tables = make_crc32_tables();
  return tables;
}

// Raw-state slicing-by-8 update: no 0xFFFFFFFF pre/post conditioning, so
// the dispatcher can run the PCLMUL kernel over the aligned middle of a
// buffer and finish the tail here on the same shift-register state.
std::uint32_t crc32_update_portable(std::uint32_t c, const std::uint8_t* data,
                                    std::size_t n) {
  const auto& t = crc32_tables().t;
  while (n >= 8) {
    const std::uint32_t one = load_le<std::uint32_t>(data) ^ c;
    const std::uint32_t two = load_le<std::uint32_t>(data + 4);
    c = t[7][one & 0xFF] ^ t[6][(one >> 8) & 0xFF] ^ t[5][(one >> 16) & 0xFF] ^
        t[4][one >> 24] ^ t[3][two & 0xFF] ^ t[2][(two >> 8) & 0xFF] ^
        t[1][(two >> 16) & 0xFF] ^ t[0][two >> 24];
    data += 8;
    n -= 8;
  }
  while (n--) {
    c = t[0][(c ^ *data++) & 0xFF] ^ (c >> 8);
  }
  return c;
}

// Minimum size worth the PCLMUL kernel: the kernel needs 64 bytes to seed
// its four accumulators, and below that the table path wins anyway.
constexpr std::size_t kCrcHwMin = 64;

bool g_crc_force_portable = false;

}  // namespace

void crc32_force_portable(bool force) { g_crc_force_portable = force; }

bool crc32_hw_active() {
  return !g_crc_force_portable && detail::crc32_pclmul_supported();
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  if (n >= kCrcHwMin && crc32_hw_active()) {
    const std::size_t chunk = n & ~std::size_t{15};
    c = detail::crc32_pclmul(c, data, chunk);
    data += chunk;
    n -= chunk;
  }
  return crc32_update_portable(c, data, n) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const Bytes& data) { return crc32(data.data(), data.size()); }

std::uint32_t crc32_reference(const std::uint8_t* data, std::size_t n) {
  const auto& table = crc32_tables().t[0];
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace synergy
