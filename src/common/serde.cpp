#include "common/serde.hpp"

namespace peace {

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void Writer::u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void Writer::bytes(BytesView data) {
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void Writer::count(std::size_t n) {
  if (wide_counts_) u64(n);
  else u32(static_cast<std::uint32_t>(n));
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw Error("serde: truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = v << 8 | data_[pos_ + i];
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | data_[pos_ + i];
  pos_ += 8;
  return v;
}

Bytes Reader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Bytes Reader::bytes() {
  const std::uint32_t n = u32();
  return raw(n);
}

std::string Reader::str() {
  Bytes b = bytes();
  return std::string(b.begin(), b.end());
}

std::size_t Reader::count() {
  const std::uint64_t n = wide_counts_ ? u64() : u32();
  if (n > remaining() / 4) throw Error("serde: bad element count");
  return static_cast<std::size_t>(n);
}

void Reader::expect_end() const {
  if (!empty()) throw Error("serde: trailing bytes");
}

}  // namespace peace
