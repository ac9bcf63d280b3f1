#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace geoanon::util {

using Bytes = std::vector<std::uint8_t>;

/// Append-only big-endian serializer used for message bodies and for feeding
/// structured data into hashes/ciphers deterministically.
class ByteWriter {
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /// IEEE-754 bit pattern, big-endian — exact round trip.
    void f64(double v);
    void raw(std::span<const std::uint8_t> data);
    /// Length-prefixed (u32) byte string.
    void bytes(std::span<const std::uint8_t> data);
    void str(std::string_view s);

    const Bytes& data() const { return buf_; }
    Bytes take() { return std::move(buf_); }

  private:
    Bytes buf_;
};

/// Bounds-checked reader matching ByteWriter's encoding. All getters return
/// nullopt on underflow rather than throwing; a failed read leaves the cursor
/// unspecified, so callers should bail out on the first nullopt.
class ByteReader {
  public:
    explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::optional<std::uint8_t> u8();
    std::optional<std::uint16_t> u16();
    std::optional<std::uint32_t> u32();
    std::optional<std::uint64_t> u64();
    std::optional<double> f64();
    std::optional<Bytes> raw(std::size_t n);
    /// Reads a u32 length prefix then that many bytes.
    std::optional<Bytes> bytes();
    std::optional<std::string> str();

    std::size_t remaining() const { return data_.size() - pos_; }

  private:
    std::span<const std::uint8_t> data_;
    std::size_t pos_{0};
};

/// Big-endian fixed-width stores and loads into caller-owned buffers, in
/// ByteWriter/ByteReader byte order, for paths that must not allocate.
inline void store_be32(std::uint8_t* out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
}
inline void store_be64(std::uint8_t* out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}
inline std::uint64_t load_be64(const std::uint8_t* in) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | in[i];
    return v;
}

/// Lowercase hex encoding of a byte span.
std::string to_hex(std::span<const std::uint8_t> data);

/// Parses lowercase/uppercase hex; nullopt on odd length or bad digit.
std::optional<Bytes> from_hex(std::string_view hex);

/// Constant-time-ish equality (length leak only); fine for a simulator.
bool bytes_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

}  // namespace geoanon::util
