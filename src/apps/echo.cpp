#include "apps/echo.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

namespace tfo::apps {

namespace {

// The payload is defined by a serial xorshift32 chain (Marsaglia's 13/17/5
// triple): byte i is the low byte of the state after step i + 1.
constexpr std::uint32_t xorshift32(std::uint32_t x) {
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  return x;
}

// xorshift32 is linear over GF(2): one step is x -> M·x for a fixed 32×32
// bit matrix M, so the state k steps ahead is M^k·x. A matrix is stored by
// columns (col[j] is the image of bit j); multiplying a state by it XORs
// the columns of the state's set bits.
using BitMatrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t mul(const BitMatrix& m, std::uint32_t x) {
  std::uint32_t r = 0;
  for (int j = 0; j < 32; ++j) r ^= m[j] & (0u - ((x >> j) & 1u));
  return r;
}

// kJump[e] = M^(2^e), squared out at compile time so no call pays for it.
constexpr std::array<BitMatrix, 64> make_jump_table() {
  std::array<BitMatrix, 64> t{};
  for (int j = 0; j < 32; ++j) t[0][j] = xorshift32(1u << j);
  for (int e = 1; e < 64; ++e) {
    for (int j = 0; j < 32; ++j) t[e][j] = mul(t[e - 1], t[e - 1][j]);
  }
  return t;
}
constexpr std::array<BitMatrix, 64> kJump = make_jump_table();

/// The state `k` steps after `x`, in popcount(k) matrix applications.
std::uint32_t jump(std::uint32_t x, std::uint64_t k) {
  for (int e = 0; k != 0; ++e, k >>= 1) {
    if (k & 1) x = mul(kJump[e], x);
  }
  return x;
}

void fill_serial(std::uint8_t* out, std::size_t n, std::uint32_t x) {
  for (std::size_t i = 0; i < n; ++i) {
    x = xorshift32(x);
    out[i] = static_cast<std::uint8_t>(x);
  }
}

constexpr std::size_t kLanes = 8;
/// Below this many bytes the seven lane jumps cost more than they save.
constexpr std::size_t kLaneMinBytes = 256;

using U32x4 = std::uint32_t __attribute__((vector_size(16)));

/// Fills `out[0, 8 * block)` as eight lanes of `block` bytes (`block` a
/// multiple of 4), lane L starting from the state L * block steps after
/// `x`. The lanes advance together in two 4-wide vectors; every 4 steps
/// each lane packs its 4 bytes into one 32-bit store. Returns the state
/// after the last byte (lane 7's final state).
std::uint32_t fill_lanes(std::uint8_t* out, std::size_t block, std::uint32_t x) {
  std::uint32_t start[kLanes];
  start[0] = x;
  for (std::size_t l = 1; l < kLanes; ++l) start[l] = jump(start[l - 1], block);
  U32x4 lo = {start[0], start[1], start[2], start[3]};
  U32x4 hi = {start[4], start[5], start[6], start[7]};
  // Byte t of a group lands at address offset t whatever the host's byte
  // order: place it in the word accordingly before the native store.
  constexpr bool kLittle = std::endian::native == std::endian::little;
  constexpr int kShift[4] = {kLittle ? 0 : 24, kLittle ? 8 : 16, kLittle ? 16 : 8,
                             kLittle ? 24 : 0};
  for (std::size_t off = 0; off < block; off += 4) {
    U32x4 wlo = {0, 0, 0, 0};
    U32x4 whi = {0, 0, 0, 0};
    for (int t = 0; t < 4; ++t) {
      lo ^= lo << 13;
      hi ^= hi << 13;
      lo ^= lo >> 17;
      hi ^= hi >> 17;
      lo ^= lo << 5;
      hi ^= hi << 5;
      wlo |= (lo & 0xffu) << kShift[t];
      whi |= (hi & 0xffu) << kShift[t];
    }
    for (std::size_t l = 0; l < 4; ++l) {
      const std::uint32_t a = wlo[l];
      const std::uint32_t b = whi[l];
      std::memcpy(out + l * block + off, &a, 4);
      std::memcpy(out + (l + 4) * block + off, &b, 4);
    }
  }
  return hi[3];
}

}  // namespace

Bytes deterministic_payload(std::size_t n, std::uint32_t seed) {
  Bytes b(n);
  std::uint32_t x = seed * 2654435761u + 88172645u;
  std::size_t done = 0;
  if (n >= kLaneMinBytes) {
    // Eight contiguous blocks, each jumped to its start position; the
    // < 32-byte remainder continues serially from the last block's end.
    const std::size_t block = (n / kLanes) & ~std::size_t{3};
    x = fill_lanes(b.data(), block, x);
    done = kLanes * block;
  }
  fill_serial(b.data() + done, n - done, x);
  return b;
}

// ------------------------------------------------------------------ Echo

EchoServer::EchoServer(tcp::TcpLayer& tcp, std::uint16_t port, tcp::SocketOptions opts) {
  tcp.listen(port, [this](std::shared_ptr<tcp::Connection> c) { on_accept(std::move(c)); },
             opts);
}

void EchoServer::on_accept(std::shared_ptr<tcp::Connection> conn) {
  tcp::Connection* raw = conn.get();
  const std::uint64_t id = raw->id();
  sessions_[id] = conn;
  raw->on_readable = [this, raw] {
    Bytes data;
    raw->recv(data);
    bytes_ += data.size();
    if (!data.empty()) raw->send(std::move(data));
  };
  raw->on_peer_fin = [raw] { raw->close(); };
  raw->on_closed = [this, id](tcp::CloseReason) { sessions_.erase(id); };
  // Data may have raced ahead of the accept callback.
  if (raw->rx_available() > 0) raw->on_readable();
}

// ------------------------------------------------------------------ Sink

SinkServer::SinkServer(tcp::TcpLayer& tcp, std::uint16_t port, tcp::SocketOptions opts) {
  tcp.listen(port, [this](std::shared_ptr<tcp::Connection> c) { on_accept(std::move(c)); },
             opts);
}

void SinkServer::on_accept(std::shared_ptr<tcp::Connection> conn) {
  tcp::Connection* raw = conn.get();
  const std::uint64_t id = raw->id();
  sessions_[id] = conn;
  raw->on_readable = [this, raw] {
    Bytes data;
    raw->recv(data);
    bytes_ += data.size();
  };
  raw->on_peer_fin = [raw] { raw->close(); };
  raw->on_closed = [this, id](tcp::CloseReason) { sessions_.erase(id); };
  if (raw->rx_available() > 0) raw->on_readable();
}

// ----------------------------------------------------------------- Blast

BlastServer::BlastServer(tcp::TcpLayer& tcp, std::uint16_t port, tcp::SocketOptions opts) {
  tcp.listen(port, [this](std::shared_ptr<tcp::Connection> c) { on_accept(std::move(c)); },
             opts);
}

void BlastServer::on_accept(std::shared_ptr<tcp::Connection> conn) {
  tcp::Connection* raw = conn.get();
  const std::uint64_t id = raw->id();
  sessions_[id] = {conn, {}};
  raw->on_readable = [this, raw, id] {
    Bytes data;
    raw->recv(data);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    for (std::uint8_t ch : data) {
      if (ch == '\n') {
        on_line(raw, it->second.linebuf);
        it->second.linebuf.clear();
      } else {
        it->second.linebuf.push_back(static_cast<char>(ch));
      }
    }
  };
  raw->on_peer_fin = [raw] { raw->close(); };
  raw->on_closed = [this, id](tcp::CloseReason) { sessions_.erase(id); };
  if (raw->rx_available() > 0) raw->on_readable();
}

void BlastServer::on_line(tcp::Connection* conn, const std::string& line) {
  // Protocol: "GET <bytes> [seed]" → that many deterministic bytes.
  if (line.rfind("GET ", 0) != 0) return;
  std::size_t n = 0;
  std::uint32_t seed = 0;
  std::sscanf(line.c_str() + 4, "%zu %u", &n, &seed);
  bytes_ += n;
  conn->send(deterministic_payload(n, seed));
}

}  // namespace tfo::apps
