// Experiment E9: the cost of the packet path itself — heap allocations and
// copies per forwarded segment on the secondary→primary diversion path
// (paper §3.1: snoop, rewrite the destination address, fix the checksum
// incrementally, re-emit).
//
// A micro phase drives the diversion path alone: frame share → IP slice
// parse → in-place checksum patch (one copy-on-write for the snooped
// share) → TCP slice parse → headers prepended into the same storage's
// headroom. It must stay within absolute ceilings on heap allocations and
// copied bytes per segment (the "packet_path.divert" section).
//
// A macro phase runs a real replicated echo transfer twice — per-frame rx,
// then NIC rx batching with GRO — and reports the live allocation rate per
// diverted segment and per wire frame (the "packet_path.live" rows) plus
// the net.alloc.* counters mirrored into each host's observability
// snapshot. scripts/check_bench_json.py gates both sections.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "bench_util.hpp"
#include "failover_fixture.hpp"  // test::EchoDriver (shared with the tests)
#include "ip/datagram.hpp"
#include "tcp/segment.hpp"
#include "wire/packet_buffer.hpp"

// ---------------------------------------------------------------------------
// Global allocation counters: every operator new in this binary is counted,
// so the per-segment numbers include vector bookkeeping, not just the
// PacketBuffer-level accounting.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tfo::bench {
namespace {

const ip::Ipv4 kClient = ip::Ipv4::parse("10.0.0.100");
const ip::Ipv4 kPrimary = ip::Ipv4::parse("10.0.0.1");
const ip::Ipv4 kSecondary = ip::Ipv4::parse("10.0.0.2");

/// Ceilings on the diversion path at a 512 B payload: exactly one
/// allocation and 532 copied bytes per segment, the copy-on-write of the
/// snooped share (TCP header + payload).
constexpr double kDivertMaxAllocsPerSeg = 1.0;
constexpr double kDivertMaxCopiedBytesPerSeg = 532.0;

/// The client→primary frame payload the secondary snoops promiscuously:
/// a TCP segment wrapped in an IP datagram.
Bytes make_snooped_wire(std::size_t payload_len) {
  tcp::TcpSegment s;
  s.src_port = 4242;
  s.dst_port = kPort;
  s.seq = 1000;
  s.ack = 2000;
  s.flags = tcp::Flags::kAck | tcp::Flags::kPsh;
  s.window = 8192;
  Bytes payload(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  s.payload = payload;
  ip::IpDatagram d;
  d.src = kClient;
  d.dst = kPrimary;
  d.id = 99;
  d.payload = s.serialize(kClient, kPrimary);
  return d.serialize();
}

/// The diversion path: shared-storage slices all the way, one copy-on-write
/// when the snooped share is patched, headers prepended into the same
/// storage's headroom. Returns the emitted frame length (consumed so the
/// work is not optimized away).
std::size_t zerocopy_divert(const wire::PacketBuffer& wire) {
  wire::PacketBuffer frame_payload = wire;  // share, no bytes copied
  auto d = ip::IpDatagram::parse(frame_payload);
  if (!d) return 0;
  // §3.1 rewrite in place; the snooped frame's storage is shared, so this
  // is the path's one copy (the CoW that protects the other receivers).
  tcp::patch_checksum_for_address_change(d->payload, kPrimary, kSecondary);
  auto seg = tcp::TcpSegment::parse(d->payload, kClient, kSecondary);
  if (!seg) return 0;
  d.reset();  // the datagram's handle released: the segment owns the bytes
  seg->orig_dst = kClient;
  ip::IpDatagram out;
  out.src = kSecondary;
  out.dst = kPrimary;
  out.id = 100;
  out.payload = seg->take_wire(kSecondary, kPrimary);
  return out.to_wire().size();
}

struct PathCost {
  double allocs_per_seg = 0;
  double heap_bytes_per_seg = 0;
  double copied_bytes_per_seg = 0;  // wire::BufferStats deep-copy bytes
  double ns_per_seg = 0;
  double segs_per_sec = 0;
};

template <typename Fn>
PathCost measure_path(std::size_t iters, const Fn& fn) {
  PathCost c;
  volatile std::size_t sink = 0;
  wire::reset_buffer_stats();
  const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
  const std::uint64_t b0 = g_heap_bytes.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) sink = sink + fn();
  const auto t1 = std::chrono::steady_clock::now();
  const double n = static_cast<double>(iters);
  c.allocs_per_seg =
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) - a0) / n;
  c.heap_bytes_per_seg =
      static_cast<double>(g_heap_bytes.load(std::memory_order_relaxed) - b0) / n;
  c.copied_bytes_per_seg =
      static_cast<double>(wire::buffer_stats().copied_bytes) / n;
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              t1 - t0).count());
  c.ns_per_seg = ns / n;
  c.segs_per_sec = ns > 0 ? n / (ns * 1e-9) : 0;
  return c;
}

/// One live replicated echo transfer, measured whole: every heap
/// allocation the simulation makes, per diverted segment and per frame
/// put on the wire (all three hosts' NICs).
struct LiveCost {
  std::uint64_t diverted = 0;
  std::uint64_t frames = 0;
  std::uint64_t allocs = 0;
  double wall_ms = 0;
  bool verified = false;

  double per_div_seg() const {
    return diverted ? static_cast<double>(allocs) / static_cast<double>(diverted) : 0;
  }
  double per_frame() const {
    return frames ? static_cast<double>(allocs) / static_cast<double>(frames) : 0;
  }
};

std::uint64_t wire_frames(Testbed& t) {
  return t.lan->client->nic().tx_frames() + t.lan->primary->nic().tx_frames() +
         t.lan->secondary->nic().tx_frames();
}

/// Runs `total` bytes of replicated echo. `batched` turns on NIC rx
/// batching (so GRO runs) on every host. `json`, when given, captures the
/// hosts' observability snapshots.
LiveCost run_live(bool batched, std::size_t total, BenchJson* json) {
  apps::LanParams lp = paper_lan_params();
  if (batched) lp.nic.rx_batch_max = 16;
  Testbed t;
  std::unique_ptr<apps::EchoServer> e1, e2;
  t = make_testbed(
      true,
      [&](apps::Host& h) {
        auto e = std::make_unique<apps::EchoServer>(h.tcp(), kPort);
        (e1 ? e2 : e1) = std::move(e);
      },
      lp);
  t.sim().run_for(milliseconds(100));

  LiveCost c;
  const std::uint64_t f0 = wire_frames(t);
  const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
  const auto w0 = std::chrono::steady_clock::now();
  test::EchoDriver d(t.client(), t.server_addr(), kPort, total, 4096);
  const bool done = t.run_until([&] { return d.done(); }, seconds(600));
  const auto w1 = std::chrono::steady_clock::now();
  c.allocs = g_heap_allocs.load(std::memory_order_relaxed) - a0;
  c.frames = wire_frames(t) - f0;
  c.wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(w1 - w0).count() / 1e3;
  c.diverted = t.group->secondary_bridge().segments_diverted();
  c.verified = done && d.verify();
  if (json != nullptr) {
    json->capture_host(*t.lan->primary);
    json->capture_host(*t.lan->secondary);
    json->capture_host(t.client());
  }
  return c;
}

}  // namespace
}  // namespace tfo::bench

int main(int argc, char** argv) {
  using namespace tfo;
  using namespace tfo::bench;
  // --quick: fewer iterations and a short transfer — used by the CTest step
  // that validates the BENCH_packet_path.json artifact schema.
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  print_header("E9: packet-path allocations and copies per forwarded segment",
               "cost model behind paper §3.1's rewrite-in-place bridge; "
               "no table in the paper");

  const std::size_t iters = quick ? 5'000 : 200'000;
  const std::size_t payload_len = 512;
  const wire::PacketBuffer snooped =
      wire::PacketBuffer::copy_of(make_snooped_wire(payload_len));

  // Warm up (page in code, fault the allocator) before counting.
  for (int i = 0; i < 100; ++i) zerocopy_divert(snooped);
  const PathCost zc = measure_path(iters, [&] { return zerocopy_divert(snooped); });

  BenchJson json("packet_path");
  TextTable table({"path", "allocs/seg", "heap B/seg", "copied B/seg",
                   "ns/seg", "segs/s"});
  table.add_row({"zero-copy", TextTable::num(zc.allocs_per_seg, 2),
                 TextTable::num(zc.heap_bytes_per_seg, 0),
                 TextTable::num(zc.copied_bytes_per_seg, 0),
                 TextTable::num(zc.ns_per_seg, 0),
                 TextTable::num(zc.segs_per_sec, 0)});
  std::printf("%s", table.render().c_str());
  std::printf("per-segment heap allocations %.2f (ceiling %.2f), copied bytes "
              "%.0f (ceiling %.0f)\n",
              zc.allocs_per_seg, kDivertMaxAllocsPerSeg, zc.copied_bytes_per_seg,
              kDivertMaxCopiedBytesPerSeg);
  json.add_table("diversion path: per-forwarded-segment cost "
                 "(payload " + std::to_string(payload_len) + "B)", table);

  // Macro phase: a real replicated echo transfer — every secondary reply
  // crosses the diversion path — measured live, with the net.alloc.*
  // mirror landing in the captured host snapshots. Once per frame (rx
  // batching off), once with NIC rx batching and GRO on, which exercises
  // the rx rings and GRO storage the NIC reuses from batch to batch.
  const std::size_t total = quick ? 64 * 1024 : 512 * 1024;
  const LiveCost per_frame = run_live(false, total, &json);
  const LiveCost batched = run_live(true, total, nullptr);

  TextTable macro({"rx path", "transfer", "diverted segs", "wire frames",
                   "heap allocs", "allocs/div seg", "allocs/frame", "wall [ms]",
                   "verified"});
  const auto live_row = [&](const char* name, const LiveCost& c) {
    macro.add_row({name, size_label(total), std::to_string(c.diverted),
                   std::to_string(c.frames), std::to_string(c.allocs),
                   TextTable::num(c.per_div_seg(), 1), TextTable::num(c.per_frame(), 2),
                   TextTable::num(c.wall_ms, 1), c.verified ? "yes" : "NO"});
  };
  live_row("per frame", per_frame);
  live_row("batched + GRO", batched);
  std::printf("%s", macro.render().c_str());
  json.add_table("live replicated echo transfer (whole-simulation heap "
                 "allocations per diverted segment and per wire frame)", macro);

  // Machine-readable live rows; check_bench_json.py holds every figure
  // under an absolute ceiling.
  obs::JsonWriter w;
  w.begin_object();
  w.key("divert").begin_object();
  w.key("payload").value(static_cast<std::uint64_t>(payload_len));
  w.key("allocs_per_seg").value(zc.allocs_per_seg);
  w.key("copied_bytes_per_seg").value(zc.copied_bytes_per_seg);
  w.end_object();
  w.key("live").begin_array();
  const auto live_entry = [&](const char* name, const LiveCost& c) {
    w.begin_object();
    w.key("rx_path").value(name);
    w.key("diverted").value(c.diverted);
    w.key("frames").value(c.frames);
    w.key("allocs").value(c.allocs);
    w.key("allocs_per_div_seg").value(c.per_div_seg());
    w.key("allocs_per_frame").value(c.per_frame());
    w.end_object();
  };
  live_entry("per_frame", per_frame);
  live_entry("batched_gro", batched);
  w.end_array();
  w.end_object();
  json.add_section("packet_path", w.str());
  if (!json.write()) return 1;

  const bool divert_ok = zc.allocs_per_seg <= kDivertMaxAllocsPerSeg &&
                         zc.copied_bytes_per_seg <= kDivertMaxCopiedBytesPerSeg;
  const bool live_ok = per_frame.verified && batched.verified;
  if (!divert_ok) {
    std::printf("RED: the diversion path is above its allocation or copy "
                "ceiling\n");
  }
  if (!live_ok) std::printf("RED: a live transfer failed\n");
  return divert_ok && live_ok ? 0 : 1;
}
