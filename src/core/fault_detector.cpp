#include "core/fault_detector.hpp"

#include "common/logging.hpp"

namespace tfo::core {

namespace {

std::uint64_t hb_mix(std::uint64_t x) {
  // splitmix64 finalizer: cheap, deterministic, and — keyed with a seed
  // the attacker does not hold — unguessable enough for a simulation.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hb_nonce(std::uint64_t seed, ip::Ipv4 sender, std::uint64_t k) {
  // Folding the sender address prevents reflection: a captured P→S
  // heartbeat replayed back at P verifies against S's address, not P's.
  return hb_mix(seed ^ hb_mix(sender.v) ^ hb_mix(k));
}

constexpr std::size_t kHbBytes = 18;  // "HB" + k:u64 + nonce:u64

Bytes hb_payload(std::uint64_t seed, ip::Ipv4 sender, std::uint64_t k) {
  Bytes b(kHbBytes);
  std::uint8_t* p = write_u8(b.data(), 'H');
  p = write_u8(p, 'B');
  p = write_u64(p, k);
  write_u64(p, hb_nonce(seed, sender, k));
  return b;
}

/// Validates an inbound heartbeat against the nonce chain and the
/// caller's anti-replay high-water mark; advances the mark on success.
bool hb_verify(std::uint64_t seed, const ip::IpDatagram& d, std::uint64_t& expect_k) {
  const BytesView pl(d.payload);
  if (pl.size() < kHbBytes || pl[0] != 'H' || pl[1] != 'B') return false;
  const std::uint64_t k = get_u64(pl, 2);
  if (k < expect_k) return false;  // replayed or reordered stale heartbeat
  if (get_u64(pl, 10) != hb_nonce(seed, d.src, k)) return false;
  expect_k = k + 1;
  return true;
}

}  // namespace

FaultDetector::FaultDetector(apps::Host& host, ip::Ipv4 peer, SimDuration period,
                             SimDuration timeout, ip::Ipv4 src,
                             std::uint64_t auth_seed)
    : host_(host),
      peer_(peer),
      period_(period),
      timeout_(timeout),
      src_(src),
      send_timer_(host.simulator()),
      deadline_(host.simulator()),
      auth_seed_(auth_seed) {
  // Registry counters are cumulative across detector instances on the
  // host; the accessors stay per-instance (a replaced detector restarts
  // its own counts), so both are kept.
  auto& reg = host_.obs().registry;
  ctr_sent_ = &reg.counter("fd.heartbeats_sent");
  ctr_received_ = &reg.counter("fd.heartbeats_received");
  ctr_auth_failed_ = &reg.counter("fault.hb_auth_failed");
  host_.ip().register_protocol(
      ip::Proto::kHeartbeat,
      [this, w = std::weak_ptr<bool>(alive_)](const ip::IpDatagram& d,
                                              const ip::RxMeta&) {
        if (w.expired()) return;  // stale registration of a replaced detector
        if (!running_ || d.src != peer_) return;
        if (!hb_verify(auth_seed_, d, expect_k_)) {
          // Forged, replayed, or reflected: it must not refresh liveness
          // (a forger could otherwise mask a dead peer forever).
          ++auth_failed_;
          ctr_auth_failed_->inc();
          return;
        }
        ++received_;
        ctr_received_->inc();
        arm_deadline();
      });
}

FaultDetector::~FaultDetector() { alive_.reset(); }

void FaultDetector::start() {
  running_ = true;
  declared_ = false;
  send_heartbeat();
  arm_deadline();
}

void FaultDetector::stop() {
  running_ = false;
  send_timer_.stop();
  deadline_.stop();
}

void FaultDetector::send_heartbeat() {
  if (!running_) return;
  ++sent_;
  ctr_sent_->inc();
  // k is the simulation clock: monotonic even across detector replacement
  // (reintegration), so the peer's anti-replay mark never needs resetting.
  const ip::Ipv4 effective_src = src_.is_any() ? host_.address() : src_;
  host_.ip().send(ip::Proto::kHeartbeat, src_, peer_,
                  hb_payload(auth_seed_, effective_src,
                             static_cast<std::uint64_t>(host_.simulator().now())));
  send_timer_.start(period_, [this] { send_heartbeat(); });
}

void FaultDetector::arm_deadline() {
  deadline_.start(timeout_, [this] {
    if (declared_) return;
    declared_ = true;
    running_ = false;
    send_timer_.stop();
    TFO_LOG(kInfo, "fd") << host_.name() << " declares peer " << peer_.str()
                         << " FAILED";
    host_.obs().timeline.record(host_.simulator().now(),
                                obs::EventKind::kPeerDeclaredFailed, {},
                                "peer=" + peer_.str());
    if (on_peer_failed) on_peer_failed();
  });
}

// ------------------------------------------------------- HeartbeatMesh

HeartbeatMesh::HeartbeatMesh(apps::Host& host, SimDuration period, SimDuration timeout,
                             std::uint64_t auth_seed)
    : host_(host),
      period_(period),
      timeout_(timeout),
      auth_seed_(auth_seed),
      send_timer_(host.simulator()) {
  ctr_auth_failed_ = &host_.obs().registry.counter("fault.hb_auth_failed");
  host_.ip().register_protocol(
      ip::Proto::kHeartbeat,
      [this, w = std::weak_ptr<bool>(alive_)](const ip::IpDatagram& d,
                                              const ip::RxMeta&) {
        if (w.expired() || !running_) return;
        for (auto& peer : peers_) {
          if (peer->addr == d.src && !peer->declared) {
            if (!hb_verify(auth_seed_, d, peer->expect_k)) {
              ctr_auth_failed_->inc();
              return;
            }
            arm(*peer);
            return;
          }
        }
      });
}

HeartbeatMesh::~HeartbeatMesh() { alive_.reset(); }

void HeartbeatMesh::watch(ip::Ipv4 peer, std::function<void()> on_failed) {
  auto p = std::make_unique<Peer>();
  p->addr = peer;
  p->on_failed = std::move(on_failed);
  p->deadline = std::make_unique<sim::Timer>(host_.simulator());
  peers_.push_back(std::move(p));
  // A peer registered after the mesh started (reintegration) would never
  // get a deadline until its first heartbeat arrived — a permanently
  // silent peer would go undetected. Arm it now.
  if (running_) arm(*peers_.back());
}

void HeartbeatMesh::start() {
  running_ = true;
  send_heartbeats();
  for (auto& peer : peers_) arm(*peer);
}

void HeartbeatMesh::stop() {
  running_ = false;
  send_timer_.stop();
  for (auto& peer : peers_) peer->deadline->stop();
}

bool HeartbeatMesh::peer_failed(ip::Ipv4 peer) const {
  for (const auto& p : peers_) {
    if (p->addr == peer) return p->declared;
  }
  return false;
}

void HeartbeatMesh::send_heartbeats() {
  if (!running_) return;
  const std::uint64_t k = static_cast<std::uint64_t>(host_.simulator().now());
  for (const auto& peer : peers_) {
    if (!peer->declared) {
      host_.ip().send(ip::Proto::kHeartbeat, ip::Ipv4::any(), peer->addr,
                      hb_payload(auth_seed_, host_.address(), k));
    }
  }
  send_timer_.start(period_, [this] { send_heartbeats(); });
}

void HeartbeatMesh::arm(Peer& peer) {
  // `peer` lives in stable unique_ptr storage (see peers_), so capturing
  // the raw pointer across later watch() calls is safe.
  Peer* p = &peer;
  peer.deadline->start(timeout_, [this, p] {
    if (p->declared) return;
    p->declared = true;
    TFO_LOG(kInfo, "fd") << host_.name() << " declares chain peer "
                         << p->addr.str() << " FAILED";
    host_.obs().timeline.record(host_.simulator().now(),
                                obs::EventKind::kPeerDeclaredFailed, {},
                                "peer=" + p->addr.str());
    if (p->on_failed) p->on_failed();
  });
}

}  // namespace tfo::core
