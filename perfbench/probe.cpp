#include "probe.hpp"

namespace tfo::perfbench {

using tcp::TapVerdict;

ClientProbe::~ClientProbe() {
  for (auto& [host, ids] : taps_) {
    for (tcp::TapId id : ids) host->tcp().remove_tap(id);
  }
}

void ClientProbe::attach(apps::Host& client) {
  auto& tcp = client.tcp();
  std::vector<tcp::TapId> ids;
  ids.push_back(tcp.add_outbound_tap(
      [this](tcp::TcpSegment& seg, ip::Ipv4& src, ip::Ipv4& dst) {
        Scope s(tracer_, Layer::kHarness);
        on_outbound(seg, src, dst);
        return TapVerdict::kContinue;
      }));
  ids.push_back(tcp.add_inbound_tap([this](tcp::TcpSegment& seg, ip::Ipv4& src,
                                           ip::Ipv4& dst, const ip::RxMeta&) {
    Scope s(tracer_, Layer::kHarness);
    on_inbound(seg, src, dst);
    return TapVerdict::kContinue;
  }));
  taps_.emplace_back(&client, std::move(ids));
}

void ClientProbe::on_outbound(const tcp::TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst) {
  if (dst != service_) return;
  const tcp::ConnKey key{src, seg.src_port, dst, seg.dst_port};
  const SimTime now = sim_.now();
  if (seg.syn() && !seg.has_ack()) {
    // A first SYN, or the SYN of a new incarnation of a reused 4-tuple.
    // A retransmitted SYN carries the same ISN and keeps the clock.
    Conn& c = conns_[key];
    if (!c.connecting || c.isn != seg.seq) {
      if (c.tracked && c.best_gap >= 0) finished_stalls_.push_back(stall_of(c));
      c = Conn{};
      c.isn = seg.seq;
      c.syn_at = now;
      c.connecting = true;
      c.tx_hi = seq_add(seg.seq, 1);
    }
    return;
  }
  if (seg.payload.empty()) return;
  auto it = conns_.find(key);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  const Seq32 end = seq_add(seg.seq, static_cast<std::int64_t>(seg.payload.size()));
  if (seq_gt(end, c.tx_hi)) {
    if (counting(now)) upload_bytes_ += static_cast<std::uint32_t>(seq_diff(end, c.tx_hi));
    c.tx_hi = end;
  }
}

void ClientProbe::on_inbound(const tcp::TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst) {
  if (src != service_) return;
  if (seg.rst()) ++rsts_;
  const tcp::ConnKey key{dst, seg.dst_port, src, seg.src_port};
  auto it = conns_.find(key);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  const SimTime now = sim_.now();
  bool progress = false;
  if (seg.syn() && seg.has_ack()) {
    if (c.connecting && !c.rx_init) {
      connect_ns_.push_back(static_cast<double>(now - c.syn_at));
      c.rx_init = true;
      c.rx_hi = seq_add(seg.seq, 1);
      c.ack_hi = seg.ack;
    }
    return;
  }
  if (!c.rx_init) return;
  if (!seg.payload.empty()) {
    const Seq32 end = seq_add(seg.seq, static_cast<std::int64_t>(seg.payload.size()));
    if (seq_gt(end, c.rx_hi)) {
      if (counting(now)) {
        download_bytes_ += static_cast<std::uint32_t>(seq_diff(end, c.rx_hi));
      }
      c.rx_hi = end;
      progress = true;
    }
  }
  if (seg.has_ack() && seq_gt(seg.ack, c.ack_hi)) {
    c.ack_hi = seg.ack;
    progress = true;
  }
  if (progress && c.tracked) {
    const SimDuration gap = now - c.last_progress;
    if (gap > c.best_gap) {
      c.best_gap = gap;
      c.best_end = now;
    }
    c.last_progress = now;
  }
}

void ClientProbe::on_crash(apps::Host& client) {
  Scope s(tracer_, Layer::kHarness);
  crash_at_ = sim_.now();
  client.tcp().for_each_connection([&](const tcp::Connection& conn) {
    switch (conn.state()) {
      case tcp::TcpState::kEstablished:
      case tcp::TcpState::kFinWait1:
      case tcp::TcpState::kFinWait2:
      case tcp::TcpState::kCloseWait:
        break;
      default:
        return;
    }
    auto it = conns_.find(conn.key());
    if (it == conns_.end() || !it->second.rx_init) return;
    it->second.tracked = true;
    it->second.last_progress = crash_at_;
  });
}

std::vector<double> ClientProbe::stall_ns() const {
  std::vector<double> out = finished_stalls_;
  for (const auto& [key, c] : conns_) {
    if (c.tracked && c.best_gap >= 0) out.push_back(stall_of(c));
  }
  return out;
}

}  // namespace tfo::perfbench
