// What a client of the replicated service sees, measured by passive TCP
// taps on the client host. The taps never change or hold a segment; they
// run in the traced and the untraced run alike, and are harness time.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/host.hpp"
#include "tcp/conn_key.hpp"
#include "tracer.hpp"

namespace tfo::perfbench {

class ClientProbe {
 public:
  ClientProbe(sim::Simulator& sim, ip::Ipv4 service, Tracer* tracer)
      : sim_(sim), service_(service), tracer_(tracer) {}
  ~ClientProbe();
  ClientProbe(const ClientProbe&) = delete;
  ClientProbe& operator=(const ClientProbe&) = delete;

  /// Installs the taps on a client host (several hosts may share a probe).
  void attach(apps::Host& client);

  /// Payload bytes are counted while from <= now <= to.
  void set_window(SimTime from, SimTime to) {
    window_from_ = from;
    window_to_ = to;
  }

  /// The primary crashed now: every connection of `client` that can still
  /// carry data is followed until it makes progress again.
  void on_crash(apps::Host& client);

  std::uint64_t upload_bytes() const { return upload_bytes_; }
  std::uint64_t download_bytes() const { return download_bytes_; }
  std::uint64_t client_rsts() const { return rsts_; }
  /// connect() to SYN-ACK, one sample per connection, in ns.
  const std::vector<double>& connect_ns() const { return connect_ns_; }
  /// Per connection open at the crash: crash to the end of the
  /// connection's longest silence after it, in ns. Connections that made
  /// no progress after the crash give no sample.
  std::vector<double> stall_ns() const;

 private:
  struct Conn {
    Seq32 isn = 0;
    SimTime syn_at = 0;
    bool connecting = false;
    bool rx_init = false;
    Seq32 tx_hi = 0;   // highest sequence the client sent
    Seq32 rx_hi = 0;   // highest sequence received from the service
    Seq32 ack_hi = 0;  // highest acknowledgement received
    bool tracked = false;
    SimTime last_progress = 0;
    SimDuration best_gap = -1;
    SimTime best_end = 0;
  };

  double stall_of(const Conn& c) const {
    return static_cast<double>(c.best_end - crash_at_);
  }
  bool counting(SimTime t) const { return t >= window_from_ && t <= window_to_; }
  void on_outbound(const tcp::TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst);
  void on_inbound(const tcp::TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst);

  sim::Simulator& sim_;
  ip::Ipv4 service_;
  Tracer* tracer_;
  std::vector<std::pair<apps::Host*, std::vector<tcp::TapId>>> taps_;
  std::unordered_map<tcp::ConnKey, Conn, tcp::ConnKeyHash> conns_;
  SimTime window_from_ = 0;
  SimTime window_to_ = 0;
  SimTime crash_at_ = 0;
  std::uint64_t upload_bytes_ = 0;
  std::uint64_t download_bytes_ = 0;
  std::uint64_t rsts_ = 0;
  std::vector<double> connect_ns_;
  /// Stalls of tracked connections whose 4-tuple was reused later.
  std::vector<double> finished_stalls_;
};

}  // namespace tfo::perfbench
