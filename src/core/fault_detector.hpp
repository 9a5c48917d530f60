// Heartbeat-based fault detector (§2: "the system employs a fault
// detector"). Each replica streams heartbeat datagrams to its peers over a
// raw IP protocol; silence for `failure_timeout` declares a peer dead
// (fail-stop model). Detection latency is one of the knobs swept by the
// failover-time bench (EXPERIMENTS.md E1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "apps/host.hpp"
#include "sim/timer.hpp"

namespace tfo::core {

/// Key for the heartbeat nonce chain, shared by every replica
/// (FailoverConfig::hb_auth_seed). Heartbeats carry ["HB", k:u64,
/// nonce:u64] where k is the sender's simulation clock (monotonic across
/// reconfiguration) and nonce is a keyed hash of (seed, sender address,
/// k). A receiver accepts only a matching nonce with k at or above its
/// high-water mark for that sender, so an off-path attacker can neither
/// forge a heartbeat (to suppress a takeover) nor replay or reflect a
/// captured one (fault.hb_auth_failed counts the attempts).
constexpr std::uint64_t kDefaultHbAuthSeed = 0x4842'6175'7468'2e31ull;

/// Heartbeat monitor for one host: exchanges heartbeats with every
/// watched peer and reports each peer's failure exactly once. A replica
/// pair is a mesh with one peer per side; a replica chain watches every
/// other member. Only one mesh may be attached to a host, as it claims
/// the host's heartbeat protocol number.
class HeartbeatMesh {
 public:
  HeartbeatMesh(apps::Host& host, SimDuration period, SimDuration timeout,
                std::uint64_t auth_seed = kDefaultHbAuthSeed);
  ~HeartbeatMesh();

  /// Registers a peer to watch. May be called after start() (a recruit
  /// joining the chain): the new peer's deadline arms at once, and a mesh
  /// that had stopped sending (every earlier peer declared) resumes.
  void watch(ip::Ipv4 peer, std::function<void()> on_failed);

  void start();
  void stop();
  bool peer_failed(ip::Ipv4 peer) const;
  std::size_t peers_watched() const { return peers_.size(); }

 private:
  struct Peer {
    Peer(sim::Simulator& sim, ip::Ipv4 a, std::function<void()> cb)
        : addr(a), on_failed(std::move(cb)), deadline(sim) {}
    ip::Ipv4 addr;
    std::function<void()> on_failed;
    sim::Timer deadline;
    bool declared = false;
    std::uint64_t expect_k = 0;  // per-sender anti-replay high-water mark
  };
  void send_heartbeats();
  void arm(Peer& peer);
  bool any_undeclared() const;

  apps::Host& host_;
  SimDuration period_;
  SimDuration timeout_;
  std::uint64_t auth_seed_;
  /// Peers get stable heap storage: armed deadline callbacks capture a
  /// `Peer*`, and a `watch()` issued after timers are armed (a recruit)
  /// must not invalidate it by reallocating the vector.
  std::vector<std::unique_ptr<Peer>> peers_;
  sim::Timer send_timer_;
  obs::Counter* ctr_sent_ = nullptr;
  obs::Counter* ctr_received_ = nullptr;
  obs::Counter* ctr_auth_failed_ = nullptr;
  bool running_ = false;
  /// Liveness sentinel: the protocol-handler registration on the host
  /// outlives this object; the handler checks it before touching `this`.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace tfo::core
