// The paper's primary/secondary pair, as a view of the two-member
// ReplicaChain (§1: higher degrees of replication come from daisy-chaining
// backups, so the pair is a chain of length two). The chain owns the
// bridges, the heartbeat detectors and every reconfiguration; this view
// only names its members the way the paper does. examples/quickstart.cpp
// shows the full flow.
#pragma once

#include "core/replica_chain.hpp"

namespace tfo::core {

class ReplicaGroup {
 public:
  ReplicaGroup(apps::Host& primary, apps::Host& secondary, FailoverConfig cfg)
      : chain_({&primary, &secondary}, std::move(cfg)) {}

  /// Starts the fault detectors. Call after the topology is in place.
  void start() { chain_.start(); }

  /// The merge bridge feeding the newest member (the secondary).
  PrimaryBridge& primary_bridge() { return *chain_.merge_bridge(primary_); }
  /// The newest member's divert bridge.
  SecondaryBridge& secondary_bridge() {
    return *chain_.divert_bridge(chain_.size() - 1);
  }

  /// Convenience fault injection: crashes the host; the surviving
  /// replica's detector notices and runs the corresponding recovery.
  void crash_primary() { chain_.crash(primary_); }
  void crash_secondary() { chain_.crash(chain_.size() - 1); }

  /// After one replica failed and the survivor recovered (§5 or §6),
  /// `recruit` becomes the new secondary (ReplicaChain::append).
  void reintegrate_secondary(apps::Host& recruit) { primary_ = chain_.append(recruit); }

  /// The host currently serving the service address.
  apps::Host& current_server() { return *chain_.head(); }

 private:
  ReplicaChain chain_;
  std::size_t primary_ = 0;  // chain index of the merge side
};

}  // namespace tfo::core
