#include "core/replica_chain.hpp"

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace tfo::core {

ReplicaChain::ReplicaChain(std::vector<apps::Host*> hosts, FailoverConfig cfg)
    : cfg_(std::move(cfg)) {
  TFO_ASSERT(hosts.size() >= 2, "a replica chain needs at least two members");
  service_addr_ = hosts.front()->address();
  cfg_.primary_addr = service_addr_;

  members_.reserve(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    Member m;
    m.host = hosts[i];
    // Construction order fixes tap precedence: the merge bridge's
    // outbound tap must consume client-bound traffic before the divert
    // bridge's tap would.
    if (i + 1 < hosts.size()) {
      FailoverConfig merge_cfg = cfg_;
      merge_cfg.secondary_addr = hosts[i + 1]->address();
      m.merge = std::make_unique<PrimaryBridge>(*m.host, std::move(merge_cfg));
      if (i > 0) m.merge->set_upstream(hosts[i - 1]->address());
    }
    if (i > 0) {
      FailoverConfig divert_cfg = cfg_;
      divert_cfg.secondary_addr = m.host->address();
      m.divert = std::make_unique<SecondaryBridge>(*m.host, std::move(divert_cfg));
      // Initial upstream: i-1; the head is addressed by the service
      // address (== its interface address initially).
      m.divert->set_divert_to(i == 1 ? service_addr_ : hosts[i - 1]->address());
    }
    m.mesh = std::make_unique<HeartbeatMesh>(*m.host, cfg_.heartbeat_period,
                                             cfg_.failure_timeout,
                                             cfg_.hb_auth_seed);
    members_.push_back(std::move(m));
  }
  // Full-mesh watching: any member's detector may be first to notice.
  for (std::size_t i = 0; i < members_.size(); ++i) {
    for (std::size_t j = 0; j < members_.size(); ++j) {
      if (i != j) watch(i, j);
    }
  }
}

void ReplicaChain::watch(std::size_t observer, std::size_t watched) {
  members_[observer].mesh->watch(
      members_[watched].host->address(),
      [this, observer, watched] { on_member_failed(observer, watched); });
}

void ReplicaChain::start() {
  for (auto& m : members_) m.mesh->start();
}

std::size_t ReplicaChain::alive_count() const {
  std::size_t n = 0;
  for (const auto& m : members_) n += m.alive ? 1 : 0;
  return n;
}

apps::Host* ReplicaChain::head() const {
  for (const auto& m : members_) {
    if (m.alive) return m.host;
  }
  return nullptr;
}

void ReplicaChain::crash(std::size_t index) { members_.at(index).host->fail(); }

std::size_t ReplicaChain::append(apps::Host& recruit) {
  TFO_ASSERT(!recruit.failed(), "cannot append a failed host");
  for (const auto& m : members_) {
    TFO_ASSERT(m.host != &recruit, "the recruit must be a new host");
  }
  const std::size_t last = prev_alive(members_.size());
  TFO_ASSERT(last < members_.size(), "no live member to append behind");
  Member& tail = members_[last];
  const bool tail_is_head = prev_alive(last) == members_.size();
  TFO_LOG(kInfo, "chain") << "appending " << recruit.name() << " behind "
                          << tail.host->name();
  // The dead members' bridges and detectors go: their timers would
  // otherwise keep running on the crashed hosts.
  for (auto& m : members_) {
    if (m.alive) continue;
    m.merge.reset();
    m.divert.reset();
    m.mesh.reset();
  }

  if (tail.merge) {
    // Its downstream died (§6): merging resumes for new connections;
    // connections that went solo stay solo.
    tail.merge->resume_with_secondary(recruit.address());
  } else {
    // It was the tail and took over the service address (§5), serving
    // alone since. It becomes the merge side of a fresh pair; the
    // connections in flight stay unbridged, and its divert bridge,
    // passive since the takeover, goes.
    TFO_ASSERT(tail.divert && tail.divert->taken_over(),
               "append needs a last live member that merges or has taken over");
    FailoverConfig merge_cfg = cfg_;
    merge_cfg.secondary_addr = recruit.address();
    tail.merge = std::make_unique<PrimaryBridge>(*tail.host, std::move(merge_cfg));
    tail.merge->exclude_existing_connections();
    tail.divert.reset();
  }

  Member m;
  m.host = &recruit;
  FailoverConfig divert_cfg = cfg_;
  divert_cfg.secondary_addr = recruit.address();
  m.divert = std::make_unique<SecondaryBridge>(recruit, std::move(divert_cfg));
  m.divert->set_divert_to(tail_is_head ? service_addr_ : tail.host->address());
  m.mesh = std::make_unique<HeartbeatMesh>(recruit, cfg_.heartbeat_period,
                                           cfg_.failure_timeout, cfg_.hb_auth_seed);
  members_.push_back(std::move(m));

  // Live members and the recruit watch each other; the dead stay out.
  const std::size_t r = members_.size() - 1;
  for (std::size_t i = 0; i < r; ++i) {
    if (!members_[i].alive) continue;
    watch(i, r);
    watch(r, i);
  }
  members_[r].mesh->start();
  return last;
}

std::size_t ReplicaChain::prev_alive(std::size_t index) const {
  for (std::size_t i = index; i-- > 0;) {
    if (members_[i].alive) return i;
  }
  return members_.size();
}

std::size_t ReplicaChain::next_alive(std::size_t index) const {
  for (std::size_t i = index + 1; i < members_.size(); ++i) {
    if (members_[i].alive) return i;
  }
  return members_.size();
}

void ReplicaChain::on_member_failed(std::size_t observer, std::size_t dead) {
  // A crashed member's own timers keep running in the simulation; its
  // "detections" (it hears nobody) must not poison the membership view.
  if (!members_[observer].alive || members_[observer].host->failed()) return;
  if (!members_[dead].alive) return;  // already handled (fail-stop model)
  members_[dead].alive = false;
  TFO_LOG(kInfo, "chain") << "member " << dead << " ("
                          << members_[dead].host->name() << ") failed; "
                          << alive_count() << " remain";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].alive) reconfigure(i);
  }
}

void ReplicaChain::reconfigure(std::size_t i) {
  Member& m = members_[i];
  const std::size_t up = prev_alive(i);
  const std::size_t down = next_alive(i);

  if (up == members_.size()) {
    // This member is now the head.
    if (m.divert && !m.divert->taken_over()) {
      // §5 takeover of the service address, plus rekeying the merge
      // bridge's connection table into the service address space.
      m.divert->take_over();
      if (m.merge) {
        m.merge->rekey_local(m.host->address(), service_addr_);
        m.merge->set_upstream(std::nullopt);
      }
    }
  } else {
    // The upstream may have moved closer: re-aim diversion and merged
    // emission. The head is addressed via the (taken-over) service
    // address; intermediates via their interface address.
    const bool up_is_head = prev_alive(up) == members_.size();
    const ip::Ipv4 up_addr =
        up_is_head ? service_addr_ : members_[up].host->address();
    if (m.divert) m.divert->set_divert_to(up_addr);
    if (m.merge) m.merge->set_upstream(up_addr);
  }

  if (m.merge) {
    if (down == members_.size()) {
      // Became the tail: finish any pending merges solo (§6).
      if (!m.merge->secondary_failed()) m.merge->on_secondary_failed();
    } else if (!m.merge->secondary_failed()) {
      m.merge->set_downstream(members_[down].host->address());
    }
  }
}

}  // namespace tfo::core
