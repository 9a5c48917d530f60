// GRO-style receive coalescing of abutting in-order TCP segments.
//
// A batched NIC hands the stack *runs* of back-to-back data segments from
// the same flow merged into one larger segment — the simulator's analogue
// of kernel Generic Receive Offload. One traversal of IP parse, TCP demux,
// bridge tap and ACK machinery then covers what used to be N traversals,
// which is where the batched data path's segments/s win comes from.
//
// Like real GRO this lives below IP and parses raw headers: src/net cannot
// see ip/ or tcp/ types (layering points the other way), and a hardware
// coalescer would not either. Only bit-exact candidates merge — IPv4 with
// no options or fragmentation, TCP with no options and only ACK/PSH flags,
// contiguous sequence numbers, identical ack/window — and both the IP and
// TCP checksums of every constituent are verified *before* its bytes are
// folded in, because the merged segment's checksums are recomputed and
// must never launder a corrupt frame into a valid-looking one. Anything
// else passes through byte-identical, so coalescing is semantically
// invisible (gro_test pins this down against uncoalesced delivery).
#pragma once

#include <cstdint>
#include <vector>

#include "net/frame.hpp"

namespace tfo::net {

/// One received frame staged in a NIC's rx batch ring.
struct RxFrame {
  EthernetFrame frame;
  bool to_us = false;
};

struct GroParams {
  /// Maximum constituent segments folded into one merged segment.
  std::size_t max_merged = 8;
};

struct GroStats {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  /// Frames absorbed into a neighbour (frames_in - frames_out).
  std::uint64_t coalesced = 0;
  /// Structurally mergeable frames rejected by checksum verification.
  std::uint64_t bad_checksum = 0;
};

/// Working storage that gro_coalesce reuses from batch to batch, so a
/// steady-state flush allocates no bookkeeping. The caller owns one (a NIC
/// keeps it as a member); its contents mean nothing between calls.
struct GroScratch {
  /// A structurally merge-eligible frame, checksum-verified, with pointers
  /// into the frame's own payload storage (valid until the frame moves).
  struct Candidate {
    const std::uint8_t* ip = nullptr;   // 20-byte IPv4 header
    const std::uint8_t* tcp = nullptr;  // TCP header + payload
    std::size_t payload_len = 0;        // TCP payload bytes
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    std::uint16_t payload_sum = 0;  // folded one's-complement sum of payload
    std::uint16_t window = 0;
    bool psh = false;
  };
  /// The active run: indices into the batch plus each member's parsed view.
  std::vector<std::size_t> run;
  std::vector<Candidate> cands;
};

/// Coalesces one rx batch, given in arrival order. A run grows only over
/// frames that are contiguous in that order: any frame in between closes
/// it. Appends outputs to `out` preserving arrival order (a merged
/// segment takes its run head's position). The frames of `in` are moved
/// from; the caller clears it.
void gro_coalesce(const GroParams& params, std::vector<RxFrame>& in,
                  std::vector<RxFrame>& out, GroStats& stats, GroScratch& scratch);

}  // namespace tfo::net
