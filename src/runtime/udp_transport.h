// The udp transport of the real-time network (runtime/thread_net.h): one
// loopback UDP socket per node, messages as real datagrams. A ThreadNetwork
// built for RuntimeKind::kUdp runs over it — the third substrate of the
// unified Runtime contract (runtime/runtime.h), next to the discrete-event
// simulator and the in-process thread transport.
//
// Where the simulator ASSUMES bounded expected delay (Definition 1(1):
// sampled DelayModel) and the in-process transport EMULATES it (due-time
// sleeps), this transport carries the same algorithm code over a path whose
// delay is a measured property: every datagram's real loopback transit
// (send → recv, monotonic clock) is recorded into the `udp.transit_us`
// histogram, and fit_udp_calibration() fits those measurements back into a
// DelayModel (shifted exponential) so simulated and real cells
// cross-validate on the same sweep.
//
// Per node: one UdpSocket (runtime/udp_socket.h — the only raw-socket
// site) plus a READER thread beside the network's shared dispatcher. The
// reader blocks in receive(), translates wire headers into mailbox items
// and answers ACKs; stop() wakes it by shutting the socket's read side, so
// teardown costs thread joins, not a poll interval. The dispatcher, the
// Context, the causal trace links (the SEND record id rides the datagram
// so the DELIVER links back) and the net.* counters are the network's own,
// so AlgorithmDrivers, `abe_scenarios trace` and critical-path extraction
// work on real packets unchanged.
//
// Payloads are polymorphic C++ objects with no wire format (net/message.h),
// and every node lives in this process — so datagrams carry a fixed header
// (edge, seq, trace cause, timestamps) while the payload pointer crosses
// through an in-process table keyed by message id. The network path is
// real (kernel, loopback device, real loss under pressure); the payload
// hand-off is honestly in-memory. README § "Real-socket runtime" spells
// out the caveat.
//
// Reliability: RuntimeConfig::udp_reliable turns on this transport's own
// per-channel ARQ — per-edge sequence numbers, per-datagram ACKs, timeout
// retransmission with an attempt cap, receiver-side dedup (cumulative base
// + out-of-order set, duplicates re-ACKed) — so injected per-attempt loss
// degrades goodput instead of dropping messages, and `arq.rtt` records
// first-send→ack round trips. The retransmission timeout (4 sim units) and
// the attempt cap (64, then the message counts as dropped) are fixed
// constants. It is not the simulator's stop-and-wait
// ArqSender/ArqReceiver node pair of net/arq.h; it only shares that
// experiment's lossless-ACK convention. Unreliable mode draws injected loss
// once per message before the wire, like the in-process transport.
#pragma once

#include <cstdint>

#include "net/delay.h"
#include "obs/metrics.h"

namespace abe {

// ---------------------------------------------------------------------------
// Calibration: measured loopback delay -> DelayModel parameters

// Shifted-exponential fit of the `udp.transit_us` histogram in a harvested
// snapshot: offset = the 5th-percentile transit (the deterministic kernel
// floor), mean_extra = histogram mean above that offset. The measured
// analogue of Definition 1(1)'s expected-delay bound — feed to_delay_model
// back into a simulator cell to cross-validate against real transport.
struct UdpCalibration {
  bool ok = false;              // histogram present with nonzero samples
  std::uint64_t samples = 0;
  double offset_us = 0.0;       // fitted minimum transit (wall us)
  double mean_extra_us = 0.0;   // fitted mean above the offset (wall us)

  // The fitted model in sim units under `time_scale_us`
  // (shifted_exponential_delay, net/delay.h). ok must hold.
  DelayModelPtr to_delay_model(double time_scale_us) const;
};

UdpCalibration fit_udp_calibration(const MetricsSnapshot& snapshot);

}  // namespace abe
