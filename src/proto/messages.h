// Application-level wire messages.
//
// Every message travels as a UDP payload (§3.4.2). Five message types cover
// the whole system:
//
//   kRequest     client → server        carries the synthetic service time
//   kAssignment  dispatcher → worker    a request descriptor to execute
//   kPreemption  worker → dispatcher    descriptor with remaining work
//   kCompletion  worker → dispatcher    frees the worker's dispatcher slot
//   kResponse    worker → client        completes the request
//
// Four more types exist for the *reliable* dispatch mode (DESIGN §9), where
// the dispatcher↔worker UDP path is allowed to drop frames:
//
//   kSequencedAssignment  dispatcher → worker   kAssignment + sequence number
//   kDispatchAck          worker → dispatcher   confirms assignment receipt
//   kSequencedNote        worker → dispatcher   completion/preemption + seq
//   kNoteAck              dispatcher → worker   confirms note receipt
//
// Three more cover rack-scale failure handling (DESIGN §16): the ToR probes
// hosts whose feedback has gone silent, and hedged requests need the loser
// copy cancelled once a winner responds:
//
//   kHealthProbe     ToR → host     liveness probe to the host's responder
//   kHealthProbeAck  host → ToR     probe echo; proves the NIC path is alive
//   kCancel          ToR → host     best-effort: drop this queued request
//
// The synthetic workload (§4.1) encodes "fake work that keeps the server
// busy for a specific amount of time" as `work_ps` in the request payload.
// Preempted requests save their progress host-side; on the wire the
// descriptor's `remaining_ps` shrinks while `total_ps` records the original.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/byte_io.h"
#include "net/ipv4_address.h"
#include "net/mac_address.h"

namespace nicsched::proto {

inline constexpr std::uint16_t kMagic = 0x4E53;  // "NS"
inline constexpr std::uint8_t kVersion = 1;
/// Version byte for extended frames (DESIGN §11): requests and descriptors
/// gain a deadline, worker notes gain a queue-sojourn sample. Extended
/// layouts are fixed-size per version — never optional trailing bytes — so
/// truncation is always detectable. Messages serialize as version 1 whenever
/// the extended fields are absent, which keeps runs with overload control
/// disabled bit-identical on the wire.
inline constexpr std::uint8_t kVersionExtended = 2;

enum class MessageType : std::uint8_t {
  kRequest = 1,
  kAssignment = 2,
  kPreemption = 3,
  kCompletion = 4,
  kResponse = 5,
  kSequencedAssignment = 6,
  kDispatchAck = 7,
  kSequencedNote = 8,
  kNoteAck = 9,
  kReject = 10,
  kHealthProbe = 13,
  kHealthProbeAck = 14,
  kCancel = 15,
};

/// Peeks at a payload's message type without a full parse.
std::optional<MessageType> peek_type(std::span<const std::uint8_t> payload);

/// The calling thread's recycled serialization buffer. Hot TX paths write
/// into it with `serialize_into` and hand the contents straight to
/// net::make_udp_datagram (which copies them into a pooled frame), so
/// steady-state frame construction never touches the allocator. Contents are
/// valid until the next `serialize_into(serialization_scratch())` on this
/// thread; code that needs to *keep* bytes (e.g. retransmit queues) uses the
/// owning `serialize()` instead.
std::vector<std::uint8_t>& serialization_scratch();

/// A client's request. `padding` inflates the datagram to model different
/// request sizes (the paper's 64 B vs 1 KiB discussion, §1).
struct RequestMessage {
  std::uint64_t request_id = 0;
  std::uint32_t client_id = 0;
  std::uint16_t kind = 0;        // workload class (short/long, app id, ...)
  std::uint64_t work_ps = 0;     // synthetic service time, picoseconds
  /// Absolute completion deadline in simulation picoseconds (0 = none).
  /// Nonzero deadlines serialize as a version-2 frame.
  std::uint64_t deadline_ps = 0;
  /// Tenant id (DESIGN §13; 0 = untenanted). Nonzero tenants serialize as a
  /// version-2 frame so single-tenant runs stay bit-identical on the wire.
  std::uint16_t tenant = 0;
  std::uint16_t padding = 0;     // extra payload bytes appended on the wire

  std::vector<std::uint8_t> serialize() const;
  /// Overwrites `out` with the serialized frame, reusing its capacity.
  void serialize_into(std::vector<std::uint8_t>& out) const;
  static std::optional<RequestMessage> parse(
      std::span<const std::uint8_t> payload);

  bool operator==(const RequestMessage&) const = default;
};

/// Everything a worker needs to execute (or resume) a request and reply to
/// the client directly. Flows dispatcher→worker as kAssignment and
/// worker→dispatcher as kPreemption.
struct RequestDescriptor {
  std::uint64_t request_id = 0;
  std::uint32_t client_id = 0;
  std::uint16_t kind = 0;
  std::uint64_t remaining_ps = 0;  // work still to execute
  std::uint64_t total_ps = 0;      // original service time
  std::uint16_t preempt_count = 0;
  /// Centralized-queue depth when the scheduler dispatched this request;
  /// echoed to the client in the response as congestion feedback (§5.2's
  /// scheduling/congestion-control co-design).
  std::uint32_t queue_depth = 0;
  net::MacAddress client_mac;
  net::Ipv4Address client_ip;
  std::uint16_t client_port = 0;
  /// Absolute completion deadline (0 = none); carried so the dispatcher can
  /// shed already-expired work before it reaches a worker. Nonzero values
  /// serialize the enclosing message as version 2.
  std::uint64_t deadline_ps = 0;
  /// Tenant id (0 = untenanted); rides the descriptor so per-tenant dispatch
  /// queues and stats survive preemption round-trips. Nonzero values
  /// serialize the enclosing message as version 2.
  std::uint16_t tenant = 0;

  std::vector<std::uint8_t> serialize(MessageType type) const;
  void serialize_into(MessageType type, std::vector<std::uint8_t>& out) const;
  static std::optional<RequestDescriptor> parse(
      std::span<const std::uint8_t> payload, MessageType expected_type);

  bool operator==(const RequestDescriptor&) const = default;
};

/// Worker → dispatcher: request finished; the dispatcher slot for this
/// worker can be refilled.
struct CompletionMessage {
  std::uint64_t request_id = 0;
  std::uint32_t worker_id = 0;
  /// Optional queue-sojourn sample (time the completed request waited in
  /// the worker's local queue before service), the host-load feedback the
  /// adaptive-K governor consumes. Presence is explicit: a zero sojourn is
  /// a legitimate sample from an idle worker and is what restores K.
  bool has_sojourn = false;
  std::uint64_t sojourn_ps = 0;

  std::vector<std::uint8_t> serialize() const;
  void serialize_into(std::vector<std::uint8_t>& out) const;
  static std::optional<CompletionMessage> parse(
      std::span<const std::uint8_t> payload);

  bool operator==(const CompletionMessage&) const = default;
};

/// Dispatcher → worker in reliable mode: an assignment descriptor carrying
/// the dispatcher's sequence number, so the worker can ack receipt and the
/// dispatcher can retransmit unacked assignments (DESIGN §9).
struct SequencedAssignment {
  std::uint64_t seq = 0;
  RequestDescriptor descriptor;

  std::vector<std::uint8_t> serialize() const;
  void serialize_into(std::vector<std::uint8_t>& out) const;
  static std::optional<SequencedAssignment> parse(
      std::span<const std::uint8_t> payload);

  bool operator==(const SequencedAssignment&) const = default;
};

/// A bare ack, serialized as kDispatchAck (worker confirms an assignment) or
/// kNoteAck (dispatcher confirms a worker note). The parse side must name
/// the expected direction so the two ack flows cannot be confused.
struct AckMessage {
  std::uint64_t seq = 0;
  std::uint32_t worker_id = 0;

  std::vector<std::uint8_t> serialize(MessageType type) const;
  void serialize_into(MessageType type, std::vector<std::uint8_t>& out) const;
  static std::optional<AckMessage> parse(std::span<const std::uint8_t> payload,
                                         MessageType expected_type);

  bool operator==(const AckMessage&) const = default;
};

/// Worker → dispatcher in reliable mode: a sequenced completion or
/// preemption note. Always carries the full descriptor — completions need
/// the request_id to clear the dispatcher's in-flight entry, and carrying
/// the whole body keeps the frame fixed-size regardless of note kind.
struct SequencedNote {
  std::uint64_t seq = 0;
  std::uint32_t worker_id = 0;
  bool preempted = false;
  RequestDescriptor descriptor;
  /// Optional queue-sojourn sample, as on CompletionMessage.
  bool has_sojourn = false;
  std::uint64_t sojourn_ps = 0;

  std::vector<std::uint8_t> serialize() const;
  void serialize_into(std::vector<std::uint8_t>& out) const;
  static std::optional<SequencedNote> parse(
      std::span<const std::uint8_t> payload);

  bool operator==(const SequencedNote&) const = default;
};

/// Server → client: the dispatcher refused admission (overload control,
/// DESIGN §11). An explicit rejection lets the client back off immediately
/// instead of burning its retry budget against a timeout.
struct RejectMessage {
  std::uint64_t request_id = 0;
  std::uint32_t client_id = 0;
  std::uint16_t kind = 0;
  /// Task-queue depth observed at rejection — congestion feedback.
  std::uint32_t queue_depth = 0;

  std::vector<std::uint8_t> serialize() const;
  void serialize_into(std::vector<std::uint8_t>& out) const;
  static std::optional<RejectMessage> parse(
      std::span<const std::uint8_t> payload);

  bool operator==(const RejectMessage&) const = default;
};

/// ToR ⇄ host liveness probe (DESIGN §16), serialized as kHealthProbe (ToR
/// asks) or kHealthProbeAck (the host's probe responder echoes seq and host
/// back). The parse side must name the expected direction so a reflected
/// probe can never be mistaken for its own ack.
struct ProbeMessage {
  std::uint64_t seq = 0;
  std::uint32_t host = 0;

  std::vector<std::uint8_t> serialize(MessageType type) const;
  void serialize_into(MessageType type, std::vector<std::uint8_t>& out) const;
  static std::optional<ProbeMessage> parse(
      std::span<const std::uint8_t> payload, MessageType expected_type);

  bool operator==(const ProbeMessage&) const = default;
};

/// ToR → host: best-effort cancellation of a still-queued request (the loser
/// copy of a hedged pair, DESIGN §16). Purely advisory — a server that has
/// already dispatched the request just ignores it, and the ToR's dedupe
/// absorbs the duplicate response.
struct CancelMessage {
  std::uint64_t request_id = 0;

  std::vector<std::uint8_t> serialize() const;
  void serialize_into(std::vector<std::uint8_t>& out) const;
  static std::optional<CancelMessage> parse(
      std::span<const std::uint8_t> payload);

  bool operator==(const CancelMessage&) const = default;
};

/// Worker → client.
struct ResponseMessage {
  std::uint64_t request_id = 0;
  std::uint32_t client_id = 0;
  std::uint16_t kind = 0;
  std::uint16_t preempt_count = 0;
  /// Scheduler queue depth observed when this request was dispatched —
  /// the host-side load feedback a JIT congestion controller consumes.
  std::uint32_t queue_depth = 0;
  /// Optional queue-sojourn sample (DESIGN §12): the same per-request wait
  /// the worker already piggybacks dispatcher-ward on CompletionMessage /
  /// SequencedNote, additionally echoed client-ward so a ToR-layer
  /// scheduler can snoop per-server load off in-flight responses. Presence
  /// is explicit (a zero sojourn from an idle server is a legitimate
  /// sample); present fields serialize the frame as version 2.
  bool has_sojourn = false;
  std::uint64_t sojourn_ps = 0;

  std::vector<std::uint8_t> serialize() const;
  void serialize_into(std::vector<std::uint8_t>& out) const;
  static std::optional<ResponseMessage> parse(
      std::span<const std::uint8_t> payload);

  bool operator==(const ResponseMessage&) const = default;
};

}  // namespace nicsched::proto
