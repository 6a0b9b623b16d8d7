#include "proto/messages.h"

namespace nicsched::proto {

namespace {

void write_header(net::ByteWriter& writer, MessageType type,
                  std::uint8_t version = kVersion) {
  writer.u16(kMagic);
  writer.u8(version);
  writer.u8(static_cast<std::uint8_t>(type));
}

/// Validates magic/version/type and positions `reader` after the header.
/// Accepts only version-1 frames; messages with an extended layout use
/// `read_header_versioned` instead.
bool read_header(net::ByteReader& reader, MessageType expected) {
  if (reader.remaining() < 4) return false;
  if (reader.u16() != kMagic) return false;
  if (reader.u8() != kVersion) return false;
  return reader.u8() == static_cast<std::uint8_t>(expected);
}

/// As `read_header`, but accepts version 1 or 2 and reports which was seen.
/// The caller must then enforce the exact fixed layout of that version —
/// a truncated version-2 frame must never fall back to a version-1 parse.
bool read_header_versioned(net::ByteReader& reader, MessageType expected,
                           std::uint8_t& version) {
  if (reader.remaining() < 4) return false;
  if (reader.u16() != kMagic) return false;
  version = reader.u8();
  if (version != kVersion && version != kVersionExtended) return false;
  return reader.u8() == static_cast<std::uint8_t>(expected);
}

constexpr std::size_t kDescriptorBodySize = 48;
/// Version-2 descriptor body: the version-1 layout plus a trailing u64
/// deadline and u16 tenant. Fixed-size per version so truncation cannot
/// alias.
constexpr std::size_t kDescriptorBodySizeV2 = kDescriptorBodySize + 10;

/// The version a descriptor-carrying frame must use: extended fields force
/// version 2, otherwise the legacy layout is emitted bit-for-bit.
std::uint8_t descriptor_version(const RequestDescriptor& descriptor) {
  return (descriptor.deadline_ps != 0 || descriptor.tenant != 0)
             ? kVersionExtended
             : kVersion;
}

void write_descriptor_body(net::ByteWriter& writer,
                           const RequestDescriptor& descriptor,
                           std::uint8_t version) {
  writer.u64(descriptor.request_id);
  writer.u32(descriptor.client_id);
  writer.u16(descriptor.kind);
  writer.u64(descriptor.remaining_ps);
  writer.u64(descriptor.total_ps);
  writer.u16(descriptor.preempt_count);
  writer.u32(descriptor.queue_depth);
  writer.bytes(descriptor.client_mac.octets());
  writer.u32(descriptor.client_ip.bits());
  writer.u16(descriptor.client_port);
  if (version == kVersionExtended) {
    writer.u64(descriptor.deadline_ps);
    writer.u16(descriptor.tenant);
  }
}

std::optional<RequestDescriptor> read_descriptor_body(net::ByteReader& reader,
                                                      std::uint8_t version) {
  const std::size_t body_size = version == kVersionExtended
                                    ? kDescriptorBodySizeV2
                                    : kDescriptorBodySize;
  if (reader.remaining() < body_size) return std::nullopt;
  RequestDescriptor descriptor;
  descriptor.request_id = reader.u64();
  descriptor.client_id = reader.u32();
  descriptor.kind = reader.u16();
  descriptor.remaining_ps = reader.u64();
  descriptor.total_ps = reader.u64();
  descriptor.preempt_count = reader.u16();
  descriptor.queue_depth = reader.u32();
  std::array<std::uint8_t, net::MacAddress::kSize> mac{};
  auto mac_bytes = reader.bytes(net::MacAddress::kSize);
  std::copy(mac_bytes.begin(), mac_bytes.end(), mac.begin());
  descriptor.client_mac = net::MacAddress(mac);
  descriptor.client_ip = net::Ipv4Address(reader.u32());
  descriptor.client_port = reader.u16();
  if (version == kVersionExtended) {
    descriptor.deadline_ps = reader.u64();
    descriptor.tenant = reader.u16();
  }
  return descriptor;
}

/// The owning-serialize shim: every `serialize()` delegates to the
/// `serialize_into` overload through this, so the wire layout lives in
/// exactly one function per message.
template <typename Serialize>
std::vector<std::uint8_t> owned(std::size_t reserve_hint,
                                Serialize&& serialize) {
  std::vector<std::uint8_t> out;
  out.reserve(reserve_hint);
  serialize(out);
  return out;
}

}  // namespace

std::vector<std::uint8_t>& serialization_scratch() {
  thread_local std::vector<std::uint8_t> scratch;
  return scratch;
}

std::optional<MessageType> peek_type(std::span<const std::uint8_t> payload) {
  if (payload.size() < 4) return std::nullopt;
  net::ByteReader reader(payload);
  if (reader.u16() != kMagic) return std::nullopt;
  const std::uint8_t version = reader.u8();
  if (version != kVersion && version != kVersionExtended) return std::nullopt;
  const std::uint8_t type = reader.u8();
  // 11 and 12 were the RDMA run-queue and completion-queue frames, retired
  // with the byte-level RDMA channel: no frame carries them any more.
  if (type < static_cast<std::uint8_t>(MessageType::kRequest) ||
      type > static_cast<std::uint8_t>(MessageType::kCancel) || type == 11 ||
      type == 12) {
    return std::nullopt;
  }
  return static_cast<MessageType>(type);
}

std::vector<std::uint8_t> RequestMessage::serialize() const {
  return owned(38 + padding,
               [this](std::vector<std::uint8_t>& out) { serialize_into(out); });
}

void RequestMessage::serialize_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  const std::uint8_t version =
      (deadline_ps != 0 || tenant != 0) ? kVersionExtended : kVersion;
  net::ByteWriter writer(out);
  write_header(writer, MessageType::kRequest, version);
  writer.u64(request_id);
  writer.u32(client_id);
  writer.u16(kind);
  writer.u64(work_ps);
  if (version == kVersionExtended) {
    writer.u64(deadline_ps);
    writer.u16(tenant);
  }
  writer.u16(padding);
  out.resize(out.size() + padding, 0);
}

std::optional<RequestMessage> RequestMessage::parse(
    std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  std::uint8_t version = 0;
  if (!read_header_versioned(reader, MessageType::kRequest, version)) {
    return std::nullopt;
  }
  const std::size_t body_size = version == kVersionExtended ? 34 : 24;
  if (reader.remaining() < body_size) return std::nullopt;
  RequestMessage message;
  message.request_id = reader.u64();
  message.client_id = reader.u32();
  message.kind = reader.u16();
  message.work_ps = reader.u64();
  if (version == kVersionExtended) {
    message.deadline_ps = reader.u64();
    message.tenant = reader.u16();
  }
  message.padding = reader.u16();
  if (reader.remaining() < message.padding) return std::nullopt;
  return message;
}

std::vector<std::uint8_t> RequestDescriptor::serialize(
    MessageType type) const {
  return owned(4 + kDescriptorBodySizeV2,
               [this, type](std::vector<std::uint8_t>& out) {
                 serialize_into(type, out);
               });
}

void RequestDescriptor::serialize_into(MessageType type,
                                       std::vector<std::uint8_t>& out) const {
  out.clear();
  const std::uint8_t version = descriptor_version(*this);
  net::ByteWriter writer(out);
  write_header(writer, type, version);
  write_descriptor_body(writer, *this, version);
}

std::optional<RequestDescriptor> RequestDescriptor::parse(
    std::span<const std::uint8_t> payload, MessageType expected_type) {
  if (expected_type != MessageType::kAssignment &&
      expected_type != MessageType::kPreemption) {
    return std::nullopt;
  }
  net::ByteReader reader(payload);
  std::uint8_t version = 0;
  if (!read_header_versioned(reader, expected_type, version)) {
    return std::nullopt;
  }
  return read_descriptor_body(reader, version);
}

std::vector<std::uint8_t> SequencedAssignment::serialize() const {
  return owned(12 + kDescriptorBodySizeV2,
               [this](std::vector<std::uint8_t>& out) { serialize_into(out); });
}

void SequencedAssignment::serialize_into(
    std::vector<std::uint8_t>& out) const {
  out.clear();
  const std::uint8_t version = descriptor_version(descriptor);
  net::ByteWriter writer(out);
  write_header(writer, MessageType::kSequencedAssignment, version);
  writer.u64(seq);
  write_descriptor_body(writer, descriptor, version);
}

std::optional<SequencedAssignment> SequencedAssignment::parse(
    std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  std::uint8_t version = 0;
  if (!read_header_versioned(reader, MessageType::kSequencedAssignment,
                             version)) {
    return std::nullopt;
  }
  if (reader.remaining() < 8) return std::nullopt;
  SequencedAssignment message;
  message.seq = reader.u64();
  auto descriptor = read_descriptor_body(reader, version);
  if (!descriptor) return std::nullopt;
  message.descriptor = std::move(*descriptor);
  return message;
}

std::vector<std::uint8_t> AckMessage::serialize(MessageType type) const {
  return owned(16, [this, type](std::vector<std::uint8_t>& out) {
    serialize_into(type, out);
  });
}

void AckMessage::serialize_into(MessageType type,
                                std::vector<std::uint8_t>& out) const {
  out.clear();
  net::ByteWriter writer(out);
  write_header(writer, type);
  writer.u64(seq);
  writer.u32(worker_id);
}

std::optional<AckMessage> AckMessage::parse(
    std::span<const std::uint8_t> payload, MessageType expected_type) {
  if (expected_type != MessageType::kDispatchAck &&
      expected_type != MessageType::kNoteAck) {
    return std::nullopt;
  }
  net::ByteReader reader(payload);
  if (!read_header(reader, expected_type)) return std::nullopt;
  if (reader.remaining() < 12) return std::nullopt;
  AckMessage message;
  message.seq = reader.u64();
  message.worker_id = reader.u32();
  return message;
}

std::vector<std::uint8_t> SequencedNote::serialize() const {
  return owned(26 + kDescriptorBodySizeV2,
               [this](std::vector<std::uint8_t>& out) { serialize_into(out); });
}

void SequencedNote::serialize_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  const std::uint8_t version =
      (has_sojourn || descriptor.deadline_ps != 0) ? kVersionExtended
                                                   : kVersion;
  net::ByteWriter writer(out);
  write_header(writer, MessageType::kSequencedNote, version);
  writer.u64(seq);
  writer.u32(worker_id);
  writer.u8(preempted ? 1 : 0);
  if (version == kVersionExtended) {
    writer.u8(has_sojourn ? 1 : 0);
    writer.u64(sojourn_ps);
  }
  write_descriptor_body(writer, descriptor, version);
}

std::optional<SequencedNote> SequencedNote::parse(
    std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  std::uint8_t version = 0;
  if (!read_header_versioned(reader, MessageType::kSequencedNote, version)) {
    return std::nullopt;
  }
  const std::size_t fixed_size = version == kVersionExtended ? 22 : 13;
  if (reader.remaining() < fixed_size) return std::nullopt;
  SequencedNote message;
  message.seq = reader.u64();
  message.worker_id = reader.u32();
  const std::uint8_t preempted = reader.u8();
  if (preempted > 1) return std::nullopt;  // corrupted flag byte
  message.preempted = preempted == 1;
  if (version == kVersionExtended) {
    const std::uint8_t has_sojourn = reader.u8();
    if (has_sojourn > 1) return std::nullopt;  // corrupted flag byte
    message.has_sojourn = has_sojourn == 1;
    message.sojourn_ps = reader.u64();
  }
  auto descriptor = read_descriptor_body(reader, version);
  if (!descriptor) return std::nullopt;
  message.descriptor = std::move(*descriptor);
  return message;
}

std::vector<std::uint8_t> CompletionMessage::serialize() const {
  return owned(25,
               [this](std::vector<std::uint8_t>& out) { serialize_into(out); });
}

void CompletionMessage::serialize_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  // Version 2 if and only if a sojourn sample rides along; the flag byte is
  // still written explicitly so a zero sample (idle worker — exactly what
  // restores adaptive-K) survives the wire unambiguously.
  const std::uint8_t version = has_sojourn ? kVersionExtended : kVersion;
  net::ByteWriter writer(out);
  write_header(writer, MessageType::kCompletion, version);
  writer.u64(request_id);
  writer.u32(worker_id);
  if (version == kVersionExtended) {
    writer.u8(has_sojourn ? 1 : 0);
    writer.u64(sojourn_ps);
  }
}

std::optional<CompletionMessage> CompletionMessage::parse(
    std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  std::uint8_t version = 0;
  if (!read_header_versioned(reader, MessageType::kCompletion, version)) {
    return std::nullopt;
  }
  const std::size_t body_size = version == kVersionExtended ? 21 : 12;
  if (reader.remaining() < body_size) return std::nullopt;
  CompletionMessage message;
  message.request_id = reader.u64();
  message.worker_id = reader.u32();
  if (version == kVersionExtended) {
    const std::uint8_t has_sojourn = reader.u8();
    if (has_sojourn > 1) return std::nullopt;  // corrupted flag byte
    message.has_sojourn = has_sojourn == 1;
    message.sojourn_ps = reader.u64();
  }
  return message;
}

std::vector<std::uint8_t> RejectMessage::serialize() const {
  return owned(22,
               [this](std::vector<std::uint8_t>& out) { serialize_into(out); });
}

void RejectMessage::serialize_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  net::ByteWriter writer(out);
  write_header(writer, MessageType::kReject);
  writer.u64(request_id);
  writer.u32(client_id);
  writer.u16(kind);
  writer.u32(queue_depth);
}

std::optional<RejectMessage> RejectMessage::parse(
    std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  if (!read_header(reader, MessageType::kReject)) return std::nullopt;
  if (reader.remaining() < 18) return std::nullopt;
  RejectMessage message;
  message.request_id = reader.u64();
  message.client_id = reader.u32();
  message.kind = reader.u16();
  message.queue_depth = reader.u32();
  return message;
}

std::vector<std::uint8_t> ProbeMessage::serialize(MessageType type) const {
  return owned(16, [this, type](std::vector<std::uint8_t>& out) {
    serialize_into(type, out);
  });
}

void ProbeMessage::serialize_into(MessageType type,
                                  std::vector<std::uint8_t>& out) const {
  out.clear();
  net::ByteWriter writer(out);
  write_header(writer, type);
  writer.u64(seq);
  writer.u32(host);
}

std::optional<ProbeMessage> ProbeMessage::parse(
    std::span<const std::uint8_t> payload, MessageType expected_type) {
  if (expected_type != MessageType::kHealthProbe &&
      expected_type != MessageType::kHealthProbeAck) {
    return std::nullopt;
  }
  net::ByteReader reader(payload);
  if (!read_header(reader, expected_type)) return std::nullopt;
  if (reader.remaining() < 12) return std::nullopt;
  ProbeMessage message;
  message.seq = reader.u64();
  message.host = reader.u32();
  return message;
}

std::vector<std::uint8_t> CancelMessage::serialize() const {
  return owned(12,
               [this](std::vector<std::uint8_t>& out) { serialize_into(out); });
}

void CancelMessage::serialize_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  net::ByteWriter writer(out);
  write_header(writer, MessageType::kCancel);
  writer.u64(request_id);
}

std::optional<CancelMessage> CancelMessage::parse(
    std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  if (!read_header(reader, MessageType::kCancel)) return std::nullopt;
  if (reader.remaining() < 8) return std::nullopt;
  CancelMessage message;
  message.request_id = reader.u64();
  return message;
}

std::vector<std::uint8_t> ResponseMessage::serialize() const {
  return owned(16,
               [this](std::vector<std::uint8_t>& out) { serialize_into(out); });
}

void ResponseMessage::serialize_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  // Version 2 if and only if a sojourn sample rides along (same contract as
  // CompletionMessage): the flag byte is written explicitly so a zero sample
  // from an idle server survives the wire unambiguously.
  const std::uint8_t version = has_sojourn ? kVersionExtended : kVersion;
  net::ByteWriter writer(out);
  write_header(writer, MessageType::kResponse, version);
  writer.u64(request_id);
  writer.u32(client_id);
  writer.u16(kind);
  writer.u16(preempt_count);
  writer.u32(queue_depth);
  if (version == kVersionExtended) {
    writer.u8(has_sojourn ? 1 : 0);
    writer.u64(sojourn_ps);
  }
}

std::optional<ResponseMessage> ResponseMessage::parse(
    std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  std::uint8_t version = 0;
  if (!read_header_versioned(reader, MessageType::kResponse, version)) {
    return std::nullopt;
  }
  const std::size_t body_size = version == kVersionExtended ? 29 : 20;
  if (reader.remaining() < body_size) return std::nullopt;
  ResponseMessage message;
  message.request_id = reader.u64();
  message.client_id = reader.u32();
  message.kind = reader.u16();
  message.preempt_count = reader.u16();
  message.queue_depth = reader.u32();
  if (version == kVersionExtended) {
    const std::uint8_t has_sojourn = reader.u8();
    if (has_sojourn > 1) return std::nullopt;  // corrupted flag byte
    message.has_sojourn = has_sojourn == 1;
    message.sojourn_ps = reader.u64();
  }
  return message;
}

}  // namespace nicsched::proto
