// Robustness properties of every wire parser: random bytes and random
// single-bit mutations of valid messages must never crash, and accepted
// parses of mutated input must still satisfy basic invariants.
#include <gtest/gtest.h>

#include <vector>

#include "net/packet.h"
#include "proto/messages.h"
#include "sim/random.h"

namespace nicsched {
namespace {

std::vector<std::uint8_t> random_bytes(sim::Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> bytes(rng.uniform_int(0, max_len));
  for (auto& byte : bytes) {
    byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return bytes;
}

class ProtoFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtoFuzz, RandomBytesNeverCrashAnyParser) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    const auto bytes = random_bytes(rng, 128);
    (void)proto::peek_type(bytes);
    (void)proto::RequestMessage::parse(bytes);
    (void)proto::RequestDescriptor::parse(bytes,
                                          proto::MessageType::kAssignment);
    (void)proto::RequestDescriptor::parse(bytes,
                                          proto::MessageType::kPreemption);
    (void)proto::CompletionMessage::parse(bytes);
    (void)proto::ResponseMessage::parse(bytes);
    (void)proto::SequencedAssignment::parse(bytes);
    (void)proto::AckMessage::parse(bytes, proto::MessageType::kDispatchAck);
    (void)proto::AckMessage::parse(bytes, proto::MessageType::kNoteAck);
    (void)proto::SequencedNote::parse(bytes);
    (void)proto::RejectMessage::parse(bytes);
    (void)proto::ProbeMessage::parse(bytes, proto::MessageType::kHealthProbe);
    (void)proto::ProbeMessage::parse(bytes,
                                     proto::MessageType::kHealthProbeAck);
    (void)proto::CancelMessage::parse(bytes);
    (void)net::parse_udp_datagram(net::Packet(bytes));
  }
}

TEST_P(ProtoFuzz, TruncationsOfReliableMessagesAreRejectedNotCrashing) {
  proto::RequestDescriptor descriptor;
  descriptor.request_id = 7;
  descriptor.remaining_ps = 123;

  const auto assignment =
      proto::SequencedAssignment{11, descriptor}.serialize();
  for (std::size_t len = 0; len < assignment.size(); ++len) {
    auto truncated = assignment;
    truncated.resize(len);
    EXPECT_FALSE(proto::SequencedAssignment::parse(truncated).has_value())
        << "accepted a " << len << "-byte truncation";
  }
  EXPECT_TRUE(proto::SequencedAssignment::parse(assignment).has_value());

  proto::SequencedNote note;
  note.seq = 12;
  note.worker_id = 2;
  note.preempted = true;
  note.descriptor = descriptor;
  const auto note_bytes = note.serialize();
  for (std::size_t len = 0; len < note_bytes.size(); ++len) {
    auto truncated = note_bytes;
    truncated.resize(len);
    EXPECT_FALSE(proto::SequencedNote::parse(truncated).has_value())
        << "accepted a " << len << "-byte truncation";
  }
  EXPECT_TRUE(proto::SequencedNote::parse(note_bytes).has_value());

  const auto ack =
      proto::AckMessage{13, 4}.serialize(proto::MessageType::kNoteAck);
  for (std::size_t len = 0; len < ack.size(); ++len) {
    auto truncated = ack;
    truncated.resize(len);
    EXPECT_FALSE(
        proto::AckMessage::parse(truncated, proto::MessageType::kNoteAck)
            .has_value())
        << "accepted a " << len << "-byte truncation";
  }
  EXPECT_TRUE(proto::AckMessage::parse(ack, proto::MessageType::kNoteAck)
                  .has_value());
}

TEST_P(ProtoFuzz, MutatedDatagramsNeverCrashAndParseConsistently) {
  sim::Rng rng(GetParam() + 1000);
  net::DatagramAddress address;
  address.src_mac = net::MacAddress::from_index(1);
  address.dst_mac = net::MacAddress::from_index(2);
  address.src_ip = net::Ipv4Address::from_index(1);
  address.dst_ip = net::Ipv4Address::from_index(2);
  address.src_port = 1111;
  address.dst_port = 8080;

  proto::RequestMessage request;
  request.request_id = 42;
  request.work_ps = 5'000'000;
  const net::Packet valid =
      net::make_udp_datagram(address, request.serialize());

  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes =
        std::vector<std::uint8_t>(valid.bytes().begin(), valid.bytes().end());
    // A single random bit flip. One's-complement checksums always detect a
    // single-bit error (multi-bit flips can cancel — that is a genuine
    // limitation of the real 16-bit internet checksum, not a parser bug).
    const std::size_t index = rng.uniform_int(0, bytes.size() - 1);
    bytes[index] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    const auto view = net::parse_udp_datagram(net::Packet(std::move(bytes)));
    if (index < net::EthernetHeader::kSize) {
      // Ethernet bytes are not covered by a checksum here (the link CRC is
      // assumed checked); the datagram still parses and the payload —
      // untouched — must survive intact.
      if (view) {
        const auto parsed = proto::RequestMessage::parse(view->payload);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->work_ps, request.work_ps);
      }
    } else {
      EXPECT_FALSE(view.has_value())
          << "single-bit flip at byte " << index << " not detected";
    }
  }
}

TEST_P(ProtoFuzz, TruncationsOfValidMessagesAreRejectedNotCrashing) {
  sim::Rng rng(GetParam() + 2000);
  proto::RequestDescriptor descriptor;
  descriptor.request_id = 7;
  descriptor.remaining_ps = 123;
  const auto full = descriptor.serialize(proto::MessageType::kAssignment);
  for (std::size_t len = 0; len < full.size(); ++len) {
    auto truncated = full;
    truncated.resize(len);
    EXPECT_FALSE(proto::RequestDescriptor::parse(
                     truncated, proto::MessageType::kAssignment)
                     .has_value())
        << "accepted a " << len << "-byte truncation";
  }
  // The untruncated original round-trips.
  EXPECT_TRUE(proto::RequestDescriptor::parse(full,
                                              proto::MessageType::kAssignment)
                  .has_value());
}

TEST_P(ProtoFuzz, TruncationsOfExtendedAndRejectMessagesAreRejected) {
  // Version-2 frames (DESIGN §11) are fixed-size per version: a truncated
  // extended frame must be rejected outright, never mis-parsed as its
  // shorter version-1 layout with the extended fields silently dropped.
  proto::RequestMessage request;
  request.request_id = 7;
  request.work_ps = 123;
  request.deadline_ps = 99'000'000;  // forces version 2
  request.padding = 16;
  const auto request_bytes = request.serialize();
  for (std::size_t len = 0; len < request_bytes.size(); ++len) {
    auto truncated = request_bytes;
    truncated.resize(len);
    EXPECT_FALSE(proto::RequestMessage::parse(truncated).has_value())
        << "accepted a " << len << "-byte truncation";
  }
  const auto request_parsed = proto::RequestMessage::parse(request_bytes);
  ASSERT_TRUE(request_parsed.has_value());
  EXPECT_EQ(*request_parsed, request);

  proto::RequestDescriptor descriptor;
  descriptor.request_id = 7;
  descriptor.remaining_ps = 123;
  descriptor.deadline_ps = 99'000'000;
  const auto descriptor_bytes =
      descriptor.serialize(proto::MessageType::kAssignment);
  for (std::size_t len = 0; len < descriptor_bytes.size(); ++len) {
    auto truncated = descriptor_bytes;
    truncated.resize(len);
    EXPECT_FALSE(proto::RequestDescriptor::parse(
                     truncated, proto::MessageType::kAssignment)
                     .has_value())
        << "accepted a " << len << "-byte truncation";
  }
  const auto descriptor_parsed = proto::RequestDescriptor::parse(
      descriptor_bytes, proto::MessageType::kAssignment);
  ASSERT_TRUE(descriptor_parsed.has_value());
  EXPECT_EQ(*descriptor_parsed, descriptor);

  proto::CompletionMessage completion;
  completion.request_id = 9;
  completion.worker_id = 1;
  completion.has_sojourn = true;
  completion.sojourn_ps = 0;  // zero sample is legitimate and must survive
  const auto completion_bytes = completion.serialize();
  for (std::size_t len = 0; len < completion_bytes.size(); ++len) {
    auto truncated = completion_bytes;
    truncated.resize(len);
    EXPECT_FALSE(proto::CompletionMessage::parse(truncated).has_value())
        << "accepted a " << len << "-byte truncation";
  }
  const auto completion_parsed =
      proto::CompletionMessage::parse(completion_bytes);
  ASSERT_TRUE(completion_parsed.has_value());
  EXPECT_EQ(*completion_parsed, completion);

  proto::SequencedNote note;
  note.seq = 12;
  note.worker_id = 2;
  note.descriptor = descriptor;
  note.has_sojourn = true;
  note.sojourn_ps = 44'000'000;
  const auto note_bytes = note.serialize();
  for (std::size_t len = 0; len < note_bytes.size(); ++len) {
    auto truncated = note_bytes;
    truncated.resize(len);
    EXPECT_FALSE(proto::SequencedNote::parse(truncated).has_value())
        << "accepted a " << len << "-byte truncation";
  }
  const auto note_parsed = proto::SequencedNote::parse(note_bytes);
  ASSERT_TRUE(note_parsed.has_value());
  EXPECT_EQ(*note_parsed, note);

  proto::RejectMessage reject;
  reject.request_id = 5;
  reject.client_id = 3;
  reject.queue_depth = 512;
  const auto reject_bytes = reject.serialize();
  for (std::size_t len = 0; len < reject_bytes.size(); ++len) {
    auto truncated = reject_bytes;
    truncated.resize(len);
    EXPECT_FALSE(proto::RejectMessage::parse(truncated).has_value())
        << "accepted a " << len << "-byte truncation";
  }
  const auto reject_parsed = proto::RejectMessage::parse(reject_bytes);
  ASSERT_TRUE(reject_parsed.has_value());
  EXPECT_EQ(*reject_parsed, reject);
}

TEST_P(ProtoFuzz, CorruptedSojournFlagBytesAreRejectedNotCrashing) {
  // The explicit sojourn-presence flag must be 0 or 1; every other value is
  // a corrupted frame and must fail the parse, whatever the rest holds.
  proto::CompletionMessage completion;
  completion.request_id = 9;
  completion.has_sojourn = true;
  completion.sojourn_ps = 1'000'000;
  auto completion_bytes = completion.serialize();
  const std::size_t completion_flag = 4 + 8 + 4;  // header + id + worker

  proto::SequencedNote note;
  note.seq = 12;
  note.has_sojourn = true;
  auto note_bytes = note.serialize();
  const std::size_t note_flag = 4 + 8 + 4 + 1;  // header + seq + worker + flag

  sim::Rng rng(GetParam() + 3000);
  for (int trial = 0; trial < 200; ++trial) {
    const auto bad = static_cast<std::uint8_t>(rng.uniform_int(2, 255));
    completion_bytes[completion_flag] = bad;
    EXPECT_FALSE(proto::CompletionMessage::parse(completion_bytes).has_value())
        << "accepted sojourn flag " << int(bad);
    note_bytes[note_flag] = bad;
    EXPECT_FALSE(proto::SequencedNote::parse(note_bytes).has_value())
        << "accepted sojourn flag " << int(bad);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtoFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace nicsched
