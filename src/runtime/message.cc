#include "runtime/message.h"

#include <cstring>

#include "common/crc32.h"

namespace fexiot {
namespace {

constexpr char kMagicPrefix[6] = {'F', 'E', 'X', 'M', 'S', 'G'};
constexpr char kMagicV1[8] = {'F', 'E', 'X', 'M', 'S', 'G', '0', '1'};
constexpr char kMagicV2[8] = {'F', 'E', 'X', 'M', 'S', 'G', '0', '2'};

}  // namespace

std::vector<uint8_t> EncodeMessage(const WireMessage& msg) {
  std::vector<uint8_t> out;
  out.reserve(MessageWireBytes(msg.payload.size(), msg.codec));
  if (msg.codec == WireCodec::kFp64) {
    // Legacy framing, byte-identical to the pre-codec encoder: no encoding
    // field, so fp64 traffic prices and hashes exactly as before.
    out.insert(out.end(), kMagicV1, kMagicV1 + sizeof(kMagicV1));
  } else {
    out.insert(out.end(), kMagicV2, kMagicV2 + sizeof(kMagicV2));
  }
  wire::AppendU32(&out, static_cast<uint32_t>(msg.type));
  wire::AppendU32(&out, msg.round);
  wire::AppendU32(&out, msg.sender);
  wire::AppendU32(&out, msg.layer);
  if (msg.codec != WireCodec::kFp64) {
    wire::AppendU32(&out, static_cast<uint32_t>(msg.codec));
  }
  AppendEncodedPayload(&out, msg.payload, msg.codec);
  wire::AppendU32(&out, Crc32(out.data() + sizeof(kMagicV1),
                              out.size() - sizeof(kMagicV1)));
  return out;
}

Result<WireMessage> DecodeMessage(const uint8_t* data, size_t size) {
  if (size < sizeof(kMagicV1) ||
      std::memcmp(data, kMagicPrefix, sizeof(kMagicPrefix)) != 0) {
    return Status::InvalidArgument("not a FexIoT wire message");
  }
  const bool v1 = std::memcmp(data, kMagicV1, sizeof(kMagicV1)) == 0;
  const bool v2 = !v1 && std::memcmp(data, kMagicV2, sizeof(kMagicV2)) == 0;
  if (!v1 && !v2) {
    return Status::InvalidArgument(
        "unsupported FexIoT wire message version (expected FEXMSG01/02)");
  }
  if (size < MessageWireBytes(0)) {
    return Status::IOError("truncated wire message");
  }
  size_t off = size - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  (void)wire::ReadU32(data, size, &off, &stored_crc);
  const uint32_t actual_crc =
      Crc32(data + sizeof(kMagicV1), size - sizeof(kMagicV1) - sizeof(uint32_t));
  if (stored_crc != actual_crc) {
    return Status::InvalidArgument("wire message corrupted (CRC mismatch)");
  }
  const size_t body_end = size - sizeof(uint32_t);

  off = sizeof(kMagicV1);
  WireMessage msg;
  uint32_t type = 0;
  if (!wire::ReadU32(data, body_end, &off, &type) ||
      !wire::ReadU32(data, body_end, &off, &msg.round) ||
      !wire::ReadU32(data, body_end, &off, &msg.sender) ||
      !wire::ReadU32(data, body_end, &off, &msg.layer)) {
    return Status::IOError("truncated wire message");
  }
  if (type > static_cast<uint32_t>(MessageType::kLayerUpdate)) {
    return Status::InvalidArgument("unknown wire message type");
  }
  msg.type = static_cast<MessageType>(type);
  if (v2) {
    uint32_t encoding = 0;
    if (!wire::ReadU32(data, body_end, &off, &encoding)) {
      return Status::IOError("truncated wire message");
    }
    if (!IsValidWireCodec(encoding)) {
      return Status::InvalidArgument("unknown wire message payload encoding");
    }
    // fp64 travels only as FEXMSG01; accepting it here would give one
    // message two framings.
    if (encoding == static_cast<uint32_t>(WireCodec::kFp64)) {
      return Status::InvalidArgument("FEXMSG02 frame with fp64 encoding");
    }
    msg.codec = static_cast<WireCodec>(encoding);
  }
  if (!ReadEncodedPayload(data, body_end, &off, msg.codec, &msg.payload)) {
    return Status::IOError("truncated wire message");
  }
  if (off != body_end) {
    return Status::InvalidArgument("trailing bytes in wire message");
  }
  return msg;
}

size_t MessageWireBytes(size_t payload_len, WireCodec codec) {
  const size_t encoding_field =
      codec == WireCodec::kFp64 ? 0 : sizeof(uint32_t);
  return sizeof(kMagicV1) + 4 * sizeof(uint32_t) + encoding_field +
         EncodedPayloadBytes(payload_len, codec) + sizeof(uint32_t);
}

}  // namespace fexiot
