// Seeded in-repo mutation fuzzer for the byte decoders: FEXMSG01/02 wire
// frames (DecodeMessage), FEXGNN02 model blobs (DeserializeGnnModel) and
// rule texts (RuleParser::Parse). Each target starts from valid inputs and
// applies bit flips, truncation, length-field corruption and splices of
// two valid inputs, with a fixed seed and a fixed iteration count, so a
// run is reproducible. Half the binary mutants get their CRC-32 footer
// re-sealed; otherwise nearly every mutant would stop at the CRC check and
// the payload parsers would never be reached. Every call must return a
// Status or a value — no crash, no sanitizer report, no hang — and a
// mutant that does decode must re-encode to a frame of its size (fp64
// frames and model blobs: to the exact same bytes).
//
// Inputs that once crashed a decoder are kept below as named regression
// cases (FuzzRegression.*).

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "gnn/gnn_model.h"
#include "gnn/serialization.h"
#include "runtime/message.h"
#include "smarthome/rule_parser.h"

namespace fexiot {
namespace {

using Bytes = std::vector<uint8_t>;

constexpr uint64_t kFuzzSeed = 0xF0220DECULL;
constexpr int kMessageIterations = 20000;
constexpr int kModelIterations = 10000;
constexpr int kRuleIterations = 20000;
constexpr size_t kMagicBytes = 8;

/// One valid input plus the offsets of its length-like fields (u64
/// little-endian), which the length-corruption mutation aims at.
struct Seed {
  Bytes bytes;
  std::vector<size_t> length_fields;
};

/// Re-computes the trailing CRC-32 over everything between the 8-byte
/// magic and the footer, as the encoders do.
void ResealCrc(Bytes* b) {
  if (b->size() < kMagicBytes + sizeof(uint32_t)) return;
  const uint32_t crc = Crc32(b->data() + kMagicBytes,
                             b->size() - kMagicBytes - sizeof(uint32_t));
  std::memcpy(b->data() + b->size() - sizeof(uint32_t), &crc, sizeof(crc));
}

void WriteU64(Bytes* b, size_t off, uint64_t v) {
  if (off + sizeof(v) <= b->size()) std::memcpy(b->data() + off, &v, sizeof(v));
}

uint64_t InterestingLength(Rng* rng, size_t size) {
  const uint64_t values[] = {0,
                             1,
                             2,
                             size,
                             size / 8,
                             size + 1,
                             0x7fffffffULL,
                             0x80000000ULL,
                             0xffffffffULL,
                             1ULL << 32,
                             1ULL << 61,
                             std::numeric_limits<uint64_t>::max() / 8 + 1,
                             std::numeric_limits<uint64_t>::max()};
  return values[rng->UniformInt(sizeof(values) / sizeof(values[0]))];
}

/// One mutant of a random seed: bit flips, truncation, length-field
/// corruption, or a splice of two seeds. \p reseal re-seals the CRC
/// footer on half of them.
Bytes Mutate(const std::vector<Seed>& seeds, bool reseal, Rng* rng) {
  const Seed& seed = seeds[rng->UniformInt(seeds.size())];
  Bytes out = seed.bytes;
  switch (rng->UniformInt(4)) {
    case 0: {  // bit flips
      const uint64_t flips = 1 + rng->UniformInt(8);
      for (uint64_t i = 0; i < flips && !out.empty(); ++i) {
        out[rng->UniformInt(out.size())] ^=
            static_cast<uint8_t>(1u << rng->UniformInt(8));
      }
      break;
    }
    case 1:  // truncation
      out.resize(rng->UniformInt(out.size() + 1));
      break;
    case 2: {  // length-field corruption
      size_t off = 0;
      if (!seed.length_fields.empty() && rng->Bernoulli(0.75)) {
        off = seed.length_fields[rng->UniformInt(seed.length_fields.size())];
      } else if (out.size() >= sizeof(uint64_t)) {
        off = rng->UniformInt(out.size() - sizeof(uint64_t) + 1);
      }
      WriteU64(&out, off, InterestingLength(rng, out.size()));
      break;
    }
    default: {  // splice: a prefix of one seed + a suffix of another
      const Bytes& other = seeds[rng->UniformInt(seeds.size())].bytes;
      out.resize(rng->UniformInt(out.size() + 1));
      const size_t from = rng->UniformInt(other.size() + 1);
      out.insert(out.end(), other.begin() + static_cast<ptrdiff_t>(from),
                 other.end());
      break;
    }
  }
  if (reseal && rng->Bernoulli(0.5)) ResealCrc(&out);
  return out;
}

// ---------------------------------------------------------------------------
// FEXMSG01 / FEXMSG02 wire frames
// ---------------------------------------------------------------------------

std::vector<Seed> MessageSeeds() {
  std::vector<Seed> seeds;
  const std::vector<std::vector<double>> payloads = {
      {},
      {1.5},
      {0.0, -0.0, 1e300, -1e-300, 3.25, -7.0, 42.0},
      {std::numeric_limits<double>::infinity(),
       -std::numeric_limits<double>::infinity(),
       std::numeric_limits<double>::quiet_NaN(), 2.0, 2.0, 2.0},
  };
  uint32_t round = 0;
  for (int k = 0; k < kNumWireCodecs; ++k) {
    for (const auto& payload : payloads) {
      WireMessage msg;
      msg.type = round % 2 == 0 ? MessageType::kLayerUpdate
                                : MessageType::kBroadcast;
      msg.round = round++;
      msg.sender = round % 3 == 0 ? kServerSenderId : round;
      msg.layer = round % 4;
      msg.codec = static_cast<WireCodec>(k);
      msg.payload = payload;
      // The u64 payload count follows the four u32 fields (and, in
      // FEXMSG02, the u32 encoding field).
      const size_t count_off =
          kMagicBytes + 4 * sizeof(uint32_t) +
          (msg.codec == WireCodec::kFp64 ? 0 : sizeof(uint32_t));
      seeds.push_back({EncodeMessage(msg), {count_off}});
    }
  }
  // A wider frame so truncations land inside the lanes.
  WireMessage wide;
  wide.codec = WireCodec::kInt8;
  for (int i = 0; i < 40; ++i) wide.payload.push_back(0.25 * i - 3.0);
  seeds.push_back({EncodeMessage(wide), {kMagicBytes + 5 * sizeof(uint32_t)}});
  return seeds;
}

TEST(FuzzDecoders, WireMessageFramesNeverCrash) {
  const std::vector<Seed> seeds = MessageSeeds();
  for (const Seed& s : seeds) {
    ASSERT_TRUE(DecodeMessage(s.bytes.data(), s.bytes.size()).ok());
  }
  Rng rng(kFuzzSeed);
  int decoded = 0;
  for (int it = 0; it < kMessageIterations; ++it) {
    const Bytes m = Mutate(seeds, /*reseal=*/true, &rng);
    const Result<WireMessage> r = DecodeMessage(m.data(), m.size());
    if (!r.ok()) continue;
    ++decoded;
    // Each message has one framing: what decodes re-encodes to a frame
    // of the same size, and fp64 (raw lanes) to the exact input bytes.
    // Lossy lanes need not round-trip: arbitrary int8 codes under an
    // arbitrary scale are not what the quantizer would pick.
    const Bytes again = EncodeMessage(r.value());
    EXPECT_EQ(again.size(), m.size()) << "iteration " << it;
    if (r.value().codec == WireCodec::kFp64) {
      EXPECT_EQ(again, m) << "iteration " << it;
    }
  }
  // Mutants that survive (e.g. a flipped round number under a re-sealed
  // CRC) must exist, or the payload parsers were never exercised.
  EXPECT_GT(decoded, 0);
}

// ---------------------------------------------------------------------------
// FEXGNN02 model blobs
// ---------------------------------------------------------------------------

std::vector<Seed> ModelSeeds() {
  std::vector<Seed> seeds;
  for (GnnType type : {GnnType::kGcn, GnnType::kGin, GnnType::kMagnn}) {
    GnnConfig c;
    c.type = type;
    c.input_dim = 3;
    c.hetero_input_dim = 2;
    c.hidden_dim = 4;
    c.num_layers = 2;
    c.embedding_dim = 3;
    c.seed = 5 + static_cast<uint64_t>(type);
    Seed s;
    s.bytes = SerializeGnnModel(GnnModel(c));
    // Eight u64 header fields, then the first layer record's count.
    for (size_t f = 0; f <= 8; ++f) {
      s.length_fields.push_back(kMagicBytes + f * sizeof(uint64_t));
    }
    seeds.push_back(std::move(s));
  }
  return seeds;
}

TEST(FuzzDecoders, GnnModelBlobsNeverCrash) {
  const std::vector<Seed> seeds = ModelSeeds();
  for (const Seed& s : seeds) {
    ASSERT_TRUE(DeserializeGnnModel(s.bytes.data(), s.bytes.size()).ok());
  }
  Rng rng(kFuzzSeed + 1);
  int decoded = 0;
  for (int it = 0; it < kModelIterations; ++it) {
    const Bytes m = Mutate(seeds, /*reseal=*/true, &rng);
    const Result<GnnModel> r = DeserializeGnnModel(m.data(), m.size());
    if (!r.ok()) continue;
    ++decoded;
    EXPECT_EQ(SerializeGnnModel(r.value()), m) << "iteration " << it;
  }
  EXPECT_GT(decoded, 0);
}

// ---------------------------------------------------------------------------
// Rule texts
// ---------------------------------------------------------------------------

TEST(FuzzDecoders, RuleTextsNeverCrash) {
  const char* texts[] = {
      "If smoke is detected, then open the valve",
      "alexa, turn off the heater",
      "when it is sunset then switch on the lamp",
      "If motion is detected in the hallway, turn on the light",
      "When the front door is unlocked, disarm the alarm",
      "If the temperature rises above 30 degrees, turn on the fan",
      "lock the door when I leave home",
      "If water leak is detected, close the valve and notify me",
  };
  std::vector<Seed> seeds;
  for (const char* t : texts) {
    seeds.push_back({Bytes(t, t + std::strlen(t)), {}});
  }
  Rng rng(kFuzzSeed + 2);
  int parsed = 0;
  for (int it = 0; it < kRuleIterations; ++it) {
    const Bytes m = Mutate(seeds, /*reseal=*/false, &rng);
    const Result<Rule> r =
        RuleParser::Parse(std::string(m.begin(), m.end()));
    if (r.ok()) ++parsed;
  }
  EXPECT_GT(parsed, 0);
}

// ---------------------------------------------------------------------------
// Regression cases: inputs the fuzzer once crashed a decoder with
// ---------------------------------------------------------------------------

Bytes ModelWithHeaderField(size_t field, uint64_t value) {
  Bytes b = ModelSeeds().front().bytes;
  WriteU64(&b, kMagicBytes + field * sizeof(uint64_t), value);
  ResealCrc(&b);
  return b;
}

// A re-sealed blob whose hidden_dim reads INT_MAX used to reach the
// GnnModel constructor, which tried to allocate terabytes of weights
// (std::bad_alloc escaped DeserializeGnnModel). The header's shape must
// fit the bytes that follow before anything is allocated.
TEST(FuzzRegression, HugeHiddenDimIsRejectedBeforeAllocating) {
  const Bytes b = ModelWithHeaderField(/*hidden_dim*/ 3, INT_MAX);
  const Result<GnnModel> r = DeserializeGnnModel(b.data(), b.size());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// Zero-width layers cost no weights, but a layer count in the billions
// still built one empty layer object per count.
TEST(FuzzRegression, HugeLayerCountIsRejectedBeforeAllocating) {
  Bytes b = ModelSeeds().front().bytes;
  WriteU64(&b, kMagicBytes + 3 * sizeof(uint64_t), 0);        // hidden_dim
  WriteU64(&b, kMagicBytes + 4 * sizeof(uint64_t), INT_MAX);  // num_layers
  WriteU64(&b, kMagicBytes + 5 * sizeof(uint64_t), 0);        // embedding
  ResealCrc(&b);
  EXPECT_FALSE(DeserializeGnnModel(b.data(), b.size()).ok());
}

// A re-sealed FEXMSG02 frame declaring the fp64 encoding (raw f64 lanes)
// used to decode, although fp64 travels only as FEXMSG01: one message had
// two framings, and re-encoding it came out 4 bytes shorter.
TEST(FuzzRegression, Fexmsg02FrameWithFp64EncodingIsRejected) {
  WireMessage msg;
  msg.codec = WireCodec::kFp32;
  msg.payload = {1.0, 2.0};
  const Bytes fp32 = EncodeMessage(msg);
  // Header through the encoding field, rewritten to fp64 + raw lanes.
  Bytes b(fp32.begin(), fp32.begin() + kMagicBytes + 5 * sizeof(uint32_t));
  std::memset(b.data() + b.size() - sizeof(uint32_t), 0, sizeof(uint32_t));
  msg.codec = WireCodec::kFp64;
  const Bytes fp64 = EncodeMessage(msg);
  b.insert(b.end(), fp64.begin() + kMagicBytes + 4 * sizeof(uint32_t),
           fp64.end());
  ResealCrc(&b);
  const Result<WireMessage> r = DecodeMessage(b.data(), b.size());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// A negative dimension serialized as its two's-complement u64 would wrap
// to a huge size_t inside the constructor.
TEST(FuzzRegression, NegativeDimensionIsRejected) {
  const Bytes b = ModelWithHeaderField(/*input_dim*/ 1, ~uint64_t{0});
  EXPECT_FALSE(DeserializeGnnModel(b.data(), b.size()).ok());
}

}  // namespace
}  // namespace fexiot
