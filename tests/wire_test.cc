#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/hash64.h"

namespace qbe {
namespace {

WireRequest SampleRequest() {
  WireRequest request;
  request.id = 0x0123456789abcdefULL;
  request.deadline_ms = 250;
  request.column_names = {"person", "device", ""};
  request.rows = {
      {{"Mike", false}, {"ThinkPad", true}, {"", false}},
      {{"Mary", false}, {"", false}, {"Dropbox", false}},
  };
  return request;
}

WireResponse SampleResponse() {
  WireResponse response;
  response.id = 7;
  response.status = "ok";
  response.timed_out = false;
  response.latency_seconds = 0.004125;
  response.queue_seconds = 0.000031;
  response.num_candidates = 19;
  response.verifications = 12;
  response.estimated_cost = 3400;
  response.pruned_without_verification = 7;
  response.queries = {
      {"SELECT * FROM a JOIN b ON a.x = b.y", 3, 0.75},
      {"SELECT * FROM a", 2, 0.5},
  };
  return response;
}

WireErrorMsg SampleError() {
  return {42, WireFault::kShuttingDown, "server is draining"};
}

/// Extraction helper asserting the buffer holds exactly one valid frame.
FrameView MustExtract(const std::string& bytes) {
  FrameView frame;
  WireFault fault = WireFault::kNone;
  std::string detail;
  FrameStatus status =
      TryExtractFrame(bytes.data(), bytes.size(), &frame, &fault, &detail);
  EXPECT_EQ(status, FrameStatus::kFrame) << detail;
  EXPECT_EQ(frame.frame_bytes, bytes.size());
  return frame;
}

TEST(WireTest, RequestRoundTrip) {
  WireRequest request = SampleRequest();
  std::string bytes;
  EncodeRequestFrame(request, &bytes);
  FrameView frame = MustExtract(bytes);
  ASSERT_EQ(frame.type, WireType::kDiscoverRequest);

  WireRequest decoded;
  std::string error;
  ASSERT_TRUE(DecodeRequestPayload(frame.payload, frame.payload_bytes,
                                   &decoded, &error))
      << error;
  EXPECT_EQ(decoded.id, request.id);
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded.column_names, request.column_names);
  ASSERT_EQ(decoded.rows.size(), request.rows.size());
  for (size_t r = 0; r < request.rows.size(); ++r) {
    ASSERT_EQ(decoded.rows[r].size(), request.rows[r].size());
    for (size_t c = 0; c < request.rows[r].size(); ++c) {
      EXPECT_EQ(decoded.rows[r][c].text, request.rows[r][c].text);
      EXPECT_EQ(decoded.rows[r][c].exact, request.rows[r][c].exact);
    }
  }
}

TEST(WireTest, RequestExampleTableRoundTrip) {
  ExampleTable et({"person", "device", "appliance"});
  et.AddRowCells({{"Mike", false}, {"ThinkPad", true}, {"", false}});
  et.AddRowCells({{"Mary", false}, {"iPad", false}, {"", false}});

  WireRequest request = WireRequest::FromExampleTable(et, 5, 100);
  ExampleTable back = request.ToExampleTable();
  ASSERT_EQ(back.num_rows(), et.num_rows());
  ASSERT_EQ(back.num_columns(), et.num_columns());
  for (int c = 0; c < et.num_columns(); ++c) {
    EXPECT_EQ(back.column_name(c), et.column_name(c));
  }
  for (int r = 0; r < et.num_rows(); ++r) {
    for (int c = 0; c < et.num_columns(); ++c) {
      EXPECT_EQ(back.cell(r, c).text, et.cell(r, c).text);
      EXPECT_EQ(back.cell(r, c).exact, et.cell(r, c).exact);
    }
  }
}

TEST(WireTest, ResponseRoundTrip) {
  WireResponse response = SampleResponse();
  std::string bytes;
  EncodeResponseFrame(response, &bytes);
  FrameView frame = MustExtract(bytes);
  ASSERT_EQ(frame.type, WireType::kDiscoverResponse);

  WireResponse decoded;
  std::string error;
  ASSERT_TRUE(DecodeResponsePayload(frame.payload, frame.payload_bytes,
                                    &decoded, &error))
      << error;
  EXPECT_EQ(decoded.id, response.id);
  EXPECT_EQ(decoded.status, response.status);
  EXPECT_EQ(decoded.error, response.error);
  EXPECT_EQ(decoded.timed_out, response.timed_out);
  // Doubles travel as their IEEE-754 bytes: bit-exact, not approximate.
  EXPECT_EQ(decoded.latency_seconds, response.latency_seconds);
  EXPECT_EQ(decoded.queue_seconds, response.queue_seconds);
  EXPECT_EQ(decoded.num_candidates, response.num_candidates);
  EXPECT_EQ(decoded.verifications, response.verifications);
  EXPECT_EQ(decoded.estimated_cost, response.estimated_cost);
  EXPECT_EQ(decoded.pruned_without_verification,
            response.pruned_without_verification);
  ASSERT_EQ(decoded.queries.size(), response.queries.size());
  for (size_t i = 0; i < response.queries.size(); ++i) {
    EXPECT_EQ(decoded.queries[i].sql, response.queries[i].sql);
    EXPECT_EQ(decoded.queries[i].matched_rows,
              response.queries[i].matched_rows);
    EXPECT_EQ(decoded.queries[i].score, response.queries[i].score);
  }
}

TEST(WireTest, ErrorRoundTrip) {
  WireErrorMsg error_msg = SampleError();
  std::string bytes;
  EncodeErrorFrame(error_msg, &bytes);
  FrameView frame = MustExtract(bytes);
  ASSERT_EQ(frame.type, WireType::kError);

  WireErrorMsg decoded;
  std::string error;
  ASSERT_TRUE(DecodeErrorPayload(frame.payload, frame.payload_bytes, &decoded,
                                 &error))
      << error;
  EXPECT_EQ(decoded.id, error_msg.id);
  EXPECT_EQ(decoded.fault, error_msg.fault);
  EXPECT_EQ(decoded.message, error_msg.message);
}

TEST(WireTest, PipelinedFramesExtractInOrder) {
  std::string bytes;
  WireRequest first = SampleRequest();
  first.id = 1;
  EncodeRequestFrame(first, &bytes);
  size_t first_len = bytes.size();
  WireRequest second = SampleRequest();
  second.id = 2;
  EncodeRequestFrame(second, &bytes);

  FrameView frame;
  WireFault fault = WireFault::kNone;
  ASSERT_EQ(TryExtractFrame(bytes.data(), bytes.size(), &frame, &fault),
            FrameStatus::kFrame);
  ASSERT_EQ(frame.frame_bytes, first_len);
  WireRequest decoded;
  std::string error;
  ASSERT_TRUE(DecodeRequestPayload(frame.payload, frame.payload_bytes,
                                   &decoded, &error));
  EXPECT_EQ(decoded.id, 1u);

  ASSERT_EQ(TryExtractFrame(bytes.data() + first_len,
                            bytes.size() - first_len, &frame, &fault),
            FrameStatus::kFrame);
  ASSERT_TRUE(DecodeRequestPayload(frame.payload, frame.payload_bytes,
                                   &decoded, &error));
  EXPECT_EQ(decoded.id, 2u);
}

// --- corruption matrix -----------------------------------------------------
//
// The wal_test.cc discipline applied to the wire: every truncation length
// and every single-byte flip of a valid frame must decode to kNeedMore or
// a typed kFault — never a crash and never a false kFrame.

std::vector<std::string> SampleFrames() {
  std::vector<std::string> frames(3);
  EncodeRequestFrame(SampleRequest(), &frames[0]);
  EncodeResponseFrame(SampleResponse(), &frames[1]);
  EncodeErrorFrame(SampleError(), &frames[2]);
  return frames;
}

TEST(WireCorruptionTest, EveryTruncationIsNeedMoreOrFault) {
  for (const std::string& frame_bytes : SampleFrames()) {
    for (size_t len = 0; len < frame_bytes.size(); ++len) {
      FrameView frame;
      WireFault fault = WireFault::kNone;
      FrameStatus status =
          TryExtractFrame(frame_bytes.data(), len, &frame, &fault);
      EXPECT_NE(status, FrameStatus::kFrame) << "truncated to " << len;
      if (status == FrameStatus::kFault) {
        EXPECT_NE(fault, WireFault::kNone) << "truncated to " << len;
      }
    }
  }
}

TEST(WireCorruptionTest, EveryByteFlipIsRejectedOrIncomplete) {
  for (const std::string& pristine : SampleFrames()) {
    for (size_t i = 0; i < pristine.size(); ++i) {
      for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
        std::string corrupt = pristine;
        corrupt[i] = static_cast<char>(corrupt[i] ^ flip);
        FrameView frame;
        WireFault fault = WireFault::kNone;
        FrameStatus status =
            TryExtractFrame(corrupt.data(), corrupt.size(), &frame, &fault);
        // A flipped length field may read as a longer frame (kNeedMore) —
        // a stream cannot tell corruption from an unfinished send. What
        // must never happen is a flipped frame passing as valid: the
        // checksum covers header + payload.
        EXPECT_NE(status, FrameStatus::kFrame)
            << "byte " << i << " flipped with 0x" << std::hex
            << static_cast<int>(flip);
        if (status == FrameStatus::kFault) {
          EXPECT_NE(fault, WireFault::kNone);
        }
      }
    }
  }
}

TEST(WireCorruptionTest, PayloadBitFlipsYieldBadChecksum) {
  // Flips strictly inside the payload can't be confused for framing
  // trouble: the declared length still matches, so the checksum is what
  // catches them.
  std::string bytes;
  EncodeResponseFrame(SampleResponse(), &bytes);
  for (size_t i = kWireHeaderBytes; i < bytes.size() - kWireTrailerBytes;
       ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    FrameView frame;
    WireFault fault = WireFault::kNone;
    ASSERT_EQ(TryExtractFrame(corrupt.data(), corrupt.size(), &frame, &fault),
              FrameStatus::kFault)
        << "payload byte " << i;
    EXPECT_EQ(fault, WireFault::kBadChecksum) << "payload byte " << i;
  }
}

TEST(WireCorruptionTest, BadMagicDetectedEarly) {
  std::string bytes;
  EncodeRequestFrame(SampleRequest(), &bytes);
  bytes[0] = 'X';
  FrameView frame;
  WireFault fault = WireFault::kNone;
  // Only 4 bytes are enough to spot a stream that isn't this protocol.
  EXPECT_EQ(TryExtractFrame(bytes.data(), 4, &frame, &fault),
            FrameStatus::kFault);
  EXPECT_EQ(fault, WireFault::kBadMagic);
}

TEST(WireCorruptionTest, OversizedLengthRejectedBeforeBuffering) {
  std::string bytes;
  EncodeRequestFrame(SampleRequest(), &bytes);
  // Declare a payload over the cap; only the header is present, yet the
  // frame must be rejected now rather than waiting for 2 GiB that will
  // never arrive.
  uint32_t huge = static_cast<uint32_t>(kMaxWirePayload) + 1;
  std::memcpy(&bytes[8], &huge, sizeof(huge));
  FrameView frame;
  WireFault fault = WireFault::kNone;
  EXPECT_EQ(TryExtractFrame(bytes.data(), kWireHeaderBytes, &frame, &fault),
            FrameStatus::kFault);
  EXPECT_EQ(fault, WireFault::kTooLarge);
}

TEST(WireCorruptionTest, WrongVersionIsTyped) {
  std::string bytes;
  EncodeRequestFrame(SampleRequest(), &bytes);
  // Bump the version and fix up the checksum so only the version differs:
  // the fault must be kBadVersion, not kBadChecksum.
  uint16_t v2 = kWireVersion + 1;
  std::memcpy(&bytes[4], &v2, sizeof(v2));
  std::string rehashed = bytes.substr(0, bytes.size() - kWireTrailerBytes);
  uint64_t checksum = Hash64(rehashed.data(), rehashed.size());
  std::memcpy(&bytes[bytes.size() - kWireTrailerBytes], &checksum,
              sizeof(checksum));
  FrameView frame;
  WireFault fault = WireFault::kNone;
  EXPECT_EQ(TryExtractFrame(bytes.data(), bytes.size(), &frame, &fault),
            FrameStatus::kFault);
  EXPECT_EQ(fault, WireFault::kBadVersion);
}

TEST(WireCorruptionTest, UnknownTypeIsTyped) {
  std::string bytes;
  EncodeRequestFrame(SampleRequest(), &bytes);
  uint16_t bogus = 99;
  std::memcpy(&bytes[6], &bogus, sizeof(bogus));
  std::string rehashed = bytes.substr(0, bytes.size() - kWireTrailerBytes);
  uint64_t checksum = Hash64(rehashed.data(), rehashed.size());
  std::memcpy(&bytes[bytes.size() - kWireTrailerBytes], &checksum,
              sizeof(checksum));
  FrameView frame;
  WireFault fault = WireFault::kNone;
  EXPECT_EQ(TryExtractFrame(bytes.data(), bytes.size(), &frame, &fault),
            FrameStatus::kFault);
  EXPECT_EQ(fault, WireFault::kBadType);
}

// --- payload validation ----------------------------------------------------

TEST(WirePayloadTest, TrailingGarbageRejected) {
  std::string bytes;
  EncodeRequestFrame(SampleRequest(), &bytes);
  FrameView frame = MustExtract(bytes);
  std::string padded(frame.payload, frame.payload_bytes);
  padded.push_back('\0');
  WireRequest decoded;
  std::string error;
  EXPECT_FALSE(
      DecodeRequestPayload(padded.data(), padded.size(), &decoded, &error));
  EXPECT_FALSE(error.empty());
}

TEST(WirePayloadTest, EveryRequestPayloadTruncationRejected) {
  std::string bytes;
  EncodeRequestFrame(SampleRequest(), &bytes);
  FrameView frame = MustExtract(bytes);
  for (size_t len = 0; len < frame.payload_bytes; ++len) {
    WireRequest decoded;
    std::string error;
    EXPECT_FALSE(DecodeRequestPayload(frame.payload, len, &decoded, &error))
        << "payload truncated to " << len;
  }
}

TEST(WirePayloadTest, EveryResponsePayloadTruncationRejected) {
  std::string bytes;
  EncodeResponseFrame(SampleResponse(), &bytes);
  FrameView frame = MustExtract(bytes);
  for (size_t len = 0; len < frame.payload_bytes; ++len) {
    WireResponse decoded;
    std::string error;
    EXPECT_FALSE(DecodeResponsePayload(frame.payload, len, &decoded, &error))
        << "payload truncated to " << len;
  }
}

TEST(WirePayloadTest, ImplausibleCountsRejectedWithoutAllocation) {
  // A request payload claiming 2^31 columns in a 20-byte payload must be
  // rejected by the count-vs-size plausibility check, not by an OOM.
  std::string payload;
  payload.resize(20, '\0');
  uint64_t id = 1;
  std::memcpy(&payload[0], &id, sizeof(id));
  uint32_t deadline = 0;
  std::memcpy(&payload[8], &deadline, sizeof(deadline));
  uint32_t columns = 0x80000000u;
  std::memcpy(&payload[12], &columns, sizeof(columns));
  WireRequest decoded;
  std::string error;
  EXPECT_FALSE(
      DecodeRequestPayload(payload.data(), payload.size(), &decoded, &error));
  EXPECT_FALSE(error.empty());
}

/// Encodes `request` as a checksummed frame and decodes its payload.
bool DecodesAfterFraming(const WireRequest& request, std::string* error) {
  std::string bytes;
  EncodeRequestFrame(request, &bytes);
  FrameView frame = MustExtract(bytes);
  WireRequest decoded;
  return DecodeRequestPayload(frame.payload, frame.payload_bytes, &decoded,
                              error);
}

TEST(WirePayloadTest, ExampleTableShapesBeyondLimitsRejected) {
  std::string error;
  // 33 columns: framing and checksum are valid, but ExampleTable holds 32.
  WireRequest too_wide;
  too_wide.column_names.resize(ExampleTable::kMaxColumns + 1);
  too_wide.rows.emplace_back(ExampleTable::kMaxColumns + 1,
                             EtCell{"Mike", false});
  EXPECT_FALSE(DecodesAfterFraming(too_wide, &error));
  EXPECT_NE(error.find("33 columns"), std::string::npos) << error;

  // No columns and no rows.
  error.clear();
  EXPECT_FALSE(DecodesAfterFraming(WireRequest{}, &error));
  EXPECT_FALSE(error.empty());

  // Exactly 32 columns still decodes and converts.
  WireRequest widest;
  widest.column_names.resize(ExampleTable::kMaxColumns);
  widest.rows.emplace_back(ExampleTable::kMaxColumns, EtCell{"Mike", false});
  EXPECT_TRUE(DecodesAfterFraming(widest, &error)) << error;
  EXPECT_EQ(widest.ToExampleTable().num_columns(), ExampleTable::kMaxColumns);
}

TEST(WirePayloadTest, ErrorPayloadFaultCodeRangeChecked) {
  std::string bytes;
  EncodeErrorFrame(SampleError(), &bytes);
  FrameView frame = MustExtract(bytes);
  std::string payload(frame.payload, frame.payload_bytes);
  uint16_t bogus = 200;  // beyond kShuttingDown
  std::memcpy(&payload[8], &bogus, sizeof(bogus));
  WireErrorMsg decoded;
  std::string error;
  EXPECT_FALSE(
      DecodeErrorPayload(payload.data(), payload.size(), &decoded, &error));
}

}  // namespace
}  // namespace qbe
