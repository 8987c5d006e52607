//===- JsonWriterTest.cpp - Wire spelling of the JSON writer --------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Pins the bytes support/JsonWriter.h emits for numbers and strings. Serve
// replies carry every interval endpoint twice, as exact lo_hex/hi_hex bits
// and as a decimal lo/hi; the decimal is the "%.17g" spelling and clients
// may compare it textually, so the writer must reproduce printf exactly,
// in every rounding mode.
//
//===----------------------------------------------------------------------===//

#include "support/JsonWriter.h"

#include "server/Json.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

using igen::JsonWriter;

namespace {

template <typename T> std::string written(T V) {
  JsonWriter W;
  W.value(V);
  std::string S = W.take();
  S.pop_back(); // take() ends the document with '\n'
  return S;
}

std::string printf17(double D) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  return Buf;
}

double fromBits(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

/// \p D and its four nearest neighbours on each side.
void addWithNeighbours(std::vector<double> &Out, double D) {
  double Down = D, Up = D;
  Out.push_back(D);
  for (int I = 0; I < 4; ++I) {
    Down = std::nextafter(Down, -INFINITY);
    Up = std::nextafter(Up, INFINITY);
    Out.push_back(Down);
    Out.push_back(Up);
  }
}

/// Edge values plus the points where "%.17g" switches between fixed and
/// exponent notation (exponent -5 and 17), each with neighbours and sign.
std::vector<double> edgeDoubles() {
  std::vector<double> Out = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             DBL_MIN,
                             -DBL_MIN,
                             DBL_MAX,
                             -DBL_MAX,
                             0.1,
                             -0.1,
                             1.0,
                             0.5,
                             123456789012345678.0};
  for (double D : {1e-5, 1e-4, 1e15, 1e16, 1e17, 1e-300, 1e300, 1.0 / 3}) {
    addWithNeighbours(Out, D);
    addWithNeighbours(Out, -D);
  }
  return Out;
}

/// Every finite double in \p Ds must print as "%.17g" does under the
/// current rounding mode.
void expectPrintfSpelling(const std::vector<double> &Ds) {
  size_t Mismatches = 0;
  for (double D : Ds) {
    if (!std::isfinite(D))
      continue;
    std::string Want = printf17(D), Got = written(D);
    if (Got != Want && ++Mismatches <= 5)
      ADD_FAILURE() << "writer spells " << Got << ", %.17g spells " << Want;
  }
  EXPECT_EQ(Mismatches, 0u);
}

std::vector<double> randomFiniteDoubles(size_t N) {
  std::mt19937_64 G(20261017);
  std::vector<double> Out;
  while (Out.size() < N) {
    double D = fromBits(G());
    if (std::isfinite(D))
      Out.push_back(D);
  }
  return Out;
}

TEST(JsonWriterWire, DoublesMatchPrintfAtEdges) {
  expectPrintfSpelling(edgeDoubles());
  EXPECT_EQ(written(0.1), "0.10000000000000001");
  EXPECT_EQ(written(-0.0), "-0");
  EXPECT_EQ(written(1e-5), "1.0000000000000001e-05");
  EXPECT_EQ(written(1e-4), "0.0001");
  EXPECT_EQ(written(1e16), "10000000000000000");
  EXPECT_EQ(written(1e17), "1e+17");
  EXPECT_EQ(written(std::numeric_limits<double>::denorm_min()),
            "4.9406564584124654e-324");
}

TEST(JsonWriterWire, RandomBitPatternsMatchPrintf) {
  expectPrintfSpelling(randomFiniteDoubles(100000));
}

TEST(JsonWriterWire, DirectedRoundingModesMatchPrintf) {
  // printf rounds the 17th digit in the current mode, so the spelling of
  // 0.1 differs between modes; the writer must follow it in each.
  std::vector<double> Ds = edgeDoubles();
  std::vector<double> Random = randomFiniteDoubles(2000);
  Ds.insert(Ds.end(), Random.begin(), Random.end());
  for (int Mode : {FE_UPWARD, FE_DOWNWARD, FE_TOWARDZERO}) {
    ASSERT_EQ(std::fesetround(Mode), 0);
    expectPrintfSpelling(Ds);
    std::fesetround(FE_TONEAREST);
  }
}

TEST(JsonWriterWire, NonFiniteDoublesAreStrings) {
  EXPECT_EQ(written(INFINITY), "\"inf\"");
  EXPECT_EQ(written(-INFINITY), "\"-inf\"");
  EXPECT_EQ(written(std::nan("")), "\"nan\"");
  EXPECT_EQ(written(-std::nan("")), "\"nan\"");
}

TEST(JsonWriterWire, IntegersMatchPrintf) {
  for (int64_t V : {int64_t(0), int64_t(-1), int64_t(7), int64_t(-42),
                    int64_t(1234567890123), INT64_MAX, INT64_MIN}) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%" PRId64, V);
    EXPECT_EQ(written(V), Buf);
  }
  for (uint64_t V : {uint64_t(0), uint64_t(9), uint64_t(10), uint64_t(64),
                     uint64_t(1) << 63, UINT64_MAX}) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%" PRIu64, V);
    EXPECT_EQ(written(V), Buf);
  }
  EXPECT_EQ(written(-5), "-5");
  EXPECT_EQ(written(5u), "5");
}

/// The per-character escaping the writer has always produced.
std::string referenceQuoted(std::string_view S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    case '\r': Out += "\\r"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

TEST(JsonWriterWire, StringEscapesMatchPerCharacterSpelling) {
  std::string Every;
  for (int C = 0; C < 256; ++C)
    Every.push_back(static_cast<char>(C));
  std::vector<std::string> Cases = {"",
                                    "plain",
                                    "\"",
                                    "\\",
                                    "a\"b\\c\nd\te\x01f",
                                    "\x1f",
                                    "run then \n",
                                    "\r\nleading",
                                    Every,
                                    Every + Every};
  for (const std::string &S : Cases) {
    std::string Quoted = referenceQuoted(S);
    EXPECT_EQ(written(std::string_view(S)), Quoted);
    EXPECT_EQ(igen::server::jsonEscape(S),
              Quoted.substr(1, Quoted.size() - 2));
  }
}

TEST(JsonWriterWire, PrettyLayoutIsUnchanged) {
  JsonWriter W;
  W.beginObject();
  W.field("ok", true);
  W.field("lo", 0.1);
  W.field("n", int64_t(-3));
  W.key("xs");
  W.beginArray();
  W.value(uint64_t(1));
  W.beginArray();
  W.endArray();
  W.endArray();
  W.endObject();
  EXPECT_EQ(W.take(), "{\n  \"ok\": true,\n  \"lo\": 0.10000000000000001,\n"
                      "  \"n\": -3,\n  \"xs\": [\n    1,\n    []\n  ]\n}\n");
}

} // namespace
