// Unit tests for common/: Status, Result, byte buffers, RNG, flags, CSV,
// model arrays.
#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/host_memory.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace colsgd {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad k");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad k");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status st = Status::OutOfMemory("big");
  Status copy = st;
  EXPECT_TRUE(copy.IsOutOfMemory());
  EXPECT_TRUE(st.IsOutOfMemory());
  Status moved = std::move(st);
  EXPECT_TRUE(moved.IsOutOfMemory());
  EXPECT_EQ(moved.message(), "big");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_EQ(Status::SerializationError("x").code(),
            StatusCode::kSerializationError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    COLSGD_RETURN_NOT_OK(Status::NotFound("gone"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsNotFound());
  auto passes = []() -> Status {
    COLSGD_RETURN_NOT_OK(Status::OK());
    return Status::InvalidArgument("reached");
  };
  EXPECT_TRUE(passes().IsInvalidArgument());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IOError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::NotFound("inner");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    COLSGD_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(*outer(false), 14);
  EXPECT_TRUE(outer(true).status().IsNotFound());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

TEST(BytesTest, ScalarRoundTrip) {
  BufferWriter writer;
  writer.PutU8(0xAB);
  writer.PutU32(123456);
  writer.PutU64(1ull << 40);
  writer.PutI32(-77);
  writer.PutI64(-(1ll << 40));
  writer.PutFloat(1.5f);
  writer.PutDouble(-2.25);
  writer.PutString("hello");

  BufferReader reader(writer.buffer());
  EXPECT_EQ(*reader.GetU8(), 0xAB);
  EXPECT_EQ(*reader.GetU32(), 123456u);
  EXPECT_EQ(*reader.GetU64(), 1ull << 40);
  EXPECT_EQ(*reader.GetI32(), -77);
  EXPECT_EQ(*reader.GetI64(), -(1ll << 40));
  EXPECT_EQ(*reader.GetFloat(), 1.5f);
  EXPECT_EQ(*reader.GetDouble(), -2.25);
  EXPECT_EQ(*reader.GetString(), "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, VectorRoundTrip) {
  BufferWriter writer;
  writer.PutDoubleVector({1.0, -2.0, 3.5});
  writer.PutU32Vector({7, 8, 9});
  writer.PutU64Vector({1ull << 50});
  writer.PutFloatVector({0.5f});

  BufferReader reader(writer.buffer());
  EXPECT_EQ(*reader.GetDoubleVector(), (std::vector<double>{1.0, -2.0, 3.5}));
  EXPECT_EQ(*reader.GetU32Vector(), (std::vector<uint32_t>{7, 8, 9}));
  EXPECT_EQ(*reader.GetU64Vector(), (std::vector<uint64_t>{1ull << 50}));
  EXPECT_EQ(*reader.GetFloatVector(), (std::vector<float>{0.5f}));
}

TEST(BytesTest, EmptyVectorsRoundTrip) {
  BufferWriter writer;
  writer.PutDoubleVector({});
  writer.PutString("");
  BufferReader reader(writer.buffer());
  EXPECT_TRUE(reader.GetDoubleVector()->empty());
  EXPECT_TRUE(reader.GetString()->empty());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, TruncatedBufferIsSerializationError) {
  BufferWriter writer;
  writer.PutU64(99);
  BufferReader reader(writer.buffer().data(), 3);  // cut mid-scalar
  EXPECT_EQ(reader.GetU64().status().code(), StatusCode::kSerializationError);
}

TEST(BytesTest, TruncatedVectorIsSerializationError) {
  BufferWriter writer;
  writer.PutDoubleVector({1.0, 2.0, 3.0});
  // Keep the length prefix but cut the payload.
  BufferReader reader(writer.buffer().data(), sizeof(uint64_t) + 8);
  EXPECT_FALSE(reader.GetDoubleVector().ok());
}

TEST(BytesTest, CorruptLengthPrefixDoesNotOverflow) {
  BufferWriter writer;
  writer.PutU64(~0ull);  // absurd element count
  BufferReader reader(writer.buffer());
  EXPECT_FALSE(reader.GetDoubleVector().ok());
}

TEST(BytesTest, WrappingLengthPrefixIsSerializationError) {
  // (2^61 + 1) * sizeof(double) wraps to 8, which the one double that
  // follows would satisfy if the check multiplied.
  BufferWriter writer;
  writer.PutU64((1ull << 61) + 1);
  writer.PutDouble(1.0);
  BufferReader reader(writer.buffer());
  EXPECT_EQ(reader.GetDoubleVector().status().code(),
            StatusCode::kSerializationError);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, SplitStreamsAreIndependentButDeterministic) {
  Rng base(99);
  Rng s1 = base.Split(1);
  Rng s2 = base.Split(2);
  Rng s1_again = base.Split(1);
  EXPECT_EQ(s1.NextU64(), s1_again.NextU64());
  EXPECT_NE(s1.NextU64(), s2.NextU64());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(6);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(7);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, GaussianFromHashIsDeterministicAndStandard) {
  EXPECT_EQ(GaussianFromHash(42, 7), GaussianFromHash(42, 7));
  EXPECT_NE(GaussianFromHash(42, 7), GaussianFromHash(43, 7));
  EXPECT_NE(GaussianFromHash(42, 7), GaussianFromHash(42, 8));
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = GaussianFromHash(i, 3);
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.06);
}

TEST(FlagsTest, ParsesAllTypes) {
  FlagParser flags;
  int64_t n = 1;
  double lr = 0.5;
  bool verbose = false;
  std::string name = "x";
  flags.AddInt64("n", &n, "count");
  flags.AddDouble("lr", &lr, "rate");
  flags.AddBool("verbose", &verbose, "talky");
  flags.AddString("name", &name, "label");

  const char* argv[] = {"prog", "--n=42", "--lr", "0.25", "--verbose",
                        "--name=test"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(n, 42);
  EXPECT_EQ(lr, 0.25);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "test");
}

TEST(FlagsTest, ValuesParseBackExactly) {
  int64_t n = -7;
  double lr = 0.5;
  double budget = 0.3;
  bool verbose = true;
  std::string name = "x";
  FlagParser flags;
  flags.AddInt64("n", &n, "count");
  flags.AddDouble("lr", &lr, "rate");
  flags.AddDouble("budget", &budget, "budget");
  flags.AddBool("verbose", &verbose, "talky");
  flags.AddString("name", &name, "label");
  lr = 1.0 / 3.0;  // the current value counts; it needs 17 digits
  const std::vector<std::pair<std::string, std::string>> values =
      flags.Values();
  ASSERT_EQ(values.size(), 5u);
  EXPECT_EQ(values[0], (std::pair<std::string, std::string>{"n", "-7"}));
  EXPECT_EQ(values[2].second, "0.3");
  EXPECT_EQ(values[3].second, "true");

  int64_t n2 = 0;
  double lr2 = 0.0;
  double budget2 = 0.0;
  bool verbose2 = false;
  std::string name2;
  FlagParser again;
  again.AddInt64("n", &n2, "count");
  again.AddDouble("lr", &lr2, "rate");
  again.AddDouble("budget", &budget2, "budget");
  again.AddBool("verbose", &verbose2, "talky");
  again.AddString("name", &name2, "label");
  std::vector<std::string> args = {"prog"};
  for (const auto& [flag, value] : values) {
    args.push_back("--" + flag + "=" + value);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  ASSERT_TRUE(again.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(n2, n);
  EXPECT_EQ(lr2, lr);
  EXPECT_EQ(budget2, budget);
  EXPECT_EQ(verbose2, verbose);
  EXPECT_EQ(name2, name);
}

TEST(FlagsTest, RejectsUnknownFlag) {
  FlagParser flags;
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_TRUE(flags.Parse(2, const_cast<char**>(argv)).IsInvalidArgument());
}

TEST(FlagsTest, RejectsBadValue) {
  FlagParser flags;
  int64_t n = 0;
  flags.AddInt64("n", &n, "count");
  const char* argv[] = {"prog", "--n=notanumber"};
  EXPECT_TRUE(flags.Parse(2, const_cast<char**>(argv)).IsInvalidArgument());
}

TEST(FlagsTest, RejectsMissingValue) {
  FlagParser flags;
  int64_t n = 0;
  flags.AddInt64("n", &n, "count");
  const char* argv[] = {"prog", "--n"};
  EXPECT_TRUE(flags.Parse(2, const_cast<char**>(argv)).IsInvalidArgument());
}

TEST(CsvTest, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/colsgd_csv_test.csv";
  CsvWriter csv;
  ASSERT_TRUE(csv.Open(path, {"a", "b"}).ok());
  csv.WriteRow({"1", "x"});
  csv.WriteNumericRow({2.5, 3.0});
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,x");
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,3");
  std::remove(path.c_str());
}

TEST(CsvTest, OpenFailsOnBadPath) {
  CsvWriter csv;
  EXPECT_TRUE(csv.Open("/nonexistent-dir/foo.csv", {"a"}).IsIOError());
}

TEST(FormatDoubleTest, CompactRepresentation) {
  EXPECT_EQ(FormatDouble(1.0), "1");
  EXPECT_EQ(FormatDouble(0.125), "0.125");
  EXPECT_EQ(FormatDouble(1e9), "1e+09");
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / canonical CRC32C test vector.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendComposesIncrementally) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  uint32_t split = ExtendCrc32c(0, data.data(), 9);
  split = ExtendCrc32c(split, data.data() + 9, data.size() - 9);
  EXPECT_EQ(split, whole);
}

// The byte-at-a-time CRC32C: one table lookup per byte. ExtendCrc32c must
// give exactly its values whatever loop it runs.
uint32_t ByteLoopCrc32c(uint32_t crc, const uint8_t* p, size_t n) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

TEST(Crc32cTest, MatchesTheByteLoopAtEveryLengthAndAlignment) {
  // 64 bytes at each of the 8 alignments, plus slack; the starting CRCs
  // cover a fresh checksum and an extended one.
  alignas(8) std::array<uint8_t, 80> buffer{};
  Rng rng(20);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextU64());
  for (const uint32_t start : {0u, 0xE3069283u, 0xFFFFFFFFu}) {
    for (size_t align = 0; align < 8; ++align) {
      for (size_t len = 0; len <= 64; ++len) {
        const uint8_t* p = buffer.data() + align;
        EXPECT_EQ(ExtendCrc32c(start, p, len), ByteLoopCrc32c(start, p, len))
            << "start " << start << " align " << align << " len " << len;
      }
    }
  }
}

TEST(Crc32cTest, EverySingleBitFlipChangesTheChecksum) {
  std::vector<uint8_t> data(64);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 37 + 1);
  }
  const uint32_t clean = Crc32c(data);
  for (size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32c(data), clean) << "bit " << bit;
    data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

TEST(ModelArrayTest, ReturnsExactlyNZeros) {
  // Around the huge-page threshold, where the advice starts, and far above.
  const size_t page = kHugePageBytes / sizeof(double);
  for (const size_t n : {size_t{0}, size_t{1}, page - 1, page, page + 1,
                         (size_t{64} << 20) / sizeof(double)}) {
    const std::vector<double> array = ModelArray(n);
    ASSERT_EQ(array.size(), n);
    EXPECT_TRUE(std::all_of(array.begin(), array.end(), [](double x) {
      return std::bit_cast<uint64_t>(x) == 0;  // +0.0
    })) << "n = " << n;
  }
}

/// One /proc/self/smaps entry: a mapping's address range and two fields.
struct SmapsEntry {
  uintptr_t begin = 0;
  uintptr_t end = 0;
  int thp_eligible = -1;  // -1: the kernel prints no THPeligible
  uint64_t anon_huge_kb = 0;
};

std::vector<SmapsEntry> ReadSmaps() {
  std::vector<SmapsEntry> entries;
  std::ifstream in("/proc/self/smaps");
  std::string line;
  while (std::getline(in, line)) {
    // Field lines start with "Name:"; an entry's header with "begin-end ".
    const std::string name = line.substr(0, line.find(' '));
    if (!name.empty() && name.back() == ':') {
      if (entries.empty()) continue;
      const uint64_t value =
          std::strtoull(line.c_str() + name.size(), nullptr, 10);
      if (name == "THPeligible:") {
        entries.back().thp_eligible = static_cast<int>(value);
      }
      if (name == "AnonHugePages:") entries.back().anon_huge_kb = value;
      continue;
    }
    char* rest = nullptr;
    SmapsEntry entry;
    entry.begin = std::strtoull(name.c_str(), &rest, 16);
    if (*rest != '-') continue;
    entry.end = std::strtoull(rest + 1, nullptr, 16);
    entries.push_back(entry);
  }
  return entries;
}

uint64_t VmstatCounter(const std::string& name) {
  std::ifstream in("/proc/vmstat");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == name) return value;
  }
  return 0;
}

TEST(ModelArrayTest, LargeArraysAreAdvisedBeforeTheirFirstTouch) {
  std::ifstream enabled("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(enabled, mode);
  if (mode.find("[always]") == std::string::npos &&
      mode.find("[madvise]") == std::string::npos) {
    GTEST_SKIP() << "transparent huge pages are off here: '" << mode << "'";
  }
  if (prctl(PR_GET_THP_DISABLE, 0, 0, 0, 0) == 1) {
    GTEST_SKIP() << "transparent huge pages are disabled for this process";
  }
  const uint64_t fallbacks = VmstatCounter("thp_fault_fallback");
  const size_t n = (size_t{64} << 20) / sizeof(double);
  const std::vector<double> array = ModelArray(n);
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t data = reinterpret_cast<uintptr_t>(array.data());
  const uintptr_t begin = (data + page - 1) & ~(page - 1);
  const uintptr_t end = (data + n * sizeof(double)) & ~(page - 1);

  // Advice over every whole page of the array: one eligible entry holds
  // them all (in madvise mode the advice splits them into an entry of their
  // own).
  const std::vector<SmapsEntry> smaps = ReadSmaps();
  const auto holder =
      std::find_if(smaps.begin(), smaps.end(), [&](const SmapsEntry& e) {
        return e.begin <= begin && begin < e.end;
      });
  ASSERT_NE(holder, smaps.end());
  EXPECT_GE(holder->end, end) << "the advice stops short of the array's end";
  if (holder->thp_eligible == -1) {
    GTEST_SKIP() << "this kernel's smaps shows no THPeligible";
  }
  EXPECT_EQ(holder->thp_eligible, 1);
  // Advice before the zero-fill: its faults took huge pages, unless the
  // kernel reports it had none to give. (Advice after the fill leaves small
  // pages until khugepaged comes round.)
  if (holder->anon_huge_kb == 0 &&
      VmstatCounter("thp_fault_fallback") > fallbacks) {
    GTEST_SKIP() << "the kernel fell back to small pages";
  }
  EXPECT_GT(holder->anon_huge_kb, 0u);
}

}  // namespace
}  // namespace colsgd
