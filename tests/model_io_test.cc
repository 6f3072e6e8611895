// Tests for trained-model serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "engine/model_io.h"

namespace colsgd {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(ModelIoTest, RoundTripGlm) {
  SavedModel model;
  model.model_name = "lr";
  model.num_features = 5;
  model.weights = {0.1, -0.2, 0.3, 0.0, 5.5};
  const std::string path = TempPath("lr_model.bin");
  ASSERT_TRUE(WriteModelFile(model, path).ok());
  auto loaded = ReadModelFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->model_name, "lr");
  EXPECT_EQ(loaded->num_features, 5u);
  EXPECT_EQ(loaded->weights, model.weights);
  EXPECT_TRUE(loaded->shared.empty());
  std::remove(path.c_str());
}

TEST(ModelIoTest, RoundTripWithSharedParams) {
  SavedModel model;
  model.model_name = "mlp2";
  model.num_features = 3;
  model.weights = {1, 2, 3, 4, 5, 6};  // 3 features x 2 hidden
  model.shared = {0.5, -0.5, 0.1, 0.2, 0.3};  // 2H+1 = 5
  const std::string path = TempPath("mlp_model.bin");
  ASSERT_TRUE(WriteModelFile(model, path).ok());
  auto loaded = ReadModelFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->shared, model.shared);
  std::remove(path.c_str());
}

TEST(ModelIoTest, RejectsWrongMagic) {
  const std::string path = TempPath("not_a_model.bin");
  std::ofstream out(path, std::ios::binary);
  out << "definitely not a model file, but long enough to read";
  out.close();
  auto loaded = ReadModelFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kSerializationError);
  std::remove(path.c_str());
}

TEST(ModelIoTest, RejectsInconsistentWeightCount) {
  SavedModel model;
  model.model_name = "fm2";  // needs 3 weights per feature
  model.num_features = 4;
  model.weights = {1, 2, 3};  // wrong: should be 12
  const std::string path = TempPath("bad_model.bin");
  ASSERT_TRUE(WriteModelFile(model, path).ok());
  auto loaded = ReadModelFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kSerializationError);
  std::remove(path.c_str());
}

TEST(ModelIoTest, RejectsTruncatedFile) {
  SavedModel model;
  model.model_name = "lr";
  model.num_features = 100;
  model.weights.assign(100, 1.0);
  const std::string path = TempPath("truncated_model.bin");
  ASSERT_TRUE(WriteModelFile(model, path).ok());
  // Truncate.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_FALSE(ReadModelFile(path).ok());
  std::remove(path.c_str());
}

TEST(ModelIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadModelFile("/no/such/model.bin").status().IsIOError());
}

TEST(ModelIoTest, SerializeParseRoundTripsInMemory) {
  SavedModel model;
  model.model_name = "lr";
  model.num_features = 4;
  model.weights = {0.25, -1.5, 0.0, 3.75};
  const std::vector<uint8_t> bytes = SerializeModel(model);
  auto parsed = ParseModel(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->weights, model.weights);
  // Serialization is deterministic (the checkpoint fingerprint relies on
  // this).
  EXPECT_EQ(SerializeModel(model), bytes);
}

TEST(ModelIoTest, RejectsUnknownModelName) {
  // A well-formed, CRC-valid image whose model name no factory knows is a
  // damaged file, not a reason to abort.
  SavedModel model;
  model.model_name = "bogus";
  model.num_features = 2;
  model.weights = {1.0, 2.0};
  Result<SavedModel> parsed = ParseModel(SerializeModel(model));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kSerializationError);
  EXPECT_NE(parsed.status().message().find("bogus"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ModelIoTest, ChecksumCatchesEverySingleBitFlip) {
  SavedModel model;
  model.model_name = "lr";
  model.num_features = 3;
  model.weights = {1.0, -2.0, 0.5};
  const std::vector<uint8_t> clean = SerializeModel(model);
  // v2 format: the CRC32C trailer must reject a flip anywhere in the image
  // (header, payload, or the trailer itself) — this is the property the
  // checkpoint bit-rot fault leans on.
  for (size_t bit = 0; bit < clean.size() * 8; ++bit) {
    std::vector<uint8_t> damaged = clean;
    damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(ParseModel(damaged).ok()) << "bit " << bit;
  }
}

TEST(ModelIoTest, TornPrefixIsRejectedAtEveryLength) {
  SavedModel model;
  model.model_name = "lr";
  model.num_features = 8;
  model.weights.assign(8, 2.5);
  const std::vector<uint8_t> clean = SerializeModel(model);
  for (size_t len = 0; len < clean.size(); ++len) {
    const std::vector<uint8_t> torn(clean.begin(),
                                    clean.begin() + static_cast<long>(len));
    EXPECT_FALSE(ParseModel(torn).ok()) << "prefix length " << len;
  }
}

}  // namespace
}  // namespace colsgd
