#include "engine/model_io.h"

#include <cstring>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "model/factory.h"
#include "storage/atomic_file.h"

namespace colsgd {

namespace {
constexpr uint32_t kMagic = 0xC01D56D1;  // "ColSGD" model file
// v1 had no integrity trailer; v2 seals the payload with CRC32C.
constexpr uint32_t kVersion = 2;
}  // namespace

std::vector<uint8_t> SerializeModel(const SavedModel& model) {
  BufferWriter writer;
  writer.PutU32(kMagic);
  writer.PutU32(kVersion);
  writer.PutString(model.model_name);
  writer.PutU64(model.num_features);
  writer.PutDoubleVector(model.weights);
  writer.PutDoubleVector(model.shared);
  writer.PutU32(Crc32c(writer.buffer().data(), writer.size()));
  return writer.Release();
}

Result<SavedModel> ParseModel(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 3 * sizeof(uint32_t)) {
    return Status::SerializationError("model bytes shorter than the header");
  }
  uint32_t magic;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  if (magic != kMagic) {
    return Status::SerializationError("not a ColumnSGD model");
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  const uint32_t computed =
      Crc32c(bytes.data(), bytes.size() - sizeof(stored_crc));
  if (stored_crc != computed) {
    return Status::SerializationError(
        "model checksum mismatch (torn write or bit rot)");
  }
  BufferReader reader(bytes.data(), bytes.size() - sizeof(stored_crc));
  COLSGD_RETURN_NOT_OK(reader.GetU32().status());  // magic, checked above
  COLSGD_ASSIGN_OR_RETURN(uint32_t version, reader.GetU32());
  if (version != kVersion) {
    return Status::SerializationError("unsupported model file version " +
                                      std::to_string(version));
  }
  SavedModel model;
  COLSGD_ASSIGN_OR_RETURN(model.model_name, reader.GetString());
  COLSGD_ASSIGN_OR_RETURN(model.num_features, reader.GetU64());
  COLSGD_ASSIGN_OR_RETURN(model.weights, reader.GetDoubleVector());
  COLSGD_ASSIGN_OR_RETURN(model.shared, reader.GetDoubleVector());

  Result<std::unique_ptr<ModelSpec>> spec = CreateModel(model.model_name);
  if (!spec.ok()) {
    return Status::SerializationError("model image: " +
                                      spec.status().message());
  }
  const uint64_t expected_weights =
      model.num_features * (*spec)->weights_per_feature();
  if (model.weights.size() != expected_weights) {
    return Status::SerializationError(
        "model weight count " + std::to_string(model.weights.size()) +
        " does not match " + model.model_name + " over " +
        std::to_string(model.num_features) + " features");
  }
  if (model.shared.size() != (*spec)->num_shared_params()) {
    return Status::SerializationError("model shared-parameter count "
                                      "mismatch");
  }
  return model;
}

Status WriteModelFile(const SavedModel& model, const std::string& path) {
  return AtomicWriteFile(path, SerializeModel(model));
}

Result<SavedModel> ReadModelFile(const std::string& path) {
  COLSGD_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  return ParseModel(bytes);
}

}  // namespace colsgd
