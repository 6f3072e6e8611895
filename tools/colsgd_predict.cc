// colsgd_predict: evaluate a saved model on a libsvm dataset.
//
//   colsgd_train --data train.libsvm --save_model model.bin ...
//   colsgd_predict --model_file model.bin --data test.libsvm
//
// Scoring goes through the column-sharded inference kernel shared with the
// online serving plane (serve/inference.h) — by default single-shard, which
// reproduces the row path bit-for-bit for GLMs; --shards N scores against
// an N-way column split, the exact math the shard servers run online
// (tests/serve_test.cc golden-compares the two paths). Accepts any model
// that can score from aggregated statistics, MLR included (for which the
// score is the argmax class id and AUC is not reported).
//
// Prints accuracy, AUC and average loss for binary models; writes per-row
// scores with --scores_csv, each in a round-trip form (%.17g).
#include <cstdio>
#include <limits>

#include "common/csv.h"
#include "common/flags.h"
#include "engine/metrics.h"
#include "engine/model_io.h"
#include "serve/inference.h"
#include "storage/libsvm.h"

namespace colsgd {
namespace {

int Run(int argc, char** argv) {
  FlagParser flags;
  std::string model_file;
  std::string data_path;
  std::string scores_csv;
  std::string partitioner = "round_robin";
  int64_t shards = 1;
  bool zero_based = false;
  flags.AddString("model_file", &model_file, "model from colsgd_train");
  flags.AddString("data", &data_path, "libsvm data to score");
  flags.AddBool("zero_based", &zero_based, "libsvm indices are 0-based");
  flags.AddInt64("shards", &shards, "column shards to score against");
  flags.AddString("partitioner", &partitioner, "column partitioner");
  flags.AddString("scores_csv", &scores_csv, "write per-row scores here");
  flags.ParseOrExit(argc, argv, [&]() -> Status {
    if (model_file.empty() || data_path.empty()) {
      return Status::InvalidArgument("--model_file and --data are required");
    }
    if (shards < 1 || shards > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("--shards must be a positive int");
    }
    return CreatePartitioner(partitioner, 1, 1).status();
  });

  Result<SavedModel> saved = ReadModelFile(model_file);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.status().ToString().c_str());
    return 1;
  }
  Result<Dataset> data =
      ReadLibsvmFile(data_path, zero_based, saved->num_features);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  Result<DatasetScores> scored =
      ScoreDatasetSharded(*saved, partitioner, static_cast<int>(shards),
                          *data, data->num_rows());
  if (!scored.ok()) {
    std::fprintf(stderr, "%s\n", scored.status().ToString().c_str());
    return 1;
  }
  const DatasetScores& result = *scored;

  const bool multiclass = saved->model_name.rfind("mlr", 0) == 0;
  size_t correct = 0;
  for (size_t i = 0; i < result.rows; ++i) {
    if (multiclass) {
      // MLR scores are argmax class ids; labels are class ids.
      correct += result.scores[i] ==
                 static_cast<double>(data->labels[i]);
    } else {
      const double margin =
          result.scores[i] * static_cast<double>(data->labels[i]);
      correct += margin > 0.0;
    }
  }
  const double accuracy =
      result.rows > 0 ? static_cast<double>(correct) /
                            static_cast<double>(result.rows)
                      : 0.0;
  if (multiclass) {
    std::printf("%s over %zu rows (%lld shard(s)): accuracy %.4f, "
                "avg loss %.4f\n",
                saved->model_name.c_str(), result.rows,
                static_cast<long long>(shards), accuracy, result.avg_loss);
  } else {
    const double auc = AreaUnderRoc(result.scores, data->labels);
    std::printf("%s over %zu rows (%lld shard(s)): accuracy %.4f, "
                "AUC %.4f, avg loss %.4f\n",
                saved->model_name.c_str(), result.rows,
                static_cast<long long>(shards), accuracy, auc,
                result.avg_loss);
  }

  if (!scores_csv.empty()) {
    CsvWriter csv;
    Status csv_st = csv.Open(scores_csv, {"row", "label", "score"});
    if (!csv_st.ok()) {
      std::fprintf(stderr, "%s\n", csv_st.ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < result.rows; ++i) {
      // Scores print in a round-trip form, so a score file pins every bit.
      csv.WriteRow({FormatDouble(static_cast<double>(i)),
                    FormatDouble(static_cast<double>(data->labels[i])),
                    FormatDoubleExact(result.scores[i])});
    }
    std::printf("scores written to %s\n", scores_csv.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) { return colsgd::Run(argc, argv); }
