#ifndef QBE_HARNESS_EXPERIMENT_H_
#define QBE_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/candidate_gen.h"
#include "core/verifier.h"
#include "datagen/et_gen.h"
#include "exec/executor.h"
#include "schema/schema_graph.h"
#include "storage/database.h"

namespace qbe {

/// The two experimental datasets of §6.1 plus the Figure 1 toy database.
enum class DatasetKind { kRetailer, kImdb, kCust };

/// A dataset with its derived structures, ready for experiments. Members
/// are heap-allocated so the bundle is movable while Executor/EtSource keep
/// stable references.
struct Bundle {
  std::unique_ptr<Database> db;
  std::unique_ptr<SchemaGraph> graph;
  std::unique_ptr<Executor> exec;
  std::unique_ptr<EtSource> ets;
};

/// Builds the dataset (scaled per DESIGN.md's substitution note) and its
/// ET-generation matrices.
Bundle MakeBundle(DatasetKind kind, double scale, uint64_t seed);

/// Verification algorithms compared in §6. RunPoint asserts they all
/// return the same valid set, so every bench doubles as a differential
/// check.
enum class AlgoKind {
  kVerifyAll,
  kSimplePrune,
  kFilter,
  kFilterExact,
  kWeave,
  kWeaveTuple,
};

std::string AlgoName(AlgoKind kind);

/// Per-algorithm aggregate over a batch of ETs, carrying the §6.1 metrics.
struct AlgoAggregate {
  std::string name;
  double avg_verifications = 0;
  double avg_cost = 0;
  double avg_millis = 0;
  double max_verifications = 0;
  double max_millis = 0;
  double avg_peak_bytes = 0;
  /// Subtree-memo traffic over all ETs, so memo regressions are visible
  /// in bench output.
  double memo_hits = 0;
  double memo_lookups = 0;
  std::vector<double> per_case_verifications;
  std::vector<double> per_case_millis;
  std::vector<double> per_case_peak_bytes;

  double MemoHitRate() const {
    return memo_lookups == 0 ? 0.0 : memo_hits / memo_lookups;
  }
};

/// One sweep point: candidate/valid statistics plus per-algorithm costs.
struct ExperimentPoint {
  double avg_candidates = 0;
  double avg_valid = 0;
  std::vector<AlgoAggregate> algos;
};

/// Runs every algorithm over every ET, checking the paper's core invariant
/// — all algorithms return the same valid set — and aggregating metrics.
/// `max_join_length` is the candidate-generation bound l.
ExperimentPoint RunPoint(const Bundle& bundle,
                         const std::vector<ExampleTable>& ets,
                         const std::vector<AlgoKind>& algos,
                         int max_join_length, uint64_t seed);

/// Common CLI arguments for the bench binaries:
///   --ets=N       ETs per sweep point (default per bench), N > 0
///   --scale=X     dataset scale factor, X > 0
///   --seed=N      master seed
struct BenchArgs {
  int ets_per_point;
  double scale;
  uint64_t seed = 7;
};

/// Parses the bench command line. An unknown flag or a malformed or
/// out-of-range value prints the reason and a usage line to stderr and
/// exits with status 2.
BenchArgs ParseBenchArgs(int argc, char** argv, int default_ets,
                         double default_scale);

/// Prints a parameter sweep in the paper's two-panel style: one table for
/// the number of verifications (and candidates/valid counts) and one for
/// execution time.
void PrintSweep(const std::string& title, const std::string& param_name,
                const std::vector<std::string>& param_values,
                const std::vector<ExperimentPoint>& points);

}  // namespace qbe

#endif  // QBE_HARNESS_EXPERIMENT_H_
