#pragma once

// Workload definitions, the inputs generated from the seed, and the
// in-process references every output is checked against.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "coupling/database.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot.hpp"
#include "serve/workload.hpp"

namespace kbench {

/// apps x classes x procs x chain lengths; invalid rank counts are skipped
/// (BT and SP need a square P, LU a power of two).
struct Sweep {
  std::vector<std::string> apps;
  std::vector<std::string> classes;
  std::vector<int> procs;
  std::vector<std::size_t> chains;

  [[nodiscard]] bool operator==(const Sweep&) const = default;
};

/// Which queries a workload's traffic carries.
enum class Mix {
  kExact,   ///< measured cells with an exact alpha group in both databases
  kMixed,   ///< only nearest-donor and model-fallback queries
  kReload,  ///< exact queries plus queries whose answer differs A vs B
};

struct WorkloadDef {
  std::string name;
  Sweep db_a;      ///< the served database, built by campaign in set-up
  Sweep db_extra;  ///< database B = A plus these records
  Sweep campaign;  ///< the campaign repeated in the campaign phase
  Mix mix = Mix::kExact;
  /// Shares of --seconds given to each phase.
  double f_campaign = 0.1;
  double f_closed = 0.35;
  double f_open = 0.3;
  double f_reload = 0.25;
  /// serve_reload: p50/p99 come from the open loop that runs beside the
  /// reloads; elsewhere from a quiet open loop before them.
  bool latency_under_reload = false;
  int reload_gap_ms = 20;  ///< pause between two reloads
};

/// The workload named `name`, or nullptr.
[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

/// A campaign spec over the modeled NPB suite on the ibm-sp machine, its
/// studies in a seeded order.
[[nodiscard]] kcoup::campaign::CampaignSpec make_spec(const Sweep& sweep,
                                                      std::uint64_t seed);

/// One request payload the load generator can send.
struct Payload {
  std::string json;
  std::vector<kcoup::serve::QueryKey> queries;
  bool batch = false;
};

/// The seeded request pool of a workload: every query key once as a
/// predict frame, plus batch frames of 8 keys drawn from the same keys.
[[nodiscard]] std::vector<Payload> make_pool(const WorkloadDef& def,
                                             std::uint64_t seed);

/// Share of frames that are 8-query batch frames, in every workload.
inline constexpr double kBatchShare = 0.1;

/// Infinite seeded stream of payload indices: the pool in a fresh random
/// order on every pass, predict and batch frames mixed by kBatchShare.
class PayloadStream {
 public:
  PayloadStream(const std::vector<Payload>& pool, std::uint64_t seed);
  std::size_t next();

 private:
  std::vector<std::size_t> singles_;
  std::vector<std::size_t> batches_;
  std::size_t si_ = 0;
  std::size_t bi_ = 0;
  std::mt19937_64 rng_;
};

/// The two databases a run serves.  A snapshot with version v holds
/// database A when v is odd and B when v is even: the source loads A
/// first and every reload alternates (see reload_identity()).
enum Identity : int { kA = 0, kB = 1 };
[[nodiscard]] inline Identity identity_of_version(std::uint64_t v) {
  return (v % 2 == 1) ? kA : kB;
}

/// Expected response bytes for every payload under each database, from an
/// in-process QueryEngine over snapshots built from the same databases.
/// The snapshot version is the only part of a response that depends on
/// which reload served it, so the reference stores each response split
/// around its `"snapshot":N` values and checks a reply piece by piece.
class Reference {
 public:
  Reference(const std::vector<Payload>& pool,
            const kcoup::coupling::CouplingDatabase& db_a,
            const kcoup::coupling::CouplingDatabase& db_b);

  /// True when `response` is exactly the reference answer for payload
  /// `index` under the database its snapshot version names; `*version`
  /// receives that version.
  [[nodiscard]] bool check(std::size_t index, std::string_view response,
                           std::uint64_t* version) const;

  /// |coupling error| (finite ones only) of payload `index` under `id`.
  [[nodiscard]] const std::vector<double>& errors(Identity id,
                                                  std::size_t index) const {
    return expected_[id][index].errors;
  }

 private:
  struct Expected {
    std::vector<std::string> pieces;
    std::vector<double> errors;
  };
  std::vector<Expected> expected_[2];
};

/// Read a whole file; throws when it cannot be read.
[[nodiscard]] std::string read_file(const std::string& path);
/// Write `bytes` to `path` through a temp file and rename(2).
void publish_file(const std::string& path, const std::string& bytes);

}  // namespace kbench
