#pragma once

// One benchmark run: set-up, the references, and the timed (end-to-end) or
// traced (per-layer) phases of a workload.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "common.hpp"
#include "coupling/database.hpp"
#include "hostwatch.hpp"
#include "loadgen.hpp"
#include "scenario.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/workload.hpp"
#include "spans.hpp"

namespace kbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string revision = "unknown";
  std::string source_digest = "unknown";
};

/// A metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one set-up builds.  Held by unique_ptr and never assigned:
/// destruction runs in reverse member order, so the server stops before
/// the source and engine it reads.
struct Stack {
  std::unique_ptr<kcoup::serve::NpbWorkload> workload;
  std::unique_ptr<kcoup::serve::QueryEngine> engine;
  std::unique_ptr<kcoup::serve::SnapshotSource> source;
  std::unique_ptr<kcoup::serve::Server> server;
};

/// Load-generator settings shared by every workload.
inline constexpr std::size_t kConnections = 4;
inline constexpr std::size_t kDepth = 16;  ///< closed-loop frames in flight per connection
inline constexpr std::size_t kShards = 2;
inline constexpr double kClosedWindowS = 0.25;
/// Open-loop arrival rate, well under a fifth of every workload's sat_rps:
/// queueing delay grows as rho/(1-rho), so at a higher load a slower host
/// would raise p99_ms by more than it slows a request.
inline constexpr double kOpenRps = 5000;

class Bench {
 public:
  Bench(const WorkloadDef& def, const Args& args);
  /// Stops the server and removes the run's scratch files.
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Set up kSetups times (timed; the last stack is kept), build the
  /// references and send every payload once through the server.
  void prepare();

  /// The end-to-end metrics (the untraced run).
  std::vector<Metric> timed();
  /// The per-layer metrics (the traced run).
  std::vector<Metric> traced();

  /// Run metadata printed beside the result.
  [[nodiscard]] std::string meta_json() const;

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] const Failures& failures() const { return failures_; }

 private:
  void set_up();
  /// A fresh from-empty journaled campaign of def.campaign at nproc
  /// workers, saved and checked against the serial reference.
  double campaign_once();
  /// Reload loop for the reload phase; runs until `stop` is set and at
  /// least kMinReloadCycles of each format were timed.
  void reload_loop(const std::atomic<bool>* stop, int gap_ms);
  void record(const PhaseResult& r);
  [[nodiscard]] double pred_err_pct() const;
  [[nodiscard]] std::string path(const std::string& name) const;

  HostWatch watch_;  ///< first member: spins for the whole run
  const WorkloadDef& def_;
  Args args_;
  std::size_t workers_ = 1;
  std::string run_dir_;

  std::vector<Payload> pool_;
  kcoup::campaign::CampaignSpec campaign_spec_;
  std::string campaign_reference_;  ///< serial campaign's saved bytes
  std::string db_bytes_[2][2];      ///< [identity][0 = csv, 1 = kcs]
  std::unique_ptr<Reference> reference_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<LoadGen> loadgen_;
  SpanRecorder spans_;

  std::vector<double> setup_s_;
  std::vector<double> campaign_s_;
  std::vector<double> reload_ms_[2];  ///< per cycle; [0 = csv, 1 = kcs]
  std::uint64_t reloads_ = 0;         ///< polls; written by the reload thread
  std::vector<std::uint64_t> served_[2];
  std::uint64_t attempted_ = 0;
  Failures failures_;
  std::uint64_t reload_failures_ = 0;  ///< written by the reload thread
  // Sample counts and generator lag for the metadata line.
  std::vector<double> window_rps_;
  std::vector<double> latency_ms_;    ///< open loop, stall-filtered
  std::vector<double> chunk_p99_ms_;  ///< p99 of each chunk of timed requests
  std::uint64_t stalls_ = 0;          ///< host stalls (see LoadGen)
  double stall_ms_ = 0.0;
  std::vector<double> stalled_ms_;  ///< latencies left out for a stall
  bool stall_filter_undone_ = false;  ///< stalled_ms_ was put back
  double lag_p99_ms_ = 0.0;
};

}  // namespace kbench
