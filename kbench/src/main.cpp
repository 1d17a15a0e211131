// kbench — the kcoup benchmark.  One command runs one seeded workload
// against the real serve::Server, serve::SnapshotSource and
// campaign::run_campaign, checks every output against an in-process
// reference, and prints its metrics as one JSON object on the last line of
// standard output:
//
//   kbench --workload serve_hot --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a separate traced run (see kbench/README.md).  The exit code is 0 only
// when every output matched its reference.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "campaign/executor.hpp"
#include "machine/config.hpp"
#include "serve/pack.hpp"

namespace kbench {

namespace cp = kcoup::campaign;
namespace sv = kcoup::serve;
namespace fs = std::filesystem;

namespace {

constexpr int kSetups = 7;
constexpr int kRounds = 10;
constexpr std::size_t kMinReloadCycles = 1;  // per format, per reload phase
/// p99_ms is taken over consecutive runs of this many timed requests.
constexpr std::size_t kChunkRequests = 2000;

std::string fmt_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string fmt_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += fmt_number(v[i]);
  }
  return out + "]";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

Bench::Bench(const WorkloadDef& def, const Args& args)
    : def_(def), args_(args), spans_(args.trace ? 400000 : 0) {
  workers_ = std::max(1u, std::thread::hardware_concurrency());
  run_dir_ = args_.out_dir + "/run-" + def_.name + "-" +
             std::to_string(args_.seed) + "-" + std::to_string(::getpid());
  fs::create_directories(run_dir_);
}

Bench::~Bench() {
  loadgen_.reset();
  stack_.reset();
  std::error_code ignored;
  fs::remove_all(run_dir_, ignored);
}

std::string Bench::path(const std::string& name) const {
  return run_dir_ + "/" + name;
}

void Bench::prepare() {
  pool_ = make_pool(def_, args_.seed);
  campaign_spec_ = make_spec(def_.campaign, args_.seed);
  {
    kcoup::coupling::CouplingDatabase db;
    const cp::CampaignResult serial = cp::run_campaign(campaign_spec_, 1, &db);
    if (!serial.complete()) throw std::runtime_error("reference campaign failed");
    db.save_csv_file(path("campaign_ref.csv"));
    campaign_reference_ = read_file(path("campaign_ref.csv"));
  }
  campaign_spec_.journal_path = path("campaign.journal");

  for (int i = 0; i < kSetups; ++i) set_up();

  kcoup::coupling::CouplingDatabase dbs[2];
  dbs[kA].load_csv_file(path("a.csv"));
  dbs[kB].load_csv_file(path("b.csv"));
  reference_ = std::make_unique<Reference>(pool_, dbs[kA], dbs[kB]);
  if (def_.campaign == def_.db_a && db_bytes_[kA][0] != campaign_reference_) {
    std::fprintf(stderr, "kbench: set-up database differs from the serial campaign\n");
    ++failures_.campaign;
  }

  loadgen_ = std::make_unique<LoadGen>(pool_, *reference_, args_.seed,
                                       args_.trace ? &spans_ : nullptr, &watch_);
  std::string error;
  if (!loadgen_->connect(stack_->server->port(), kConnections, &error)) {
    throw std::runtime_error("load generator: " + error);
  }
  record(loadgen_->each_once());
}

void Bench::set_up() {
  if (loadgen_) loadgen_->disconnect();
  stack_.reset();  // stops the previous server before timing starts
  const std::int64_t t0 = now_ns();

  kcoup::coupling::CouplingDatabase db_a;
  kcoup::coupling::CouplingDatabase db_b;
  const cp::CampaignResult ra =
      cp::run_campaign(make_spec(def_.db_a, args_.seed), workers_, &db_a);
  db_b = db_a;
  const cp::CampaignResult rb =
      cp::run_campaign(make_spec(def_.db_extra, args_.seed + 1), workers_, &db_b);
  attempted_ += ra.metrics.tasks_executed + rb.metrics.tasks_executed;
  failures_.campaign += ra.failures.size() + rb.failures.size();
  db_a.save_csv_file(path("a.csv"));
  db_b.save_csv_file(path("b.csv"));

  auto stack = std::make_unique<Stack>();
  Stack& s = *stack;
  s.workload = std::make_unique<sv::NpbWorkload>(kcoup::machine::ibm_sp_p2sc());
  s.engine = std::make_unique<sv::QueryEngine>(s.workload.get());
  sv::QueryEngine* engine = s.engine.get();
  const sv::CellFn cell_fn = [engine](const std::string& a,
                                      const std::string& c, int p) {
    return engine->cell(a, c, p);
  };
  for (const char* name : {"a", "b"}) {
    kcoup::coupling::CouplingDatabase db;
    db.load_csv_file(path(std::string(name) + ".csv"));
    const sv::PredictorSnapshot snapshot(std::move(db), 0, cell_fn, {});
    (void)sv::pack_snapshot_file(snapshot, path(std::string(name) + ".kcs"));
  }
  publish_file(path("live.db"), read_file(path("a.csv")));
  s.source = std::make_unique<sv::SnapshotSource>(path("live.db"), cell_fn);
  s.source->load();
  sv::ServerConfig config;
  config.workers = kShards;
  config.max_inflight = 2 * kConnections;
  s.server = std::make_unique<sv::Server>(s.source.get(), engine, config);
  {
    const ScopedPin pin(kServerCpus, 2);  // the server's threads inherit it
    s.server->start();
  }
  const auto snapshot = s.source->current();
  for (const Payload& p : pool_) {
    for (const sv::QueryKey& q : p.queries) (void)engine->predict(*snapshot, q);
  }
  setup_s_.push_back(seconds_between(t0, now_ns()));
  stack_ = std::move(stack);

  const char* files[2][2] = {{"a.csv", "a.kcs"}, {"b.csv", "b.kcs"}};
  for (int id = 0; id < 2; ++id) {
    for (int f = 0; f < 2; ++f) db_bytes_[id][f] = read_file(path(files[id][f]));
  }
}

double Bench::campaign_once() {
  fs::remove(campaign_spec_.journal_path);
  kcoup::coupling::CouplingDatabase db;
  const std::int64_t t0 = now_ns();
  const cp::CampaignResult r = cp::run_campaign(campaign_spec_, workers_, &db);
  db.save_csv_file(path("campaign.csv"));
  const double wall = seconds_between(t0, now_ns());
  attempted_ += r.metrics.tasks_executed;
  failures_.campaign += r.failures.size();
  if (read_file(path("campaign.csv")) != campaign_reference_) {
    std::fprintf(stderr, "kbench: campaign database differs from the serial reference\n");
    failures_.campaign += std::max<std::size_t>(1, r.metrics.tasks_executed);
  }
  return wall;
}

void Bench::reload_loop(const std::atomic<bool>* stop, int gap_ms) {
  const ScopedPin pin(kReloadCpu, 1);
  const std::string live = path("live.db");
  const std::int64_t t_start = now_ns();
  const std::size_t first[2] = {reload_ms_[0].size(), reload_ms_[1].size()};
  // Cycle c publishes B then A in one format, CSV on even cycles and .kcs
  // on odd ones, so versions keep alternating B, A, B, ... (see
  // identity_of_version) and both formats carry both databases.  A cycle's
  // sample is the mean of its two polls: B holds more records than A, and
  // a median over single polls would sit between the two modes.
  for (std::uint64_t c = 0;; ++c) {
    const bool enough = reload_ms_[0].size() >= first[0] + kMinReloadCycles &&
                        reload_ms_[1].size() >= first[1] + kMinReloadCycles;
    if (stop->load() && enough) break;
    if (seconds_between(t_start, now_ns()) > 90.0) break;
    const int format = static_cast<int>(c % 2);
    double cycle_ms = 0.0;
    for (const Identity id : {kB, kA}) {
      publish_file(live, db_bytes_[id][format]);
      const std::int64_t t0 = now_ns();
      const bool published = stack_->source->poll();
      cycle_ms += static_cast<double>(now_ns() - t0) * 1e-6 / 2.0;
      ++reloads_;
      if (!published) ++reload_failures_;
      if (gap_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(gap_ms));
    }
    reload_ms_[format].push_back(cycle_ms);
  }
}

void Bench::record(const PhaseResult& r) {
  attempted_ += r.sent;
  failures_.add(r.failures);
  for (int id = 0; id < 2; ++id) {
    served_[id].resize(pool_.size(), 0);
    for (std::size_t i = 0; i < r.served[id].size(); ++i) {
      served_[id][i] += r.served[id][i];
    }
  }
}

double Bench::pred_err_pct() const {
  // Each distinct (database, query key) once — the predict frames hold every
  // key exactly once — so the figure does not depend on how often the
  // seeded stream happened to repeat a key.
  std::vector<double> errors;
  for (int id = 0; id < 2; ++id) {
    for (std::size_t i = 0; i < served_[id].size(); ++i) {
      if (served_[id][i] == 0 || pool_[i].batch) continue;
      for (double e : reference_->errors(static_cast<Identity>(id), i)) {
        errors.push_back(e);
      }
    }
  }
  return 100.0 * median(errors);
}

std::vector<Metric> Bench::timed() {
  // The phases run in kRounds interleaved rounds, so a slow stretch of the
  // shared host lands in a slice of every metric rather than all of one.
  // sat_rps is the rate over every closed-loop window, p50_ms the median of
  // every timed request, p99_ms the median over chunks of kChunkRequests
  // consecutive timed requests of each chunk's p99 (a host event that
  // spoils a few chunks does not set it; a tail the program shows
  // throughout does), reload_csv_ms and reload_kcs_ms trimmed means (reload
  // times are bimodal with the host's speed, and a median would jump
  // between the modes from run to run), the rest medians and p90s of the
  // samples pooled from every round.
  const double slice = args_.seconds / kRounds;
  std::vector<double> lag_ms;
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t campaign_end =
        now_ns() + static_cast<std::int64_t>(def_.f_campaign * slice * 1e9);
    do {
      campaign_s_.push_back(campaign_once());
    } while (now_ns() < campaign_end);

    const PhaseResult closed =
        loadgen_->closed(def_.f_closed * slice, kDepth, kClosedWindowS);
    record(closed);
    window_rps_.insert(window_rps_.end(), closed.window_rps.begin(),
                       closed.window_rps.end());
    auto keep_latency = [&](const PhaseResult& r) {
      latency_ms_.insert(latency_ms_.end(), r.latency_ms.begin(), r.latency_ms.end());
      lag_ms.insert(lag_ms.end(), r.lag_ms.begin(), r.lag_ms.end());
      stalls_ += r.stalls;
      stall_ms_ += r.stall_ms;
      stalled_ms_.insert(stalled_ms_.end(), r.stalled_ms.begin(), r.stalled_ms.end());
    };
    if (def_.f_open > 0.0) {
      const PhaseResult quiet = loadgen_->open(def_.f_open * slice, kOpenRps);
      record(quiet);
      keep_latency(quiet);
    }
    std::atomic<bool> stop{false};
    std::thread reloader([this, &stop] { reload_loop(&stop, def_.reload_gap_ms); });
    const PhaseResult reloading =
        loadgen_->open(def_.f_reload * slice, kOpenRps);
    stop = true;
    reloader.join();
    record(reloading);
    if (def_.latency_under_reload) keep_latency(reloading);
  }
  attempted_ += reloads_;
  failures_.reload += reload_failures_;
  lag_p99_ms_ = quantile(lag_ms, 0.99);
  // A host that stalled through nearly the whole open loop leaves too few
  // requests for p99_ms: the left-out ones are put back, and the metadata
  // says so.
  if (latency_ms_.size() < kChunkRequests) {
    latency_ms_.insert(latency_ms_.end(), stalled_ms_.begin(), stalled_ms_.end());
    stall_filter_undone_ = true;
  }
  // Each full chunk of consecutive timed requests, in the order they were
  // answered, gives one p99 with twenty beyond it; the rest gives none.
  for (std::size_t at = 0; at + kChunkRequests <= latency_ms_.size(); at += kChunkRequests) {
    const auto first = latency_ms_.begin() + static_cast<std::ptrdiff_t>(at);
    chunk_p99_ms_.push_back(quantile(std::vector<double>(first, first + kChunkRequests), 0.99));
  }

  const std::uint64_t served_requests = stack_->server->metrics().requests;
  if (served_requests != loadgen_->total_sent()) {
    std::fprintf(stderr, "kbench: server counted %llu requests, %llu were sent\n",
                 static_cast<unsigned long long>(served_requests),
                 static_cast<unsigned long long>(loadgen_->total_sent()));
    ++failures_.failed;
  }

  const double fail = attempted_ > 0 ? static_cast<double>(failures_.total()) /
                                           static_cast<double>(attempted_)
                                     : 1.0;
  return {
      {"setup_s", median(setup_s_), "s"},
      {"sat_rps", mean(window_rps_), "req/s"},
      {"p50_ms", quantile(latency_ms_, 0.5), "ms"},
      {"p99_ms", chunk_p99_ms_.empty() ? quantile(latency_ms_, 0.99) : median(chunk_p99_ms_),
       "ms"},
      {"ok_frac", 1.0 - fail, "ratio"},
      {"reload_csv_ms", trimmed_mean(reload_ms_[0]), "ms"},
      {"reload_csv_p90_ms", quantile(reload_ms_[0], 0.9), "ms"},
      {"reload_kcs_ms", trimmed_mean(reload_ms_[1]), "ms"},
      {"reload_kcs_p90_ms", quantile(reload_ms_[1], 0.9), "ms"},
      {"campaign_s", median(campaign_s_), "s"},
      {"campaign_p90_s", quantile(campaign_s_, 0.9), "s"},
      {"pred_err_pct", pred_err_pct(), "%"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::string Bench::meta_json() const {
  std::string out = "{\"meta\":{";
  out += "\"workload\":\"" + json_escape(def_.name) + "\"";
  out += ",\"seed\":" + std::to_string(args_.seed);
  out += ",\"seconds\":" + fmt_number(args_.seconds);
  out += ",\"trace\":" + std::string(args_.trace ? "1" : "0");
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"host_watch_cpus\":" + std::to_string(watch_.cpus());
  out += ",\"revision\":\"" + json_escape(args_.revision) + "\"";
  out += ",\"source_digest\":\"" + json_escape(args_.source_digest) + "\"";
  out += ",\"samples\":{\"setups\":" + std::to_string(setup_s_.size());
  out += ",\"campaigns\":" + std::to_string(campaign_s_.size());
  out += ",\"closed_windows\":" + std::to_string(window_rps_.size());
  out += ",\"latency_requests\":" + std::to_string(latency_ms_.size());
  out += ",\"stalled_requests\":" + std::to_string(stalled_ms_.size());
  out += ",\"stall_filter_undone\":" + std::string(stall_filter_undone_ ? "true" : "false");
  out += ",\"reload_csv_cycles\":" + std::to_string(reload_ms_[0].size());
  out += ",\"reload_kcs_cycles\":" + std::to_string(reload_ms_[1].size()) + "}";
  out += ",\"setup_s\":" + fmt_list(setup_s_);
  out += ",\"sat_window_rps\":" + fmt_list(window_rps_);
  out += ",\"p99_chunk_ms\":" + fmt_list(chunk_p99_ms_);
  out += ",\"host_stalls\":" + std::to_string(stalls_);
  out += ",\"host_stall_ms\":" + fmt_number(stall_ms_);
  out += ",\"campaign_s\":" + fmt_list(campaign_s_);
  out += ",\"reload_csv_cycle_ms\":" + fmt_list(reload_ms_[0]);
  out += ",\"reload_kcs_cycle_ms\":" + fmt_list(reload_ms_[1]);
  out += ",\"loadgen.lag_p99_ms\":" + fmt_number(lag_p99_ms_);
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failures\":{\"failed\":" + std::to_string(failures_.failed);
  out += ",\"refused\":" + std::to_string(failures_.refused);
  out += ",\"unanswered\":" + std::to_string(failures_.unanswered);
  out += ",\"mismatched\":" + std::to_string(failures_.mismatched);
  out += ",\"campaign\":" + std::to_string(failures_.campaign);
  out += ",\"reload\":" + std::to_string(failures_.reload) + "}}}";
  return out;
}

}  // namespace kbench

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: kbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "              [--out-dir DIR] [--revision REV] [--source-digest D]\n"
               "workloads:");
  for (const std::string& n : kbench::workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  kbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--out-dir") args.out_dir = value;
    else if (key == "--revision") args.revision = value;
    else if (key == "--source-digest") args.source_digest = value;
    else {
      usage();
      return 2;
    }
  }
  const kbench::WorkloadDef* def = kbench::find_workload(args.workload);
  if (def == nullptr || argc % 2 != 1 || !(args.seconds > 0.0)) {
    usage();
    return 2;
  }

  std::vector<kbench::Metric> metrics;
  std::string meta;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  try {
    kbench::Bench bench(*def, args);
    bench.prepare();
    metrics = args.trace ? bench.traced() : bench.timed();
    meta = bench.meta_json();
    attempted = bench.attempted();
    failed = bench.failures().total();
    for (const kbench::Metric& m : metrics) {
      if (std::isfinite(m.value)) continue;
      std::fprintf(stderr, "kbench: %s has no samples\n", m.name.c_str());
      ++failed;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kbench: %s\n", e.what());
    return 2;
  }

  std::string result = "{\"correct\":";
  result += failed == 0 ? "true" : "false";
  result += ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(1, attempted));
  result += ",\"failed\":" + std::to_string(failed);
  result += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) result += ',';
    result += "\"" + metrics[i].name + "\":{\"value\":" +
              kbench::fmt_number(metrics[i].value) + ",\"unit\":\"" +
              metrics[i].unit + "\"}";
  }
  result += "}}";
  std::printf("%s\n%s\n", meta.c_str(), result.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
