// The traced run: per-layer metrics from spans the benchmark records around
// calls into each module's public functions.  The program's own
// obs::Tracer stays off, exactly as in the timed run.
//
// Layers and their spans:
//   campaign   plan_campaign, execute_tasks (+ TaskJournal::append),
//              assemble_campaign, record_campaign; coupling save_csv_file
//   measure    bare MeasurementHarness calls on a reset application
//   framing    encode_frame / decode_frame (load generator and replay)
//   protocol   parse_request, prediction_json, batch_json
//   snapshot   SnapshotSource::current, CSV load, PredictorSnapshot builds,
//              load_packed_snapshot, compute_drift
//   engine     QueryEngine::predict per fallback path, cold cell()
//   client     split_json_array, parse_prediction
//   model      fit_piecewise, detect_coupling_transitions
//   coupling   KernelScalingModel::fit_or_constant, save_csv_file
//   pack       pack_snapshot
// A replayed request is one "request" span whose children are the calls
// the server and client make for it, so each layer's self time per
// request is its share of one served request.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "campaign/executor.hpp"
#include "campaign/journal.hpp"
#include "campaign/planner.hpp"
#include "coupling/measurement.hpp"
#include "coupling/scaling_model.hpp"
#include "machine/config.hpp"
#include "model/piecewise.hpp"
#include "model/transitions.hpp"
#include "npb/common/problem.hpp"
#include "obs/metrics.hpp"
#include "serve/drift.hpp"
#include "serve/framing.hpp"
#include "serve/pack.hpp"
#include "serve/protocol.hpp"

namespace kbench {

namespace cp = kcoup::campaign;
namespace sv = kcoup::serve;
namespace fs = std::filesystem;
using kcoup::coupling::CouplingDatabase;

namespace {

constexpr std::size_t kReplayRequests = 3000;
constexpr std::size_t kJournalAppends = 400;
constexpr std::size_t kMeasureTasks = 300;
constexpr int kEngineRounds = 5;
/// Spans written to the trace file from each load-generator phase; every
/// other span is written in full.
constexpr std::size_t kTraceFileLoadgenSpans = 10000;

/// Probe keys for one engine path over a workload's database: exact keys
/// are cells of database A; donor keys are measurable P found in neither
/// database; model keys are P the application cannot run at.
std::vector<sv::QueryKey> probe_keys(const WorkloadDef& def,
                                     const std::string& path) {
  std::vector<sv::QueryKey> out;
  for (const std::string& app : def.db_a.apps) {
    const bool lu = app == "LU";
    std::vector<int> procs;
    if (path == "exact") procs = def.db_a.procs;
    if (path == "donor") procs = lu ? std::vector<int>{128} : std::vector<int>{49, 81};
    if (path == "model") procs = lu ? std::vector<int>{3, 12} : std::vector<int>{2, 12};
    const auto bench = app == "BT"   ? kcoup::npb::Benchmark::kBT
                       : app == "SP" ? kcoup::npb::Benchmark::kSP
                                     : kcoup::npb::Benchmark::kLU;
    for (const std::string& cls : def.db_a.classes) {
      for (int p : procs) {
        if (kcoup::npb::valid_rank_count(bench, p) != (path != "model")) continue;
        for (std::size_t q : {std::size_t{2}, std::size_t{3}}) {
          out.push_back({app, cls, p, q});
        }
      }
    }
  }
  return out;
}

const char* engine_span(const sv::Prediction& p) {
  if (p.source == "exact") return "engine.exact";
  if (p.source == "nearest-donor") return "engine.donor";
  if (p.source == "model") return "engine.model";
  return "engine.error";
}

std::vector<double> durations(const SpanRecorder& rec, const std::string& name,
                              std::size_t from, std::size_t to) {
  std::vector<double> out;
  const auto& spans = rec.spans();
  for (std::size_t i = from; i < std::min(to, spans.size()); ++i) {
    if (spans[i].end_ns != 0 && name == spans[i].name) {
      out.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-3);
    }
  }
  return out;
}

kcoup::support::LatencyHistogram delta(const kcoup::support::LatencyHistogram& before,
                                      const kcoup::support::LatencyHistogram& after) {
  kcoup::support::LatencyHistogram d;
  for (std::size_t i = 0; i < kcoup::support::LatencyHistogram::kBuckets; ++i) {
    d.add_bucket(i, after.bucket_count(i) - before.bucket_count(i));
  }
  return d;
}

}  // namespace

std::vector<Metric> Bench::traced() {
  const double s = args_.seconds;
  std::vector<Metric> m;
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  spans_.set_enabled(true);

  // --- campaign: run_campaign's steps one public call at a time ----------
  std::vector<double> busy_frac;
  std::vector<double> overhead_us;
  std::size_t tasks_planned = 0;
  double dedup_ratio = 0.0;
  double reuse_ratio = 0.0;
  cp::CampaignPlan last_plan;
  const std::size_t campaign_from = spans_.size();
  const std::int64_t campaign_end =
      now_ns() + static_cast<std::int64_t>(def_.f_campaign * s * 0.7 * 1e9);
  std::size_t campaigns = 0;
  do {
    fs::remove(campaign_spec_.journal_path);
    CouplingDatabase db;
    ScopedSpan root(&spans_, "campaign.run");
    cp::CampaignPlan plan;
    {
      ScopedSpan span(&spans_, "campaign.plan", root.index());
      plan = cp::plan_campaign(campaign_spec_, nullptr);
    }
    cp::TaskSetResult run;
    std::int64_t exec0 = 0;
    std::int64_t exec1 = 0;
    {
      ScopedSpan span(&spans_, "campaign.execute", root.index());
      exec0 = now_ns();
      cp::TaskJournal journal(campaign_spec_.journal_path);
      kcoup::obs::MetricsRegistry registry;
      run = cp::execute_tasks(campaign_spec_, plan.tasks, workers_, &registry,
                              &journal);
      exec1 = now_ns();
    }
    cp::CampaignResult result;
    {
      ScopedSpan span(&spans_, "campaign.assemble", root.index());
      result = cp::assemble_campaign(
          campaign_spec_, plan, [&](const cp::TaskKey& key) -> std::optional<double> {
            const auto it = run.outcomes.find(key);
            if (it != run.outcomes.end()) {
              return it->second.ok ? std::optional<double>(it->second.value)
                                   : std::nullopt;
            }
            const auto cached = plan.cached.find(key);
            if (cached != plan.cached.end()) return cached->second;
            return std::nullopt;
          });
    }
    {
      ScopedSpan span(&spans_, "campaign.record", root.index());
      cp::record_campaign(campaign_spec_, result, db);
    }
    {
      ScopedSpan span(&spans_, "coupling.save_csv", root.index());
      db.save_csv_file(path("campaign.csv"));
    }
    attempted_ += plan.tasks.size();
    failures_.campaign += run.failures.size();
    if (read_file(path("campaign.csv")) != campaign_reference_) {
      failures_.campaign += std::max<std::size_t>(1, plan.tasks.size());
    }
    double busy = 0.0;
    for (const auto& [key, outcome] : run.outcomes) busy += outcome.seconds;
    const double exec_s = seconds_between(exec0, exec1);
    const std::size_t used = std::min(workers_, std::max<std::size_t>(1, plan.tasks.size()));
    busy_frac.push_back(busy / (static_cast<double>(used) * exec_s));
    overhead_us.push_back((static_cast<double>(used) * exec_s - busy) /
                          static_cast<double>(std::max<std::size_t>(1, plan.tasks.size())) * 1e6);
    tasks_planned = plan.tasks.size();
    dedup_ratio = static_cast<double>(plan.tasks.size()) /
                  static_cast<double>(std::max<std::size_t>(1, plan.tasks_requested));
    reuse_ratio = static_cast<double>(run.handles_reused) /
                  static_cast<double>(std::max<std::size_t>(1, run.handles_created + run.handles_reused));
    last_plan = std::move(plan);
    ++campaigns;
  } while (now_ns() < campaign_end || campaigns < 3);
  const std::size_t campaign_to = spans_.size();

  const std::size_t journal_from = spans_.size();
  {
    const std::string journal_path = path("probe.journal");
    fs::remove(journal_path);
    cp::TaskJournal journal(journal_path);
    for (std::size_t i = 0; i < kJournalAppends && !last_plan.tasks.empty(); ++i) {
      cp::JournalEntry entry;
      entry.key = last_plan.tasks[i % last_plan.tasks.size()].key;
      entry.value = 1e-3 * static_cast<double>(i + 1);
      ScopedSpan span(&spans_, "campaign.journal_append");
      journal.append(entry);
    }
  }
  const std::size_t measure_from = spans_.size();
  {
    std::mt19937_64 rng(args_.seed);
    std::vector<cp::MeasurementTask> sample = last_plan.tasks;
    std::shuffle(sample.begin(), sample.end(), rng);
    sample.resize(std::min(sample.size(), kMeasureTasks));
    for (const cp::MeasurementTask& task : sample) {
      const cp::AppHandle handle = campaign_spec_.studies[task.study].factory();
      const kcoup::coupling::MeasurementHarness harness(&handle.app(),
                                                        campaign_spec_.measurement);
      ScopedSpan span(&spans_, "measure.task");
      switch (task.key.kind) {
        case cp::TaskKind::kChain:
          (void)harness.chain_stats(task.key.index, task.key.length);
          break;
        case cp::TaskKind::kPrologue:
          (void)harness.prologue_stats(task.key.index);
          break;
        case cp::TaskKind::kEpilogue:
          (void)harness.epilogue_stats(task.key.index);
          break;
        case cp::TaskKind::kActual:
          (void)harness.actual_total();
          break;
      }
    }
  }
  const std::size_t measure_to = spans_.size();

  // --- serve: untraced and traced closed loops, interleaved --------------
  const kcoup::serve::CacheStats memo0 = stack_->engine->cache_stats();
  std::vector<double> rps[2];
  std::vector<std::pair<std::size_t, std::size_t>> traced_ranges;
  for (int i = 0; i < 4; ++i) {
    const bool on = i % 2 == 1;
    spans_.set_enabled(on);
    const std::size_t from = spans_.size();
    const PhaseResult r = loadgen_->closed(def_.f_closed * s / 4.0, kDepth,
                                           kClosedWindowS);
    record(r);
    rps[on ? 1 : 0].push_back(median(r.window_rps));
    if (on) traced_ranges.emplace_back(from, spans_.size());
  }
  spans_.set_enabled(true);

  // --- serve: the latency phase with the server-side histogram -----------
  kcoup::obs::Histogram& server_hist =
      stack_->server->registry().histogram("serve.request_seconds");
  const auto hist0 = server_hist.snapshot();
  const std::size_t latency_from = spans_.size();
  PhaseResult latency;
  if (def_.latency_under_reload) {
    std::atomic<bool> stop{false};
    std::thread reloader([this, &stop] { reload_loop(&stop, def_.reload_gap_ms); });
    latency = loadgen_->open(def_.f_reload * s * 0.5, kOpenRps);
    stop = true;
    reloader.join();
    attempted_ += reloads_;
    failures_.reload += reload_failures_;
  } else {
    latency = loadgen_->open(def_.f_open * s, kOpenRps);
  }
  record(latency);
  std::vector<std::pair<std::size_t, std::size_t>> loadgen_ranges = traced_ranges;
  loadgen_ranges.emplace_back(latency_from, spans_.size());
  const auto server_latency = delta(hist0, server_hist.snapshot());
  const kcoup::serve::CacheStats memo1 = stack_->engine->cache_stats();
  const std::uint64_t memo_hits = memo1.hits - memo0.hits;
  const std::uint64_t memo_lookups = memo_hits + (memo1.misses - memo0.misses);
  const std::uint64_t served_requests = stack_->server->metrics().requests;
  if (served_requests != loadgen_->total_sent()) ++failures_.failed;
  lag_p99_ms_ = quantile(latency.lag_ms, 0.99);
  latency_ms_ = latency.latency_ms;
  stalls_ = latency.stalls;
  stall_ms_ = latency.stall_ms;
  stalled_ms_ = latency.stalled_ms;

  // --- serve: one request at a time through every layer's public call ----
  const std::size_t replay_from = spans_.size();
  std::size_t replayed = 0;
  std::vector<double> response_bytes;
  {
    PayloadStream stream(pool_, args_.seed + 7);
    const auto& source = *stack_->source;
    sv::QueryEngine& engine = *stack_->engine;
    const std::int64_t replay_end = now_ns() + static_cast<std::int64_t>(0.1 * s * 1e9);
    for (; replayed < kReplayRequests && now_ns() < replay_end; ++replayed) {
      const std::size_t index = stream.next();
      const Payload& payload = pool_[index];
      const std::uint64_t id = 1'000'000'000 + replayed;
      ScopedSpan root(&spans_, "request", -1, id);
      const int parent = root.index();
      std::string frame;
      {
        ScopedSpan span(&spans_, "framing.encode", parent, id);
        frame = sv::encode_frame(payload.json);
      }
      std::string decoded;
      std::size_t pos = 0;
      {
        ScopedSpan span(&spans_, "framing.decode", parent, id);
        (void)sv::decode_frame(frame, &pos, 64 * 1024, &decoded);
      }
      std::optional<sv::Request> request;
      {
        ScopedSpan span(&spans_, "protocol.parse_request", parent, id);
        request = sv::parse_request(decoded);
      }
      if (!request.has_value()) {
        ++failures_.failed;
        continue;
      }
      std::shared_ptr<const sv::PredictorSnapshot> snapshot;
      {
        ScopedSpan span(&spans_, "snapshot.acquire", parent, id);
        snapshot = source.current();
      }
      std::vector<sv::Prediction> predictions;
      for (const sv::QueryKey& q : request->queries) {
        ScopedSpan span(&spans_, "engine.predict", parent, id);
        predictions.push_back(engine.predict(*snapshot, q));
        span.rename(engine_span(predictions.back()));
      }
      std::string response;
      if (payload.batch) {
        ScopedSpan span(&spans_, "protocol.batch_json", parent, id);
        response = sv::batch_json(predictions);
      } else {
        ScopedSpan span(&spans_, "protocol.prediction_json", parent, id);
        response = sv::prediction_json(predictions.front());
      }
      response_bytes.push_back(static_cast<double>(response.size()));
      {
        ScopedSpan span(&spans_, "framing.encode", parent, id);
        frame = sv::encode_frame(response);
      }
      pos = 0;
      {
        ScopedSpan span(&spans_, "framing.decode", parent, id);
        (void)sv::decode_frame(frame, &pos, 1 << 20, &decoded);
      }
      if (payload.batch) {
        std::optional<std::vector<std::string>> elements;
        {
          ScopedSpan span(&spans_, "client.split_array", parent, id);
          elements = sv::split_json_array(decoded, "results");
        }
        for (const std::string& e : elements.value_or(std::vector<std::string>{})) {
          ScopedSpan span(&spans_, "client.parse_prediction", parent, id);
          (void)sv::parse_prediction(e);
        }
      } else {
        ScopedSpan span(&spans_, "client.parse_prediction", parent, id);
        (void)sv::parse_prediction(decoded);
      }
      std::uint64_t version = 0;
      bool ok = false;
      {
        ScopedSpan span(&spans_, "check", parent, id);
        ok = reference_->check(index, decoded, &version);
      }
      ++attempted_;
      if (!ok) ++failures_.mismatched;
    }
  }
  const std::size_t replay_to = spans_.size();

  // --- engine: each fallback path on probe keys, warm; cold cells --------
  const std::size_t engine_from = spans_.size();
  {
    const auto snapshot = stack_->source->current();
    for (const char* path_name : {"exact", "donor", "model"}) {
      const std::vector<sv::QueryKey> keys = probe_keys(def_, path_name);
      for (const sv::QueryKey& q : keys) (void)stack_->engine->predict(*snapshot, q);
      for (int round = 0; round < kEngineRounds; ++round) {
        for (const sv::QueryKey& q : keys) {
          ScopedSpan span(&spans_, "engine.predict");
          const sv::Prediction p = stack_->engine->predict(*snapshot, q);
          span.rename(engine_span(p));
        }
      }
    }
    sv::NpbWorkload workload(kcoup::machine::ibm_sp_p2sc());
    sv::QueryEngine cold(&workload);
    std::set<std::tuple<std::string, std::string, int>> cells;
    for (const char* path_name : {"exact", "donor"}) {
      for (const sv::QueryKey& q : probe_keys(def_, path_name)) {
        cells.insert({q.application, q.config, q.ranks});
      }
    }
    for (const auto& [a, c, p] : cells) {
      ScopedSpan span(&spans_, "engine.cell_miss");
      (void)cold.cell(a, c, p);
    }
  }
  const std::size_t engine_to = spans_.size();

  // --- reload: the chain a CSV or .kcs poll() runs, one call at a time ---
  const std::size_t reload_from = spans_.size();
  std::size_t reload_builds = 0;
  {
    sv::QueryEngine* engine = stack_->engine.get();
    const sv::CellFn cell_fn = [engine](const std::string& a,
                                        const std::string& c, int p) {
      return engine->cell(a, c, p);
    };
    std::shared_ptr<const sv::PredictorSnapshot> outgoing = stack_->source->current();
    const std::int64_t reload_end =
        now_ns() + static_cast<std::int64_t>(def_.f_reload * s * 0.4 * 1e9);
    for (std::uint64_t k = 1; now_ns() < reload_end || k <= 4; ++k) {
      const Identity id = (k % 2 == 1) ? kB : kA;
      const std::string csv = path(id == kA ? "a.csv" : "b.csv");
      const std::string kcs = path(id == kA ? "a.kcs" : "b.kcs");
      ScopedSpan root(&spans_, "reload");
      CouplingDatabase db;
      {
        ScopedSpan span(&spans_, "snapshot.csv_load", root.index());
        db.load_csv_file(csv);
      }
      CouplingDatabase copy = db;
      {
        ScopedSpan span(&spans_, "snapshot.build_nofit", root.index());
        sv::SnapshotOptions options;
        options.fit_scaling_models = false;
        const sv::PredictorSnapshot built(std::move(copy), k, cell_fn, options);
      }
      copy = db;
      std::shared_ptr<const sv::PredictorSnapshot> built;
      {
        ScopedSpan span(&spans_, "snapshot.build", root.index());
        built = std::make_shared<const sv::PredictorSnapshot>(std::move(copy), k,
                                                              cell_fn,
                                                              sv::SnapshotOptions{});
      }
      {
        ScopedSpan span(&spans_, "model.detect_transitions", root.index());
        (void)kcoup::model::detect_coupling_transitions(db);
      }
      // The scaling-model fits on the samples PredictorSnapshot assembles:
      // per application, each kernel's isolated means over its cells.  This
      // mirrors the sample assembly in the PredictorSnapshot constructor
      // (src/serve/snapshot.cpp), and is checked against the snapshot just
      // built, so the two fit spans keep timing the program's own work.
      std::map<std::string, std::set<std::pair<std::string, int>>> cells_by_app;
      for (const auto& r : db.records()) {
        cells_by_app[r.key.application].insert({r.key.config, r.key.ranks});
      }
      using KernelSamples = std::vector<kcoup::coupling::ScalingSample>;
      std::vector<std::pair<std::string, std::vector<KernelSamples>>> by_app;
      for (const auto& [app, cells] : cells_by_app) {
        std::vector<KernelSamples> per_kernel;
        for (const auto& [cfg, ranks] : cells) {
          const auto cell = cell_fn(app, cfg, ranks);
          if (!cell.has_value()) continue;
          if (per_kernel.empty()) per_kernel.resize(cell->loop_size);
          if (per_kernel.size() != cell->loop_size) continue;
          for (std::size_t i = 0; i < cell->loop_size; ++i) {
            per_kernel[i].push_back({cell->grid_extent, static_cast<double>(ranks),
                                     cell->inputs.isolated_means[i]});
          }
        }
        if (per_kernel.empty() || per_kernel.front().empty()) continue;
        by_app.emplace_back(app, std::move(per_kernel));
      }
      const auto& built_models = built->scaling_models();
      bool same_shape = built_models.size() == by_app.size();
      for (std::size_t i = 0; same_shape && i < by_app.size(); ++i) {
        same_shape = built_models[i].first == by_app[i].first &&
                     built_models[i].second.size() == by_app[i].second.size();
      }
      if (!same_shape) {
        std::fprintf(stderr, "kbench: fit samples no longer match the snapshot's models\n");
        ++failures_.mismatched;
      }
      {
        ScopedSpan span(&spans_, "coupling.lsq_fit", root.index());
        for (const auto& [app, kernels] : by_app) {
          for (const KernelSamples& ks : kernels) {
            (void)kcoup::coupling::KernelScalingModel::fit_or_constant(
                kcoup::coupling::ScalingBasis::npb_default(), ks);
          }
        }
      }
      {
        ScopedSpan span(&spans_, "model.fit_piecewise", root.index());
        for (const auto& [app, kernels] : by_app) {
          for (const KernelSamples& ks : kernels) {
            std::vector<kcoup::model::ModelSample> ms;
            for (const auto& x : ks) ms.push_back({x.n, x.p, x.seconds});
            (void)kcoup::model::fit_piecewise(ms);
          }
        }
      }
      {
        ScopedSpan span(&spans_, "snapshot.drift", root.index());
        (void)sv::compute_drift(*outgoing, db, k);
      }
      {
        ScopedSpan span(&spans_, "pack.pack", root.index());
        (void)sv::pack_snapshot(*built);
      }
      {
        ScopedSpan span(&spans_, "snapshot.kcs_load", root.index());
        (void)sv::load_packed_snapshot(kcs, k);
      }
      outgoing = built;
      ++reload_builds;
    }
  }
  const std::size_t reload_to = spans_.size();
  spans_.set_enabled(false);

  // --- metrics -------------------------------------------------------------
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  for (const auto& [from, to] : traced_ranges) {
    for (double d : durations(spans_, "framing.encode", from, to)) encode_us.push_back(d);
    for (double d : durations(spans_, "framing.decode", from, to)) decode_us.push_back(d);
  }
  const auto ms_of = [this](const char* name, std::size_t from, std::size_t to) {
    return median(durations(spans_, name, from, to)) * 1e-3;
  };
  const auto us_of = [this](const char* name, std::size_t from, std::size_t to) {
    return median(durations(spans_, name, from, to));
  };

  add("framing.encode_us", median(encode_us), "us");
  add("framing.decode_us", median(decode_us), "us");
  add("protocol.parse_request_us", us_of("protocol.parse_request", replay_from, replay_to), "us");
  add("protocol.prediction_json_us", us_of("protocol.prediction_json", replay_from, replay_to), "us");
  add("protocol.batch_json_us", us_of("protocol.batch_json", replay_from, replay_to), "us");
  add("protocol.response_bytes", median(response_bytes), "count");
  add("client.parse_prediction_us", us_of("client.parse_prediction", replay_from, replay_to), "us");
  add("snapshot.acquire_us", us_of("snapshot.acquire", replay_from, replay_to), "us");
  const double exact_us = us_of("engine.exact", engine_from, engine_to);
  add("engine.exact_us", exact_us, "us");
  add("engine.donor_us", us_of("engine.donor", engine_from, engine_to), "us");
  add("engine.model_us", us_of("engine.model", engine_from, engine_to), "us");
  add("engine.cell_miss_ms", ms_of("engine.cell_miss", engine_from, engine_to), "ms");
  add("engine.memo_hit_ratio",
      memo_lookups > 0 ? static_cast<double>(memo_hits) / static_cast<double>(memo_lookups) : 1.0,
      "ratio");
  add("server.p50_us", server_latency.quantile(0.5) * 1e6, "us");
  add("server.p99_us", server_latency.quantile(0.99) * 1e6, "us");
  add("server.requests", static_cast<double>(served_requests), "count");
  add("snapshot.csv_load_ms", ms_of("snapshot.csv_load", reload_from, reload_to), "ms");
  add("snapshot.build_nofit_ms", ms_of("snapshot.build_nofit", reload_from, reload_to), "ms");
  add("snapshot.build_ms", ms_of("snapshot.build", reload_from, reload_to), "ms");
  add("snapshot.kcs_load_ms", ms_of("snapshot.kcs_load", reload_from, reload_to), "ms");
  add("snapshot.drift_ms", ms_of("snapshot.drift", reload_from, reload_to), "ms");
  add("model.fit_piecewise_ms", ms_of("model.fit_piecewise", reload_from, reload_to), "ms");
  add("model.detect_transitions_ms", ms_of("model.detect_transitions", reload_from, reload_to), "ms");
  add("coupling.lsq_fit_ms", ms_of("coupling.lsq_fit", reload_from, reload_to), "ms");
  add("pack.pack_ms", ms_of("pack.pack", reload_from, reload_to), "ms");
  add("campaign.plan_ms", ms_of("campaign.plan", campaign_from, campaign_to), "ms");
  add("campaign.execute_ms", ms_of("campaign.execute", campaign_from, campaign_to), "ms");
  add("campaign.assemble_ms", ms_of("campaign.assemble", campaign_from, campaign_to), "ms");
  add("campaign.record_ms", ms_of("campaign.record", campaign_from, campaign_to), "ms");
  add("campaign.journal_append_us", us_of("campaign.journal_append", journal_from, measure_from), "us");
  add("coupling.save_csv_ms", ms_of("coupling.save_csv", campaign_from, campaign_to), "ms");
  add("campaign.busy_frac", median(busy_frac), "ratio");
  add("campaign.overhead_us_per_task", median(overhead_us), "us");
  add("campaign.tasks_planned", static_cast<double>(tasks_planned), "count");
  add("campaign.dedup_ratio", dedup_ratio, "ratio");
  add("campaign.handle_reuse_ratio", reuse_ratio, "ratio");
  add("measure.task_us", us_of("measure.task", measure_from, measure_to), "us");
  add("loadgen.lag_p99_ms", lag_p99_ms_, "ms");
  add("loadgen.sent", static_cast<double>(loadgen_->total_sent()), "count");
  const double untraced = median(rps[0]);
  add("trace.overhead_pct", 100.0 * (untraced - median(rps[1])) / untraced, "%");

  // Self time per replayed request, by layer.
  const std::map<std::string, double> self = spans_.self_us_by_layer(replay_from, replay_to);
  const double n = static_cast<double>(std::max<std::size_t>(1, replayed));
  auto self_us = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second / n;
  };
  for (const char* layer : {"framing", "protocol", "snapshot", "engine", "client", "check", "request"}) {
    m.push_back({std::string("self.") + layer + "_us", self_us(layer), "us"});
  }
  const double wire = self_us("framing") + self_us("protocol") + self_us("engine");
  // Engine share of one request's framing + protocol + engine self time,
  // and one warm exact predict call against the same sum.
  add("share.engine_pct", wire > 0.0 ? 100.0 * self_us("engine") / wire : 0.0, "%");
  add("share.exact_call_pct", wire > 0.0 ? 100.0 * exact_us / wire : 0.0, "%");

  std::printf("layer self time per replayed request (%zu requests):\n", replayed);
  for (const auto& [layer, us] : self) {
    std::printf("  %-10s %10.3f us\n", layer.c_str(), us / n);
  }
  std::printf("reload chains traced: %zu, campaigns traced: %zu\n", reload_builds, campaigns);
  const std::string trace_path =
      args_.out_dir + "/trace-" + def_.name + "-" + std::to_string(args_.seed) + ".json";
  // The load generator's sampled spans are capped per phase; the replayed
  // requests, engine probes, reload chains and campaigns are written whole.
  const std::optional<std::size_t> written =
      spans_.write_chrome_trace(trace_path, loadgen_ranges, kTraceFileLoadgenSpans);
  if (written.has_value()) {
    std::printf("wrote %s (%zu of %zu spans; %llu dropped when the buffer was full)\n",
                trace_path.c_str(), *written, spans_.size(),
                static_cast<unsigned long long>(spans_.dropped()));
  }
  return m;
}

}  // namespace kbench
