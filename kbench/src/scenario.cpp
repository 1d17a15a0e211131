#include "scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "machine/config.hpp"
#include "npb/bt/bt_model.hpp"
#include "npb/common/problem.hpp"
#include "npb/lu/lu_model.hpp"
#include "npb/sp/sp_model.hpp"
#include "serve/protocol.hpp"

namespace kbench {

namespace cp = kcoup::campaign;
namespace sv = kcoup::serve;
namespace npb = kcoup::npb;

namespace {

const Sweep kServeDbA{{"BT", "SP", "LU"}, {"S", "W", "A"}, {1, 4, 16}, {2, 3}};
const Sweep kServeDbExtra{{"BT", "SP", "LU"}, {"S", "W", "A"}, {8, 9}, {2, 3}};
const Sweep kSweep{{"BT", "SP", "LU"},
                   {"S", "W", "A", "B"},
                   {1, 4, 9, 16, 25, 36, 64},
                   {2, 3, 4}};

std::vector<WorkloadDef> make_defs() {
  std::vector<WorkloadDef> defs;

  WorkloadDef hot;
  hot.name = "serve_hot";
  hot.db_a = kServeDbA;
  hot.db_extra = kServeDbExtra;
  hot.campaign = kServeDbA;
  hot.mix = Mix::kExact;
  defs.push_back(hot);

  WorkloadDef mixed = hot;
  mixed.name = "serve_mixed";
  mixed.mix = Mix::kMixed;
  defs.push_back(mixed);

  WorkloadDef reload = hot;
  reload.name = "serve_reload";
  reload.mix = Mix::kReload;
  reload.f_campaign = 0.1;
  reload.f_closed = 0.2;
  reload.f_open = 0.0;
  reload.f_reload = 0.7;
  reload.latency_under_reload = true;
  reload.reload_gap_ms = 0;
  defs.push_back(reload);

  // The served side stays the serve_hot database: this workload is about
  // the campaign, and serving its own 1300-record sweep would make set-up
  // and every reload an order of magnitude slower.
  WorkloadDef sweep = hot;
  sweep.name = "campaign_sweep";
  sweep.campaign = kSweep;
  sweep.mix = Mix::kExact;
  sweep.f_campaign = 0.5;
  sweep.f_closed = 0.15;
  sweep.f_open = 0.2;
  sweep.f_reload = 0.15;
  defs.push_back(sweep);
  return defs;
}

const std::vector<WorkloadDef>& defs() {
  static const std::vector<WorkloadDef> d = make_defs();
  return d;
}

npb::Benchmark benchmark_of(const std::string& app) {
  if (app == "BT") return npb::Benchmark::kBT;
  if (app == "SP") return npb::Benchmark::kSP;
  if (app == "LU") return npb::Benchmark::kLU;
  throw std::invalid_argument("unknown app " + app);
}

npb::ProblemClass class_of(const std::string& cls) {
  if (cls == "S") return npb::ProblemClass::kS;
  if (cls == "W") return npb::ProblemClass::kW;
  if (cls == "A") return npb::ProblemClass::kA;
  if (cls == "B") return npb::ProblemClass::kB;
  throw std::invalid_argument("unknown class " + cls);
}

bool valid(const std::string& app, int p) {
  return npb::valid_rank_count(benchmark_of(app), p);
}

/// Every (app, class, P, q) key of a sweep, optionally keeping only the
/// P values that are valid (measurable) or invalid (model-only) for the app.
enum class Cells { kValid, kInvalid };
void add_keys(std::vector<sv::QueryKey>* out, const std::vector<std::string>& apps,
              const std::vector<std::string>& classes, const std::vector<int>& procs,
              const std::vector<std::size_t>& chains, Cells cells) {
  for (const std::string& app : apps) {
    for (const std::string& cls : classes) {
      for (int p : procs) {
        if (valid(app, p) != (cells == Cells::kValid)) continue;
        for (std::size_t q : chains) out->push_back({app, cls, p, q});
      }
    }
  }
}

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& d : defs()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadDef& d : defs()) out.push_back(d.name);
  return out;
}

cp::CampaignSpec make_spec(const Sweep& sweep, std::uint64_t seed) {
  const kcoup::machine::MachineConfig machine = kcoup::machine::ibm_sp_p2sc();
  cp::CampaignSpec spec;
  spec.chain_lengths = sweep.chains;
  for (const std::string& app : sweep.apps) {
    for (const std::string& cls : sweep.classes) {
      for (int p : sweep.procs) {
        if (!valid(app, p)) continue;
        cp::CampaignStudy cell;
        cell.application = app;
        cell.config = cls;
        cell.ranks = p;
        const npb::Benchmark b = benchmark_of(app);
        const npb::ProblemClass c = class_of(cls);
        cell.factory = [b, c, p, machine] {
          switch (b) {
            case npb::Benchmark::kBT:
              return cp::own_app(npb::bt::make_modeled_bt(c, p, machine));
            case npb::Benchmark::kSP:
              return cp::own_app(npb::sp::make_modeled_sp(c, p, machine));
            case npb::Benchmark::kLU: break;
          }
          return cp::own_app(npb::lu::make_modeled_lu(c, p, machine));
        };
        spec.studies.push_back(std::move(cell));
      }
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(spec.studies.begin(), spec.studies.end(), rng);
  return spec;
}

std::vector<Payload> make_pool(const WorkloadDef& def, std::uint64_t seed) {
  std::vector<sv::QueryKey> keys;
  const std::vector<std::string> square{"BT", "SP"};
  const std::vector<std::string> lu{"LU"};
  const std::vector<std::size_t> chains{2, 3};
  switch (def.mix) {
    case Mix::kExact:
      add_keys(&keys, def.db_a.apps, def.db_a.classes, def.db_a.procs,
               def.db_a.chains, Cells::kValid);
      break;
    case Mix::kMixed:
      // Nearest-donor: measurable P with no coupling group in A or B.
      add_keys(&keys, square, def.db_a.classes, {25, 36, 64}, chains,
               Cells::kValid);
      add_keys(&keys, lu, def.db_a.classes, {32, 64}, chains, Cells::kValid);
      // Model fallback: P the application cannot run at.
      add_keys(&keys, square, def.db_a.classes, {2, 6, 12}, chains,
               Cells::kInvalid);
      add_keys(&keys, lu, def.db_a.classes, {3, 12}, chains, Cells::kInvalid);
      break;
    case Mix::kReload:
      add_keys(&keys, def.db_a.apps, def.db_a.classes, def.db_a.procs,
               def.db_a.chains, Cells::kValid);
      // Exact in B, nearest-donor in A; model fits differ between A and B.
      add_keys(&keys, def.db_extra.apps, def.db_a.classes, def.db_extra.procs,
               chains, Cells::kValid);
      add_keys(&keys, square, def.db_a.classes, {2, 12}, chains,
               Cells::kInvalid);
      break;
  }

  std::vector<Payload> pool;
  for (const sv::QueryKey& k : keys) {
    Payload p;
    p.queries = {k};
    p.json = sv::predict_request(k);
    pool.push_back(std::move(p));
  }
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::uniform_int_distribution<std::size_t> pick(0, keys.size() - 1);
  constexpr std::size_t kBatches = 16;
  constexpr std::size_t kBatchSize = 8;
  for (std::size_t b = 0; b < kBatches; ++b) {
    Payload p;
    p.batch = true;
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      p.queries.push_back(keys[pick(rng)]);
    }
    p.json = sv::batch_request(p.queries);
    pool.push_back(std::move(p));
  }
  return pool;
}

PayloadStream::PayloadStream(const std::vector<Payload>& pool,
                             std::uint64_t seed)
    : rng_(seed) {
  for (std::size_t i = 0; i < pool.size(); ++i) {
    (pool[i].batch ? batches_ : singles_).push_back(i);
  }
  std::shuffle(singles_.begin(), singles_.end(), rng_);
  std::shuffle(batches_.begin(), batches_.end(), rng_);
}

std::size_t PayloadStream::next() {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const bool batch = !batches_.empty() && u(rng_) < kBatchShare;
  std::vector<std::size_t>& list = batch ? batches_ : singles_;
  std::size_t& i = batch ? bi_ : si_;
  if (i == list.size()) {
    std::shuffle(list.begin(), list.end(), rng_);
    i = 0;
  }
  return list[i++];
}

Reference::Reference(const std::vector<Payload>& pool,
                     const kcoup::coupling::CouplingDatabase& db_a,
                     const kcoup::coupling::CouplingDatabase& db_b) {
  sv::NpbWorkload workload(kcoup::machine::ibm_sp_p2sc());
  sv::QueryEngine engine(&workload);
  const sv::CellFn cell_fn = [&engine](const std::string& a,
                                       const std::string& c, int p) {
    return engine.cell(a, c, p);
  };
  const kcoup::coupling::CouplingDatabase* dbs[2] = {&db_a, &db_b};
  static const std::string kVersionZero = "\"snapshot\":0}";
  for (int id = 0; id < 2; ++id) {
    const sv::PredictorSnapshot snapshot(*dbs[id], 0, cell_fn, {});
    expected_[id].resize(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      Expected& e = expected_[id][i];
      std::vector<sv::Prediction> predictions;
      for (const sv::QueryKey& q : pool[i].queries) {
        (void)engine.predict(snapshot, q);  // warm the memo like the server
        predictions.push_back(engine.predict(snapshot, q));
      }
      for (const sv::Prediction& p : predictions) {
        if (p.ok && std::isfinite(p.coupling_error)) {
          e.errors.push_back(std::abs(p.coupling_error));
        }
      }
      const std::string bytes = pool[i].batch
                                    ? sv::batch_json(predictions)
                                    : sv::prediction_json(predictions[0]);
      // Pieces end right after `"snapshot":`; the next starts at '}'.
      std::size_t from = 0;
      for (std::size_t at = bytes.find(kVersionZero); at != std::string::npos;
           at = bytes.find(kVersionZero, from)) {
        const std::size_t digit = at + kVersionZero.size() - 2;
        e.pieces.push_back(bytes.substr(from, digit - from));
        from = digit + 1;
      }
      e.pieces.push_back(bytes.substr(from));
    }
  }
}

bool Reference::check(std::size_t index, std::string_view response,
                      std::uint64_t* version) const {
  static constexpr std::string_view kKey = "\"snapshot\":";
  const std::size_t at = response.find(kKey);
  if (at == std::string_view::npos) return false;
  std::uint64_t v = 0;
  std::size_t pos = at + kKey.size();
  if (pos >= response.size() || response[pos] < '0' || response[pos] > '9') {
    return false;
  }
  while (pos < response.size() && response[pos] >= '0' &&
         response[pos] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(response[pos] - '0');
    ++pos;
  }
  *version = v;
  if (v == 0) return false;
  const std::vector<std::string>& pieces =
      expected_[identity_of_version(v)][index].pieces;
  pos = 0;
  for (std::size_t k = 0; k < pieces.size(); ++k) {
    const std::string& piece = pieces[k];
    if (response.compare(pos, piece.size(), piece) != 0) return false;
    pos += piece.size();
    if (k + 1 == pieces.size()) break;
    std::uint64_t w = 0;
    const std::size_t start = pos;
    while (pos < response.size() && response[pos] >= '0' &&
           response[pos] <= '9') {
      w = w * 10 + static_cast<std::uint64_t>(response[pos] - '0');
      ++pos;
    }
    if (pos == start || w != v) return false;
  }
  return pos == response.size();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void publish_file(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << bytes;
    out.flush();
    if (!out) throw std::runtime_error("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

}  // namespace kbench
