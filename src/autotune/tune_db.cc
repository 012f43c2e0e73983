#include "autotune/tune_db.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "support/expo.h"

namespace spcg {

namespace {

// ---------------------------------------------------------------------------
// Schema helpers.
// ---------------------------------------------------------------------------

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_hex64(const Json* j, std::uint64_t* out) {
  if (j == nullptr || j->kind != Json::Kind::kString || j->string.empty() ||
      j->string.size() > 16)
    return false;
  std::uint64_t v = 0;
  for (const char c : j->string) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return false;
  }
  *out = v;
  return true;
}

bool get_number(const Json& obj, const std::string& key, double* out) {
  const Json* j = obj.get(key);
  if (j == nullptr || j->kind != Json::Kind::kNumber ||
      !std::isfinite(j->number))
    return false;
  *out = j->number;
  return true;
}

bool get_string(const Json& obj, const std::string& key, std::string* out) {
  const Json* j = obj.get(key);
  if (j == nullptr || j->kind != Json::Kind::kString) return false;
  *out = j->string;
  return true;
}

void write_features(std::ostream& os, const MatrixFeatures& f,
                    const char* indent) {
  os << indent << "\"features\": {"
     << "\"rows\": " << f.rows << ", \"nnz\": " << f.nnz
     << ", \"avg_nnz_per_row\": " << f.avg_nnz_per_row
     << ", \"max_nnz_per_row\": " << f.max_nnz_per_row
     << ", \"avg_bandwidth\": " << f.avg_bandwidth
     << ", \"max_bandwidth\": " << f.max_bandwidth
     << ", \"diag_dominance_min\": " << f.diag_dominance_min
     << ", \"diag_dominance_avg\": " << f.diag_dominance_avg
     << ", \"wavefront_levels\": " << f.wavefront_levels
     << ", \"avg_level_width\": " << f.avg_level_width
     << ", \"max_level_width\": " << f.max_level_width << "}";
}

bool parse_features(const Json* j, MatrixFeatures* f) {
  if (j == nullptr || j->kind != Json::Kind::kObject) return false;
  return get_number(*j, "rows", &f->rows) && get_number(*j, "nnz", &f->nnz) &&
         get_number(*j, "avg_nnz_per_row", &f->avg_nnz_per_row) &&
         get_number(*j, "max_nnz_per_row", &f->max_nnz_per_row) &&
         get_number(*j, "avg_bandwidth", &f->avg_bandwidth) &&
         get_number(*j, "max_bandwidth", &f->max_bandwidth) &&
         get_number(*j, "diag_dominance_min", &f->diag_dominance_min) &&
         get_number(*j, "diag_dominance_avg", &f->diag_dominance_avg) &&
         get_number(*j, "wavefront_levels", &f->wavefront_levels) &&
         get_number(*j, "avg_level_width", &f->avg_level_width) &&
         get_number(*j, "max_level_width", &f->max_level_width);
}

void write_config(std::ostream& os, const TuneConfig& c, const char* indent) {
  os << indent << "\"config\": {\"sparsify\": " << json_quote(to_string(c.sparsify))
     << ", \"ratio_percent\": " << c.ratio_percent
     << ", \"precond\": " << json_quote(to_string(c.precond))
     << ", \"fill_level\": " << c.fill_level << ", \"executor\": "
     << json_quote(c.executor == TrsvExec::kSerial ? "serial" : "level")
     << "}";
}

bool parse_config(const Json* j, TuneConfig* c) {
  if (j == nullptr || j->kind != Json::Kind::kObject) return false;
  std::string sparsify, precond, executor;
  double ratio = 0.0, fill = 0.0;
  if (!get_string(*j, "sparsify", &sparsify) ||
      !get_number(*j, "ratio_percent", &ratio) ||
      !get_string(*j, "precond", &precond) ||
      !get_number(*j, "fill_level", &fill) ||
      !get_string(*j, "executor", &executor))
    return false;
  if (sparsify == "off") c->sparsify = TuneSparsify::kOff;
  else if (sparsify == "fixed") c->sparsify = TuneSparsify::kFixed;
  else if (sparsify == "adaptive") c->sparsify = TuneSparsify::kAdaptive;
  else
    return false;
  c->ratio_percent = ratio;
  if (precond == "ilu0") c->precond = TunePrecond::kIlu0;
  else if (precond == "iluk") c->precond = TunePrecond::kIluK;
  else if (precond == "ilut") c->precond = TunePrecond::kIlut;
  else if (precond == "sai") c->precond = TunePrecond::kSai;
  else if (precond == "block-jacobi") c->precond = TunePrecond::kBlockJacobi;
  else
    return false;
  if (fill < 0 || fill > 1e6 || fill != std::floor(fill)) return false;
  c->fill_level = static_cast<index_t>(fill);
  if (executor == "serial") c->executor = TrsvExec::kSerial;
  else if (executor == "level") c->executor = TrsvExec::kLevelScheduled;
  else
    return false;
  return true;
}

bool parse_record(const Json& j, TuneRecord* rec) {
  if (j.kind != Json::Kind::kObject) return false;
  double rows = 0.0, nnz = 0.0, iterations = 0.0, trials = 0.0;
  if (!parse_hex64(j.get("pattern_hash"), &rec->fingerprint.pattern_hash) ||
      !parse_hex64(j.get("values_hash"), &rec->fingerprint.values_hash) ||
      !get_number(j, "rows", &rows) || !get_number(j, "nnz", &nnz) ||
      !parse_features(j.get("features"), &rec->features) ||
      !parse_config(j.get("config"), &rec->config) ||
      !get_number(j, "score", &rec->score) ||
      !get_number(j, "per_iteration_seconds", &rec->per_iteration_seconds) ||
      !get_number(j, "iterations", &iterations) ||
      !get_number(j, "trials", &trials))
    return false;
  if (rows < 0 || nnz < 0 || iterations < 0 || trials < 0) return false;
  rec->fingerprint.rows = static_cast<index_t>(rows);
  rec->fingerprint.nnz = static_cast<index_t>(nnz);
  rec->iterations = static_cast<std::int32_t>(iterations);
  rec->trials = static_cast<std::uint64_t>(trials);
  return true;
}

}  // namespace

std::optional<TuneRecord> TuneDb::find_exact(
    const MatrixFingerprint& fp) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const TuneRecord& r : records_)
    if (r.fingerprint == fp) return r;
  return std::nullopt;
}

std::optional<TuneNeighbor> TuneDb::find_nearest(
    const MatrixFeatures& features, double max_distance,
    const MatrixFingerprint* exclude) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::optional<TuneNeighbor> best;
  for (const TuneRecord& r : records_) {
    if (exclude != nullptr && r.fingerprint == *exclude) continue;
    const double d = feature_distance(features, r.features);
    if (d > max_distance) continue;
    if (!best || d < best->distance) best = TuneNeighbor{r, d};
  }
  return best;
}

void TuneDb::record(const TuneRecord& rec) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (TuneRecord& r : records_) {
    if (r.fingerprint == rec.fingerprint) {
      if (rec.score < r.score) r = rec;
      return;
    }
  }
  records_.push_back(rec);
}

std::size_t TuneDb::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::vector<TuneRecord> TuneDb::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

void TuneDb::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
}

std::string TuneDb::to_json() const {
  const std::vector<TuneRecord> records = snapshot();
  std::ostringstream os;
  os.precision(17);
  os << "{\n  \"schema\": \"spcg-tune-db\",\n  \"version\": " << kSchemaVersion
     << ",\n  \"records\": [";
  bool first = true;
  for (const TuneRecord& r : records) {
    os << (first ? "\n" : ",\n") << "    {\n"
       << "      \"pattern_hash\": \"" << hex64(r.fingerprint.pattern_hash)
       << "\",\n"
       << "      \"values_hash\": \"" << hex64(r.fingerprint.values_hash)
       << "\",\n"
       << "      \"rows\": " << r.fingerprint.rows << ",\n"
       << "      \"nnz\": " << r.fingerprint.nnz << ",\n";
    write_features(os, r.features, "      ");
    os << ",\n";
    write_config(os, r.config, "      ");
    os << ",\n"
       << "      \"score\": " << r.score << ",\n"
       << "      \"per_iteration_seconds\": " << r.per_iteration_seconds
       << ",\n"
       << "      \"iterations\": " << r.iterations << ",\n"
       << "      \"trials\": " << r.trials << "\n    }";
    first = false;
  }
  os << (first ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

TuneDbLoad TuneDb::from_json(const std::string& text) {
  const std::optional<Json> parsed_doc = parse_json(text);
  if (!parsed_doc || parsed_doc->kind != Json::Kind::kObject)
    return TuneDbLoad::kCorrupt;
  const Json& doc = *parsed_doc;
  std::string schema;
  double version = 0.0;
  if (!get_string(doc, "schema", &schema) ||
      !get_number(doc, "version", &version) || schema != "spcg-tune-db")
    return TuneDbLoad::kCorrupt;
  if (version != static_cast<double>(kSchemaVersion))
    return TuneDbLoad::kVersionMismatch;
  const Json* records = doc.get("records");
  if (records == nullptr || records->kind != Json::Kind::kArray)
    return TuneDbLoad::kCorrupt;
  std::vector<TuneRecord> parsed;
  parsed.reserve(records->array.size());
  for (const Json& j : records->array) {
    TuneRecord rec;
    if (!parse_record(j, &rec)) return TuneDbLoad::kCorrupt;
    parsed.push_back(rec);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  records_ = std::move(parsed);
  return TuneDbLoad::kOk;
}

bool TuneDb::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return false;
  out << to_json();
  out.flush();
  return out.good();
}

TuneDbLoad TuneDb::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return TuneDbLoad::kMissing;
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(buf.str());
}

}  // namespace spcg
