#include "common/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/lint.h"
#include "core/sparsify.h"
#include "precond/preconditioner.h"
#include "solver/pcg.h"
#include "support/error.h"
#include "support/stats.h"

namespace spcg::bench {
namespace {

constexpr const char* kCacheMagic = "SPCGCACHE v3";

// Every benchmark validates its inputs through the structural linter in
// debug builds; release builds opt in with SPCG_VALIDATE=1.
bool validate_enabled() {
#ifndef NDEBUG
  return true;
#else
  const char* v = std::getenv("SPCG_VALIDATE");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
#endif
}

void lint_or_throw(const analysis::Diagnostics& d, const std::string& what) {
  if (!d.ok())
    throw Error("bench input failed lint (" + what + "):\n" + d.to_string(8));
}

std::string cache_dir() {
  if (const char* dir = std::getenv("SPCG_CACHE_DIR")) return dir;
  return ".spcg_cache";
}

PcgOptions pcg_options(const RunConfig& c) {
  PcgOptions o;
  o.tolerance = c.tolerance;
  o.max_iterations = c.max_iterations;
  return o;
}

}  // namespace

std::string RunConfig::fingerprint() const {
  std::ostringstream os;
  os << (kind == PrecondKind::kIlu0 ? "ilu0" : "iluk");
  for (const double r : ratios) os << "_r" << r;
  os << "_tau" << tau << "_om" << omega_percent << "_est"
     << (estimator == ConditionEstimator::kDiagonalProxy ? "proxy" : "lanczos")
     << "_tol" << tolerance << "_it" << max_iterations;
  for (const index_t k : k_candidates) os << "_k" << k;
  os << "_cap" << max_row_fill << "_vb" << value_bytes << "_n"
     << (max_matrices < 0 ? suite_size() : max_matrices) << "_ds" << std::hex
     << suite_checksum() << std::dec;
  for (const DeviceSpec& d : model_devices()) os << "_" << d.name;
  return os.str();
}

const std::vector<DeviceSpec>& model_devices() {
  static const std::vector<DeviceSpec> devices{device_a100(), device_v100(),
                                               device_epyc7413()};
  return devices;
}

double MatrixRecord::per_iteration_speedup(
    const VariantRecord& v, const std::string& device_name) const {
  const double base = baseline.device.at(device_name).per_iteration_s;
  const double mine = v.device.at(device_name).per_iteration_s;
  return mine > 0.0 ? base / mine : 0.0;
}

std::optional<double> MatrixRecord::end_to_end_speedup(
    const VariantRecord& v, const std::string& device_name) const {
  if (!v.converged || !baseline.converged) return std::nullopt;
  const double base =
      baseline.device.at(device_name).end_to_end_s(baseline.iterations);
  const double mine = v.device.at(device_name).end_to_end_s(v.iterations);
  return mine > 0.0 ? std::optional<double>(base / mine) : std::nullopt;
}

MatrixRecord run_matrix(const GeneratedMatrix& g, const RunConfig& config) {
  const Csr<double>& a = g.a;
  const bool validate = validate_enabled();
  if (validate) {
    analysis::LintOptions lint_opt;
    lint_opt.check_symmetry = true;
    lint_opt.check_spd = true;
    lint_opt.symmetry_tol = 0.0;
    lint_or_throw(analysis::analyze(a, lint_opt, g.spec.name),
                  g.spec.name + ": A");
  }
  MatrixRecord rec;
  rec.spec = g.spec;
  rec.n = a.rows;
  rec.nnz = a.nnz();
  rec.wavefronts = count_wavefronts(a);

  const PcgOptions pcg_opt = pcg_options(config);
  const CostModel host(device_host_cpu(), config.value_bytes);

  // Evaluate one preconditioner input (A itself or a sparsified Â).
  auto evaluate = [&](const Csr<double>& input, const std::string& label,
                      double ratio, int sparsify_steps,
                      index_t fill_level) -> VariantRecord {
    VariantRecord v;
    v.label = label;
    v.ratio_percent = ratio;
    IluResult<double> info;
    TriangularFactors<double> f =
        config.kind == PrecondKind::kIlu0
            ? ilu0_factors(input, IluOptions{}, &info)
            : iluk_factors(input, fill_level, IluOptions{},
                           config.max_row_fill, &info);
    if (validate) {
      lint_or_throw(
          analysis::analyze_triangular(f.l, Triangle::kLower, {}, label),
          g.spec.name + ": factor L " + label);
      lint_or_throw(
          analysis::analyze_triangular(f.u, Triangle::kUpper, {}, label),
          g.spec.name + ": factor U " + label);
    }
    v.matrix_wavefronts = (&input == &a) ? rec.wavefronts
                                         : count_wavefronts(input);
    v.factor_nnz = f.l.nnz() + f.u.nnz();
    v.elimination_ops = info.elimination_ops;

    const TriSolveStructure lower_struct =
        trisolve_structure(f.l, Triangle::kLower);
    v.factor_wavefronts = lower_struct.levels();
    const PcgIterationShape shape = pcg_iteration_shape(a, f);

    {
      IluPreconditioner<double> m(std::move(f), TrsvExec::kSerial);
      const SolveResult<double> solve =
          pcg(a, std::span<const double>(g.b), m, pcg_opt);
      v.converged = solve.converged();
      v.iterations = solve.iterations;
      v.final_residual = solve.final_residual_norm;
    }

    const OpCost sparsify_cost =
        sparsify_steps > 0 ? host.sparsify_host(rec.nnz, sparsify_steps)
                           : OpCost{};
    const OpCost host_factor =
        host.iluk_factorization_host(v.elimination_ops, v.factor_nnz);

    for (const DeviceSpec& d : model_devices()) {
      const CostModel cm(d, config.value_bytes);
      DeviceTimes t;
      const OpCost iter = cm.pcg_iteration(shape);
      t.per_iteration_s = iter.seconds;
      t.dram_utilization =
          (iter.bytes / iter.seconds) / (d.dram_gbps * 1e9);
      t.compute_utilization =
          (iter.flops / iter.seconds) / (d.peak_gflops * 1e9);
      // ILU(0) factorizes on the device (cuSPARSE csrilu02); ILU(K)
      // factorizes on the host CPU (the paper uses SuperLU there).
      t.factorization_s = config.kind == PrecondKind::kIlu0
                              ? cm.ilu0_factorization(lower_struct,
                                                      v.elimination_ops)
                                    .seconds
                              : host_factor.seconds;
      t.sparsify_s = sparsify_cost.seconds;
      v.device[d.name] = t;
    }
    return v;
  };

  // Baseline. For ILU(K), the paper selects the best-converging K for the
  // non-sparsified solver and reuses it for SPCG (§3.3).
  index_t fill_level = 0;
  if (config.kind == PrecondKind::kIluK) {
    std::optional<VariantRecord> best;
    for (const index_t k : config.k_candidates) {
      VariantRecord run = evaluate(a, "baseline", 0.0, 0, k);
      const bool better = [&] {
        if (!best) return true;
        if (run.converged != best->converged) return run.converged;
        if (run.converged) return run.iterations < best->iterations;
        return run.final_residual < best->final_residual;
      }();
      if (better) {
        best = std::move(run);
        fill_level = k;
      }
    }
    rec.baseline = std::move(*best);
    rec.chosen_k = fill_level;
  } else {
    rec.baseline = evaluate(a, "baseline", 0.0, 0, 0);
  }

  // Fixed-ratio variants (a single split pass each).
  for (const double t : config.ratios) {
    const SparsifySplit<double> split = sparsify_by_ratio(a, t);
    std::ostringstream label;
    label << t << "%";
    if (validate)
      lint_or_throw(analysis::analyze_sparsify(a, split),
                    g.spec.name + ": split " + label.str());
    rec.ratios.push_back(
        evaluate(split.a_hat, label.str(), t, 1, fill_level));
  }

  // Algorithm 2: candidates in decreasing aggressiveness (paper order).
  SparsifyOptions sopt;
  sopt.ratios.assign(config.ratios.rbegin(), config.ratios.rend());
  sopt.tau = config.tau;
  sopt.omega_percent = config.omega_percent;
  sopt.estimator = config.estimator;
  const SparsifyDecision<double> decision = wavefront_aware_sparsify(a, sopt);
  rec.spcg_outcome = to_string(decision.outcome);
  rec.spcg_reduction_percent = decision.reduction_percent;
  const auto it = std::find(config.ratios.begin(), config.ratios.end(),
                            decision.chosen.ratio_percent);
  SPCG_CHECK_MSG(it != config.ratios.end(),
                 "Algorithm 2 chose ratio " << decision.chosen.ratio_percent
                                            << " outside the config list");
  rec.spcg_choice = static_cast<int>(it - config.ratios.begin());
  rec.spcg_sparsify_model_s =
      host.sparsify_host(rec.nnz, static_cast<int>(decision.steps.size()))
          .seconds;
  return rec;
}

// --- cache serialization ----------------------------------------------------

namespace {

void save_cache(const std::string& path, const RunConfig& config,
                const std::vector<MatrixRecord>& records) {
  std::filesystem::create_directories(cache_dir());
  std::ofstream out(path);
  if (!out.good()) return;  // cache is best-effort
  out.precision(17);
  out << kCacheMagic << '\t' << config.fingerprint() << '\n';
  auto put_variant = [&](const VariantRecord& v) {
    out << "V\t" << v.label << '\t' << v.ratio_percent << '\t' << v.converged
        << '\t' << v.iterations << '\t' << v.final_residual << '\t'
        << v.matrix_wavefronts << '\t' << v.factor_nnz << '\t'
        << v.factor_wavefronts << '\t' << v.elimination_ops;
    for (const DeviceSpec& d : model_devices()) {
      const DeviceTimes& t = v.device.at(d.name);
      out << '\t' << t.per_iteration_s << '\t' << t.factorization_s << '\t'
          << t.sparsify_s << '\t' << t.dram_utilization << '\t'
          << t.compute_utilization;
    }
    out << '\n';
  };
  for (const MatrixRecord& r : records) {
    out << "M\t" << r.spec.id << '\t' << r.spec.name << '\t' << r.spec.category
        << '\t' << r.n << '\t' << r.nnz << '\t' << r.wavefronts << '\t'
        << r.chosen_k << '\t' << r.spcg_choice << '\t' << r.spcg_outcome
        << '\t' << r.spcg_reduction_percent << '\t'
        << r.spcg_sparsify_model_s << '\n';
    put_variant(r.baseline);
    for (const VariantRecord& v : r.ratios) put_variant(v);
  }
}

std::optional<std::vector<MatrixRecord>> load_cache(const std::string& path,
                                                    const RunConfig& config) {
  std::ifstream in(path);
  if (!in.good()) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  {
    std::istringstream header(line);
    std::string magic_a, magic_b, fp;
    header >> magic_a >> magic_b >> fp;
    if (magic_a + " " + magic_b != kCacheMagic ||
        fp != config.fingerprint())
      return std::nullopt;
  }
  std::vector<MatrixRecord> records;
  auto parse_variant = [&](const std::string& l,
                           VariantRecord& v) -> bool {
    std::istringstream is(l);
    std::string tag;
    std::getline(is, tag, '\t');
    if (tag != "V") return false;
    std::getline(is, v.label, '\t');
    std::string field;
    auto next_double = [&](double& d) {
      std::getline(is, field, '\t');
      d = std::stod(field);
    };
    auto next_ll = [&](auto& x) {
      std::getline(is, field, '\t');
      x = static_cast<std::decay_t<decltype(x)>>(std::stoll(field));
    };
    next_double(v.ratio_percent);
    int conv = 0;
    next_ll(conv);
    v.converged = conv != 0;
    next_ll(v.iterations);
    next_double(v.final_residual);
    next_ll(v.matrix_wavefronts);
    next_ll(v.factor_nnz);
    next_ll(v.factor_wavefronts);
    std::getline(is, field, '\t');
    v.elimination_ops = std::stoull(field);
    for (const DeviceSpec& d : model_devices()) {
      DeviceTimes t;
      next_double(t.per_iteration_s);
      next_double(t.factorization_s);
      next_double(t.sparsify_s);
      next_double(t.dram_utilization);
      next_double(t.compute_utilization);
      v.device[d.name] = t;
    }
    return true;
  };

  const std::size_t variants_per_matrix = 1 + config.ratios.size();
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string tag, field;
    std::getline(is, tag, '\t');
    if (tag != "M") return std::nullopt;
    MatrixRecord r;
    std::getline(is, field, '\t');
    r.spec.id = static_cast<index_t>(std::stol(field));
    std::getline(is, r.spec.name, '\t');
    std::getline(is, r.spec.category, '\t');
    auto next_long = [&](auto& x) {
      std::getline(is, field, '\t');
      x = static_cast<std::decay_t<decltype(x)>>(std::stol(field));
    };
    next_long(r.n);
    next_long(r.nnz);
    next_long(r.wavefronts);
    next_long(r.chosen_k);
    next_long(r.spcg_choice);
    std::getline(is, r.spcg_outcome, '\t');
    std::getline(is, field, '\t');
    r.spcg_reduction_percent = std::stod(field);
    std::getline(is, field, '\t');
    r.spcg_sparsify_model_s = std::stod(field);
    for (std::size_t v = 0; v < variants_per_matrix; ++v) {
      if (!std::getline(in, line)) return std::nullopt;
      VariantRecord var;
      if (!parse_variant(line, var)) return std::nullopt;
      if (v == 0)
        r.baseline = std::move(var);
      else
        r.ratios.push_back(std::move(var));
    }
    records.push_back(std::move(r));
  }
  if (records.empty()) return std::nullopt;
  return records;
}

}  // namespace

std::vector<MatrixRecord> run_suite(const RunConfig& config,
                                    std::ostream* progress) {
  const std::string path =
      cache_dir() + "/" + config.fingerprint() + ".tsv";
  if (config.use_cache) {
    if (auto cached = load_cache(path, config)) {
      if (progress)
        *progress << "[runner] loaded " << cached->size()
                  << " records from cache " << path << "\n";
      return *cached;
    }
  }
  const index_t count = config.max_matrices < 0
                            ? suite_size()
                            : std::min<index_t>(config.max_matrices,
                                                suite_size());
  std::vector<MatrixRecord> records;
  records.reserve(static_cast<std::size_t>(count));
  for (index_t id = 0; id < count; ++id) {
    const GeneratedMatrix g = generate_suite_matrix(id);
    if (progress)
      *progress << "[runner] (" << (id + 1) << "/" << count << ") "
                << g.spec.name << " n=" << g.a.rows << " nnz=" << g.a.nnz()
                << std::endl;
    records.push_back(run_matrix(g, config));
  }
  if (config.use_cache) save_cache(path, config, records);
  return records;
}

SpeedupSummary summarize_speedups(const std::vector<double>& speedups) {
  SpeedupSummary s;
  s.count = speedups.size();
  if (speedups.empty()) return s;
  s.gmean = geometric_mean(speedups);
  s.pct_accelerated = fraction_above(speedups, 1.0);
  s.min = *std::min_element(speedups.begin(), speedups.end());
  s.max = *std::max_element(speedups.begin(), speedups.end());
  return s;
}

RunConfig apply_env_overrides(RunConfig config) {
  if (const char* fast = std::getenv("SPCG_FAST");
      fast && std::string(fast) != "0") {
    config.max_matrices = 24;
  }
  if (const char* nc = std::getenv("SPCG_NO_CACHE");
      nc && std::string(nc) != "0") {
    config.use_cache = false;
  }
  return config;
}

int oracle_per_iteration_choice(const MatrixRecord& r,
                                const std::string& device_name) {
  int best = -1;
  double best_time = 0.0;
  for (std::size_t i = 0; i < r.ratios.size(); ++i) {
    const double t = r.ratios[i].device.at(device_name).per_iteration_s;
    if (best < 0 || t < best_time) {
      best = static_cast<int>(i);
      best_time = t;
    }
  }
  return best;
}

int oracle_end_to_end_choice(const MatrixRecord& r,
                             const std::string& device_name) {
  int best = -1;
  double best_time = 0.0;
  for (std::size_t i = 0; i < r.ratios.size(); ++i) {
    if (!r.ratios[i].converged) continue;
    const double t = r.ratios[i].device.at(device_name).end_to_end_s(
        r.ratios[i].iterations);
    if (best < 0 || t < best_time) {
      best = static_cast<int>(i);
      best_time = t;
    }
  }
  return best;
}

}  // namespace spcg::bench
