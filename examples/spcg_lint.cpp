// spcg-lint: structural linter CLI for SPCG inputs and factors.
//
// Usage:
//   spcg-lint <matrix.mtx> [<matrix.mtx>...] [options]
//   spcg-lint --suite <id> [--suite <id>...] [options]
//   spcg-lint --suite-all [options]
//   spcg-lint --list-rules
//
// Options:
//   --factor ilu0|iluk|ilut  factorize and lint the factor's L and U and
//                            their level schedules (static race check)
//   --k K                    fill level for --factor iluk (default 1)
//   --race                   also run the instrumented race-detecting
//                            executor over both schedules
//   --rules <csv>            only count/print findings whose rule id matches
//                            one of the comma-separated ids or prefixes
//                            (e.g. --rules csr.,schedule.race); everything
//                            else is discarded and does not affect the exit
//                            code
//   --strict                 treat warnings as errors for the exit code
//   --sym-tol T              numeric symmetry tolerance (default 1e-10*|A|)
//   --max-diags N            findings printed per rule (default 8, 0 = all)
//   --quiet                  print only the summary line per object
//
// Exit-code contract (stable; CI and corpus scripts rely on it):
//   0  every input clean — no errors (and no warnings under --strict)
//      after the --rules filter
//   1  at least one lint error across the inputs (or a warning with
//      --strict); all inputs are always processed before exiting
//   2  usage error, unreadable/unparsable input, or factorization failure
#include <iostream>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "analysis/race_detector.h"
#include "gen/suite.h"
#include "precond/ilu.h"
#include "precond/ilut.h"
#include "sparse/io.h"
#include "sparse/norms.h"
#include "support/rng.h"

namespace {

using namespace spcg;

struct Options {
  std::vector<std::string> paths;     // .mtx inputs
  std::vector<index_t> suite_ids;     // --suite (repeatable)
  bool suite_all = false;             // --suite-all
  std::string factor;                 // "", "ilu0", "iluk", "ilut"
  index_t k = 1;
  bool race = false;
  bool strict = false;
  bool quiet = false;
  double sym_tol = -1.0;  // <0: derive from |A|
  std::size_t max_diags = 8;
  std::vector<std::string> rule_filter;  // empty = keep everything
};

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (<matrix.mtx>... | --suite <id>... | --suite-all |"
               " --list-rules)\n"
               "  [--factor ilu0|iluk|ilut] [--k K] [--race] [--strict]\n"
               "  [--rules id[,id...]] [--sym-tol T] [--max-diags N]"
               " [--quiet]\n";
}

/// Keep only findings whose rule id matches a filter entry exactly or by
/// prefix (so "csr." selects the whole family). Empty filter keeps all.
analysis::Diagnostics filter_rules(const analysis::Diagnostics& d,
                                   const std::vector<std::string>& filters) {
  if (filters.empty()) return d;
  analysis::Diagnostics out;
  for (const analysis::Diagnostic& item : d.items()) {
    for (const std::string& f : filters) {
      if (item.rule.compare(0, f.size(), f) == 0) {
        out.add(item);
        break;
      }
    }
  }
  return out;
}

/// Print a report (honoring --quiet) and fold it into the running tally.
class Tally {
 public:
  explicit Tally(const Options& opt)
      : strict_(opt.strict), quiet_(opt.quiet), max_diags_(opt.max_diags),
        filter_(opt.rule_filter) {}

  void take(const std::string& what, const analysis::Diagnostics& raw) {
    const analysis::Diagnostics d = filter_rules(raw, filter_);
    errors_ += d.count(analysis::Severity::kError);
    warnings_ += d.count(analysis::Severity::kWarning);
    if (!quiet_ && !d.empty()) std::cout << d.to_string(max_diags_);
    std::cout << what << ": " << d.count(analysis::Severity::kError)
              << " error(s), " << d.count(analysis::Severity::kWarning)
              << " warning(s)\n";
  }

  [[nodiscard]] int exit_code() const {
    if (errors_ > 0) return 1;
    if (strict_ && warnings_ > 0) return 1;
    return 0;
  }

 private:
  bool strict_;
  bool quiet_;
  std::size_t max_diags_;
  std::vector<std::string> filter_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
};

void lint_factor(const Csr<double>& a, const Options& opt, Tally& tally) {
  TriangularFactors<double> f;
  if (opt.factor == "ilu0") {
    f = ilu0_factors(a);
  } else if (opt.factor == "iluk") {
    f = iluk_factors(a, opt.k);
  } else if (opt.factor == "ilut") {
    f = ilut(a);
  } else {
    throw Error("unknown --factor '" + opt.factor + "'");
  }
  analysis::LintOptions lopt;
  lopt.max_per_rule = opt.max_diags;
  tally.take("L",
             analysis::analyze_triangular(f.l, Triangle::kLower, lopt, "L"));
  tally.take("U",
             analysis::analyze_triangular(f.u, Triangle::kUpper, lopt, "U"));

  const LevelSchedule ls = level_schedule(f.l, Triangle::kLower);
  const LevelSchedule us = level_schedule(f.u, Triangle::kUpper);
  tally.take("schedule(L)",
             analysis::verify_level_schedule(f.l, ls, Triangle::kLower,
                                             "schedule(L)", opt.max_diags));
  tally.take("schedule(U)",
             analysis::verify_level_schedule(f.u, us, Triangle::kUpper,
                                             "schedule(U)", opt.max_diags));

  if (opt.race) {
    std::vector<double> b(static_cast<std::size_t>(a.rows));
    Rng rng(12345);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    std::vector<double> x(b.size()), y(b.size());
    const analysis::RaceReport rl = analysis::sptrsv_lower_levels_checked(
        f, ls, std::span<const double>(b), std::span<double>(y));
    const analysis::RaceReport ru = analysis::sptrsv_upper_levels_checked(
        f, us, std::span<const double>(y), std::span<double>(x));
    tally.take("race(L) [" + std::to_string(rl.reads) + " reads, " +
                   std::to_string(rl.writes) + " writes, " +
                   std::to_string(rl.levels) + " levels]",
               rl.to_diagnostics("race(L)"));
    tally.take("race(U) [" + std::to_string(ru.reads) + " reads, " +
                   std::to_string(ru.writes) + " writes, " +
                   std::to_string(ru.levels) + " levels]",
               ru.to_diagnostics("race(U)"));
  }
}

void lint_one(const Csr<double>& a, const std::string& name,
              const Options& opt, Tally& tally) {
  analysis::LintOptions lopt;
  lopt.check_symmetry = true;
  lopt.check_spd = true;
  lopt.symmetry_tol = opt.sym_tol >= 0.0
                          ? opt.sym_tol
                          : 1e-10 * static_cast<double>(norm_inf(a));
  lopt.max_per_rule = opt.max_diags;
  tally.take(name, analysis::analyze(a, lopt, name));
  if (!opt.factor.empty()) lint_factor(a, opt, tally);
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list-rules") {
      for (const analysis::RuleInfo& r : analysis::rule_catalog())
        std::cout << r.id << "\t" << r.description << "\n";
      return 0;
    } else if (arg == "--rules") {
      for (std::string& f : split_csv(next()))
        opt.rule_filter.push_back(std::move(f));
    } else if (arg == "--suite") {
      opt.suite_ids.push_back(static_cast<index_t>(std::atoi(next())));
    } else if (arg == "--suite-all") {
      opt.suite_all = true;
    } else if (arg == "--factor") {
      opt.factor = next();
    } else if (arg == "--k") {
      opt.k = static_cast<index_t>(std::atoi(next()));
    } else if (arg == "--race") {
      opt.race = true;
    } else if (arg == "--strict") {
      opt.strict = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--sym-tol") {
      opt.sym_tol = std::atof(next());
    } else if (arg == "--max-diags") {
      opt.max_diags = static_cast<std::size_t>(std::atoi(next()));
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
      return 2;
    } else {
      opt.paths.push_back(arg);
    }
  }
  const int sources = (opt.paths.empty() ? 0 : 1) +
                      (opt.suite_ids.empty() ? 0 : 1) + (opt.suite_all ? 1 : 0);
  if (sources != 1) {
    usage(argv[0]);
    return 2;
  }

  Tally tally(opt);
  try {
    if (opt.suite_all) {
      for (index_t id = 0; id < suite_size(); ++id) {
        const GeneratedMatrix g = generate_suite_matrix(id);
        lint_one(g.a, g.spec.name, opt, tally);
      }
    } else if (!opt.suite_ids.empty()) {
      for (const index_t id : opt.suite_ids) {
        const GeneratedMatrix g = generate_suite_matrix(id);
        lint_one(g.a, g.spec.name, opt, tally);
      }
    } else {
      for (const std::string& path : opt.paths)
        lint_one(read_matrix_market(path), path, opt, tally);
    }
  } catch (const spcg::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return tally.exit_code();
}
