// spcg_perfbench — the workload binary of the repository benchmark.
//
//   spcg_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload for S seconds and prints raw measurements as JSON lines;
// run.py (same directory) builds this binary, runs it and derives the
// benchmark's metrics from the lines. Every layer is measured from outside
// the library, which is linked unchanged:
//
//   * The untraced run (--trace 0) calls the library's entry points the way
//     a user would, with library defaults and one stated tolerance
//     (absolute 1e-10, ||b|| = 1).
//   * The traced run (--trace 1) repeats the untraced loop for the first half
//     of the time (the reference for the tracing overhead), then re-composes
//     the same pipeline from each layer's public functions for the second
//     half. It records in-memory spans around those calls, wraps the
//     preconditioner handed to pcg() in a timing decorator, and prices the
//     SpMVs inside pcg() by replaying spmv() on the same operands.
//   * Layers a workload never runs (the service queue on a serial workload,
//     the transport on a non-distributed one) are measured by one traced
//     probe operation of the owning subsystem on the workload's own matrix,
//     so every layer metric is a measurement. Probe ops are labelled.
//
// Every solution any phase produces is checked by an independent oracle:
// ||b - A x|| recomputed here must be at most 10x the tolerance.
//
// Output records, one JSON object per line. Everything but `host` and
// `matrix` is kept in memory and written when the run ends.
//   host    build and machine provenance
//   matrix  rows, nnz and pattern/values hashes of a generated matrix
//   op      one timed operation: id, phase (setup, op or warmup; prefixed
//           "probe-" for probe ops), traced, seconds
//   check   one checked solve of an op: iterations, true residual, ok
//   span    timed interval of a traced op: id, parent, name, start, end
//   part    derived duration of a traced op: id, parent, name, seconds,
//           calls (replay-priced SpMVs, service- or transport-reported waits)
//   value   a number attached to an op (op -1: the whole run)
//   end     peak resident set size of the process
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <numbers>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/alloc_audit.h"
#include "core/spcg.h"
#include "dist/dist_pcg.h"
#include "gen/generators.h"
#include "precond/preconditioner.h"
#include "runtime/fingerprint.h"
#include "runtime/solve_service.h"
#include "solver/pcg.h"
#include "sparse/ops.h"
#include "transient/refactorize.h"
#include "transient/step_policy.h"
#include "transient/transient.h"

namespace {

using spcg::Csr;
using spcg::index_t;
using Vec = std::vector<double>;
using CVec = std::span<const double>;

constexpr double kTolerance = 1e-10;   // absolute, every workload
constexpr double kOracleSlack = 10.0;  // pass: ||b - Ax|| <= 10 x tolerance
constexpr int kServiceWorkers = 2;
constexpr int kServiceClients = 2;
constexpr index_t kDistParts = 4;
// Transient steps solve the backward-Euler system A_t = I/dt + D_t K D_t
// with a drifting operator, D_t = diag(1 + amp sin(phase_i + 2 pi t /
// period)): values change every step, the pattern never does, and A_t stays
// SPD.
constexpr double kInverseDt = 1.0;
constexpr double kDriftAmplitude = 0.02;
constexpr double kDriftPeriod = 40.0;

const auto kStart = std::chrono::steady_clock::now();

// Replayed calls whose result is otherwise unused write here, so the
// compiler cannot drop them.
volatile std::uint64_t g_sink = 0;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

// ---------------------------------------------------------------- output --

/// One JSON object on one line.
class Line {
 public:
  explicit Line(std::string_view kind) { str("kind", kind); }
  Line& num(std::string_view k, double v) {
    if (!std::isfinite(v)) return raw(k, "null");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, buf);
  }
  Line& integer(std::string_view k, std::int64_t v) {
    return raw(k, std::to_string(v));
  }
  Line& boolean(std::string_view k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Line& str(std::string_view k, std::string_view v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return raw(k, q + "\"");
  }
  void print() const { std::cout << "{" << body_ << "}\n"; }

 private:
  Line& raw(std::string_view k, std::string_view v) {
    if (!body_.empty()) body_ += ",";
    body_.append("\"").append(k).append("\":").append(v);
    return *this;
  }
  std::string body_;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// -------------------------------------------------------------- recorder --

/// In-memory store of the run's records. Thread-safe: service clients
/// record concurrently.
class Recorder {
 public:
  static constexpr int kNone = -1;

  int next_op() {
    const std::lock_guard<std::mutex> lock(mu_);
    return next_op_++;
  }
  int span_begin(int op, int parent, std::string_view name) {
    const double t = now_s();
    return add({Kind::kSpan, op, parent, std::string(name), t, t});
  }
  void span_end(int id) {
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mu_);
    recs_[static_cast<std::size_t>(id)].end = t;
  }
  /// A span whose interval was measured by the caller.
  int span(int op, int parent, std::string_view name, double start,
           double end) {
    return add({Kind::kSpan, op, parent, std::string(name), start, end});
  }
  int part(int op, int parent, std::string_view name, double seconds,
           std::int64_t calls = 1) {
    return add({Kind::kPart, op, parent, std::string(name), 0, 0, seconds,
                calls});
  }
  void value(int op, std::string_view name, double v) {
    add({Kind::kValue, op, kNone, std::string(name), 0, 0, v});
  }
  void op(int op, std::string_view phase, bool traced, double seconds) {
    const std::lock_guard<std::mutex> lock(mu_);
    recs_.push_back({Kind::kOp, op, kNone,
                     (probing_ ? "probe-" : "") + std::string(phase), 0, 0,
                     seconds, traced ? 1 : 0});
  }
  /// From here on, op phases are prefixed "probe-" (see file comment).
  void start_probes() {
    const std::lock_guard<std::mutex> lock(mu_);
    probing_ = true;
  }
  void check(int op, std::string_view matrix, std::int32_t iterations,
             double residual, bool ok) {
    add({Kind::kCheck, op, kNone, std::string(matrix), 0, 0, residual,
         iterations, ok});
  }

  /// Total duration of the spans named `name` (used to price shares).
  [[nodiscard]] double span_seconds(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (const Rec& r : recs_)
      if (r.kind == Kind::kSpan && r.name == name) total += r.end - r.start;
    return total;
  }

  void print() const {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      const Rec& r = recs_[i];
      const auto id = static_cast<std::int64_t>(i);
      switch (r.kind) {
        case Kind::kSpan:
          Line("span").integer("op", r.op).integer("id", id)
              .integer("parent", r.parent).str("name", r.name)
              .num("start", r.start).num("end", r.end).print();
          break;
        case Kind::kPart:
          Line("part").integer("op", r.op).integer("id", id)
              .integer("parent", r.parent).str("name", r.name)
              .num("seconds", r.x).integer("calls", r.n).print();
          break;
        case Kind::kValue:
          Line("value").integer("op", r.op).str("name", r.name)
              .num("value", r.x).print();
          break;
        case Kind::kOp:
          Line("op").integer("op", r.op).str("phase", r.name)
              .boolean("traced", r.n != 0).num("seconds", r.x).print();
          break;
        case Kind::kCheck:
          Line("check").integer("op", r.op).str("matrix", r.name)
              .integer("iterations", r.n).num("residual", r.x)
              .boolean("ok", r.ok).print();
          break;
      }
    }
  }

 private:
  enum class Kind { kSpan, kPart, kValue, kOp, kCheck };
  struct Rec {
    Kind kind;
    int op;
    int parent;
    std::string name;
    double start = 0.0, end = 0.0;
    double x = 0.0;
    std::int64_t n = 1;
    bool ok = true;
  };
  int add(Rec r) {
    const std::lock_guard<std::mutex> lock(mu_);
    recs_.push_back(std::move(r));
    return static_cast<int>(recs_.size()) - 1;
  }

  mutable std::mutex mu_;
  std::vector<Rec> recs_;
  int next_op_ = 0;
  bool probing_ = false;
};

/// RAII span on the calling thread.
class Scope {
 public:
  Scope(Recorder& rec, int op, int parent, std::string_view name)
      : rec_(rec), id_(rec.span_begin(op, parent, name)) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void close() {
    if (open_) rec_.span_end(id_);
    open_ = false;
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  Recorder& rec_;
  int id_;
  bool open_ = true;
};

/// Timing decorator around the preconditioner handed to pcg(): one
/// "sptrsv.apply" span (lower plus upper triangular solve) per call.
class TimedPreconditioner final : public spcg::Preconditioner<double> {
 public:
  TimedPreconditioner(const spcg::Preconditioner<double>& inner,
                      Recorder& rec, int op, int parent)
      : inner_(inner), rec_(rec), op_(op), parent_(parent) {}
  void apply(CVec r, std::span<double> z) const override {
    const Scope s(rec_, op_, parent_, "sptrsv.apply");
    inner_.apply(r, z);
  }
  [[nodiscard]] index_t rows() const override { return inner_.rows(); }

 private:
  const spcg::Preconditioner<double>& inner_;
  Recorder& rec_;
  int op_;
  int parent_;
};

// --------------------------------------------------------------- helpers --

double median(std::vector<double> v) {
  SPCG_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Median wall seconds of `reps` calls of `fn`.
double time_median(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

constexpr int kMinOps = 5;  // per timed segment, however long an op takes

/// Calls `op` back to back until `seconds` have passed (at least kMinOps
/// times); returns the calls completed per second.
double repeat_for(double seconds, const std::function<void()>& op) {
  const double t0 = now_s();
  int n = 0;
  for (; n < kMinOps || now_s() < t0 + seconds; ++n) op();
  return n / (now_s() - t0);
}

/// The correctness oracle: ||b - A x||_2 from a plain CSR loop, independent
/// of the library's kernels.
double true_residual(const Csr<double>& a, CVec b, CVec x) {
  if (x.size() != static_cast<std::size_t>(a.rows)) return INFINITY;
  double acc = 0.0;
  for (index_t i = 0; i < a.rows; ++i) {
    double ax = 0.0;
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p)
      ax += a.values[static_cast<std::size_t>(p)] *
            x[static_cast<std::size_t>(a.colind[static_cast<std::size_t>(p)])];
    const double d = b[static_cast<std::size_t>(i)] - ax;
    acc += d * d;
  }
  return std::sqrt(acc);
}

void check(Recorder& rec, int op, std::string_view matrix,
           const Csr<double>& a, CVec b, const spcg::SolveResult<double>& r,
           bool delivered = true) {
  const double res = true_residual(a, b, r.x);
  const bool ok = delivered && r.converged() && std::isfinite(res) &&
                  res <= kOracleSlack * kTolerance;
  rec.check(op, matrix, r.iterations, res, ok);
}

/// Computed bytes of one CSR sweep (SpMV or triangular solve): value and
/// column index per nonzero, row pointer, one input read and one output
/// write per row. Gathers of x are not counted.
double sweep_bytes(const Csr<double>& m) {
  return 12.0 * static_cast<double>(m.nnz()) +
         20.0 * static_cast<double>(m.rows) + 4.0;
}

/// Median per-call seconds of spmv() on A and a vector of its size: the
/// replay that prices the SpMVs pcg() makes internally.
double spmv_call_seconds(const Csr<double>& a) {
  const Vec x(static_cast<std::size_t>(a.cols), 1.0);
  Vec y(static_cast<std::size_t>(a.rows));
  return time_median(9, [&] { spcg::spmv(a, CVec(x), std::span<double>(y)); });
}

struct Problem {
  std::string name;
  std::shared_ptr<const Csr<double>> a;
  Vec b;
  spcg::SpcgOptions opt;
  double spmv_call_s = 0.0;  // priced once per traced run
};

Problem make_problem(std::string name, Csr<double> a, std::uint64_t rhs_seed) {
  Problem p{std::move(name), std::make_shared<const Csr<double>>(std::move(a)),
            {}, {}};
  p.opt.pcg.tolerance = kTolerance;
  p.b = spcg::make_rhs(*p.a, rhs_seed);
  const spcg::MatrixFingerprint fp = spcg::fingerprint(*p.a);
  Line("matrix").str("name", p.name).integer("rows", p.a->rows)
      .integer("nnz", p.a->nnz()).str("pattern_hash", hex(fp.pattern_hash))
      .str("values_hash", hex(fp.values_hash)).print();
  return p;
}

// ------------------------------------------------ traced layer pipeline --

/// Setup re-composed from the layers' public functions in spcg_setup's
/// order: Algorithm 2 sparsify, incomplete factorization, split + level
/// inspection. Records the setup's structural counts on `op`.
spcg::SpcgSetup<double> traced_setup(const Csr<double>& a,
                                     const spcg::SpcgOptions& opt,
                                     Recorder& rec, int op, int parent) {
  spcg::SpcgSetup<double> s;
  {
    const Scope span(rec, op, parent, "core.sparsify");
    s.decision = spcg::wavefront_aware_sparsify(a, opt.sparsify);
  }
  const Csr<double>& a_hat = s.decision->chosen.a_hat;
  s.matrix_wavefronts = s.decision->wavefronts_chosen;
  {
    const Scope span(rec, op, parent, "precond.factorize");
    s.factorization =
        opt.preconditioner == spcg::PrecondKind::kIlu0
            ? spcg::ilu0(a_hat, opt.ilu)
            : spcg::iluk(a_hat, opt.fill_level, opt.ilu, opt.max_row_fill);
    s.factor_nnz = s.factorization.lu.nnz();
  }
  {
    const Scope span(rec, op, parent, "wavefront.inspect");
    s.factors = spcg::split_lu(s.factorization);
    s.l_schedule = spcg::level_schedule(s.factors.l, spcg::Triangle::kLower);
    s.u_schedule = spcg::level_schedule(s.factors.u, spcg::Triangle::kUpper);
    s.wavefronts_factor = s.l_schedule.num_levels();
  }
  rec.value(op, "core.kept_nnz", static_cast<double>(a_hat.nnz()));
  rec.value(op, "core.input_nnz", static_cast<double>(a.nnz()));
  rec.value(op, "precond.factor_nnz", static_cast<double>(s.factor_nnz));
  rec.value(op, "wavefront.levels", static_cast<double>(s.wavefronts_factor));
  return s;
}

/// Computed bytes the triangular solves and SpMVs of one solve move.
void record_sweep_bytes(Recorder& rec, int op,
                        const spcg::SpcgSetup<double>& s,
                        const Csr<double>& a, std::int64_t applies,
                        std::int64_t spmvs) {
  rec.value(op, "sptrsv.bytes", static_cast<double>(applies) *
                                    (sweep_bytes(s.factors.l) +
                                     sweep_bytes(s.factors.u)));
  rec.value(op, "sparse.spmv_bytes",
            static_cast<double>(spmvs) * sweep_bytes(a));
}

/// pcg() with preconditioner `m` (built from setup `s`) under the timing
/// decorator. The SpMVs pcg() makes internally (one per iteration, one for
/// the final true residual, one more on a warm start) become a
/// "sparse.spmv" part priced at `spmv_call_s` each.
spcg::SolveResult<double> traced_pcg(const Csr<double>& a, CVec b,
                                     const spcg::Preconditioner<double>& m,
                                     const spcg::SpcgSetup<double>& s,
                                     const spcg::PcgOptions& popt, CVec x0,
                                     spcg::PcgWorkspace<double>* ws,
                                     double spmv_call_s, Recorder& rec,
                                     int op, int parent) {
  Scope span(rec, op, parent, "solver.pcg");
  const TimedPreconditioner timed(m, rec, op, span.id());
  spcg::SolveResult<double> r = spcg::pcg(a, b, timed, popt, x0, ws);
  span.close();
  const std::int64_t applies = r.iterations + 1;
  const std::int64_t spmvs = applies + (x0.empty() ? 0 : 1);
  rec.part(op, span.id(), "sparse.spmv",
           spmv_call_s * static_cast<double>(spmvs), spmvs);
  record_sweep_bytes(rec, op, s, a, applies, spmvs);
  return r;
}

/// sptrsv.level_apply_s: median seconds of one ILU apply through the
/// level-scheduled executor (OpenMP, default thread count) on `s`'s factors.
/// Time-boxed: that executor has shown second-long outliers.
void record_level_apply(Recorder& rec, const spcg::SpcgSetup<double>& s) {
  const spcg::IluApplier<double> m(s.factors, s.l_schedule, s.u_schedule,
                                   spcg::TrsvExec::kLevelScheduled);
  const Vec r(static_cast<std::size_t>(s.factors.l.rows), 1.0);
  Vec z(r.size());
  std::vector<double> t;
  const double deadline = now_s() + 2.0;
  for (int i = 0; i < 9 && (i < 2 || now_s() < deadline); ++i) {
    const double t0 = now_s();
    m.apply(CVec(r), std::span<double>(z));
    t.push_back(now_s() - t0);
  }
  rec.value(Recorder::kNone, "sptrsv.level_apply_s", median(std::move(t)));
}

// ------------------------------------------------------------ subsystems --
// One rig per subsystem. A workload drives its own rig in the timed loop;
// the traced run of every other workload uses the rig for one probe op.

/// Cold matrix-in -> solution-out passes over a list of problems, no cache.
class ColdRig {
 public:
  ColdRig(Recorder& rec, std::vector<Problem>& ps) : rec_(rec), ps_(ps) {}

  void pass(bool traced) {
    const int op = rec_.next_op();
    if (traced) {
      traced_pass(op);
      return;
    }
    double setup = 0.0, total = 0.0;
    for (const Problem& p : ps_) {
      const double t0 = now_s();
      spcg::SpcgSetup<double> s = spcg::spcg_setup(*p.a, p.opt);
      const double t1 = now_s();
      const spcg::IluPreconditioner<double> m(
          std::move(s.factors), std::move(s.l_schedule),
          std::move(s.u_schedule), p.opt.executor);
      const spcg::SolveResult<double> r = spcg::pcg(*p.a, CVec(p.b), m,
                                                    p.opt.pcg);
      const double t2 = now_s();
      setup += t1 - t0;
      total += t2 - t0;
      check(rec_, op, p.name, *p.a, CVec(p.b), r);
    }
    rec_.op(rec_.next_op(), "setup", false, setup);
    rec_.op(op, "op", false, total);
  }

 private:
  void traced_pass(int op) {
    const double t0 = now_s();
    Scope root(rec_, op, Recorder::kNone, "op");
    std::vector<spcg::SolveResult<double>> results;
    for (const Problem& p : ps_) {
      const spcg::SpcgSetup<double> s =
          traced_setup(*p.a, p.opt, rec_, op, root.id());
      const spcg::IluApplier<double> m(s.factors, s.l_schedule, s.u_schedule,
                                       p.opt.executor);
      results.push_back(traced_pcg(*p.a, CVec(p.b), m, s, p.opt.pcg, {},
                                   nullptr, p.spmv_call_s, rec_, op,
                                   root.id()));
    }
    root.close();
    rec_.op(op, "op", true, now_s() - t0);
    for (std::size_t i = 0; i < ps_.size(); ++i)
      check(rec_, op, ps_[i].name, *ps_[i].a, CVec(ps_[i].b), results[i]);
  }

  Recorder& rec_;
  std::vector<Problem>& ps_;
};

/// SolveService with kServiceWorkers workers, driven by kServiceClients
/// closed-loop clients; after cold_start() every request is a cache hit.
class ServiceRig {
 public:
  ServiceRig(Recorder& rec, const Problem& p) : rec_(rec), p_(p) {}

  /// A fresh service answering one cache-missing request. Its setup share
  /// (latency minus the reported PCG time) is recorded as a setup op.
  void cold_start() {
    // Release the previous service and setup first, so peak memory holds
    // one setup however the allocator reuses the freed one.
    setup_.reset();
    svc_.reset();
    svc_ = std::make_unique<spcg::SolveService<double>>(
        spcg::SolveService<double>::Options(kServiceWorkers, 16));
    const Reply r = request(rec_.next_op());
    rec_.op(r.op, "setup", false,
            r.done - r.submit - r.reply.solve_seconds);
    setup_ = r.reply.setup;
    SPCG_CHECK(setup_ != nullptr);
  }

  /// Prices the traced split of a request: the cache-warming setup replayed
  /// through the layers (a traced setup op), fingerprint() replayed on the
  /// request matrix, and a decorated pcg() replay over the service's cached
  /// setup for the apply and SpMV shares of PCG time.
  void price() {
    const int op = rec_.next_op();
    const double t0 = now_s();
    {
      const Scope root(rec_, op, Recorder::kNone, "op");
      (void)traced_setup(*p_.a, p_.opt, rec_, op, root.id());
    }
    rec_.op(op, "setup", true, now_s() - t0);

    const spcg::SpcgSetup<double>& s = setup_->artifacts;
    fingerprint_s_ = time_median(
        5, [&] { g_sink = spcg::fingerprint(*p_.a).combined(); });
    const spcg::IluApplier<double> m(s.factors, s.l_schedule, s.u_schedule,
                                     p_.opt.executor);
    Recorder replay;
    const double spmv_s = spmv_call_seconds(*p_.a);
    const spcg::SolveResult<double> r =
        traced_pcg(*p_.a, CVec(p_.b), m, s, p_.opt.pcg, {}, nullptr, spmv_s,
                   replay, 0, Recorder::kNone);
    const double pcg_s = replay.span_seconds("solver.pcg");
    apply_share_ = replay.span_seconds("sptrsv.apply") / pcg_s;
    spmv_share_ =
        spmv_s * static_cast<double>(r.iterations + 1) / pcg_s;
  }

  /// kServiceClients client threads, each submitting its next request when
  /// the previous reply arrives, until `seconds` pass. Returns replies per
  /// second: the sum over clients of completed requests over busy time.
  double closed_loop(double seconds, bool traced) {
    const double t0 = now_s();
    std::vector<std::thread> clients;
    std::vector<double> rates(kServiceClients, 0.0);
    std::vector<std::exception_ptr> errors(kServiceClients);
    for (int c = 0; c < kServiceClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          int n = 0;
          for (; now_s() < t0 + seconds; ++n)
            finish(request(rec_.next_op()), traced);
          rates[static_cast<std::size_t>(c)] = n / (now_s() - t0);
        } catch (...) {
          errors[static_cast<std::size_t>(c)] = std::current_exception();
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    double rate = 0.0;
    for (const double r : rates) rate += r;
    return rate;
  }

  void probe() {
    cold_start();
    price();
    finish(request(rec_.next_op()), true);
  }

  [[nodiscard]] const spcg::SpcgSetup<double>& setup() const {
    return setup_->artifacts;
  }

 private:
  struct Reply {
    int op;
    double submit, done;
    spcg::ServiceReply<double> reply;
  };

  Reply request(int op) {
    spcg::ServiceRequest<double> req;
    req.a = p_.a;
    req.b = p_.b;
    req.options = p_.opt;
    const double t0 = now_s();
    auto ticket = svc_->submit(std::move(req));
    spcg::ServiceReply<double> reply = ticket.reply.get();
    const double t1 = now_s();
    check(rec_, op, p_.name, *p_.a, CVec(p_.b), reply.solve,
          reply.status == spcg::RequestStatus::kOk);
    return {op, t0, t1, std::move(reply)};
  }

  void finish(const Reply& r, bool traced) {
    const double latency = r.done - r.submit;
    rec_.op(r.op, "op", traced, latency);
    rec_.value(r.op, "runtime.session_overhead_s",
               latency - r.reply.solve_seconds);
    rec_.value(r.op, "runtime.cache_hit", r.reply.setup_cache_hit ? 1.0 : 0.0);
    if (!traced) return;
    const int root = rec_.span(r.op, Recorder::kNone, "op", r.submit, r.done);
    rec_.part(r.op, root, "runtime.queue_wait", r.reply.queue_seconds);
    rec_.part(r.op, root, "runtime.fingerprint", fingerprint_s_);
    const double pcg_s = r.reply.solve_seconds;
    const int pcg = rec_.part(r.op, root, "solver.pcg", pcg_s);
    const std::int64_t calls = r.reply.solve.iterations + 1;
    rec_.part(r.op, pcg, "sptrsv.apply", apply_share_ * pcg_s, calls);
    rec_.part(r.op, pcg, "sparse.spmv", spmv_share_ * pcg_s, calls);
    record_sweep_bytes(rec_, r.op, setup(), *p_.a, calls, calls);
  }

  Recorder& rec_;
  const Problem& p_;
  std::unique_ptr<spcg::SolveService<double>> svc_;
  std::shared_ptr<const spcg::SolverSetup<double>> setup_;
  double fingerprint_s_ = 0.0;
  double apply_share_ = 0.0;
  double spmv_share_ = 0.0;
};

/// Backward-Euler stepping with the problem's matrix as the operator K:
/// every step drifts K's values (pattern fixed), presents A_t in place and
/// solves A_t x = b warm-started from the last step's solution.
class TransientRig {
 public:
  /// `wave_rows`: rows per drift wavelength (the grid's x extent).
  TransientRig(Recorder& rec, const Problem& p, index_t wave_rows)
      : rec_(rec), p_(p), a_(*p.a), wave_rows_(wave_rows) {
    opt_.base = p.opt;
    drift(0);
  }

  /// A fresh TransientSession's first, full-build step on the current
  /// matrix, recorded as a setup op.
  void cold_start() {
    session_.reset();
    const int op = rec_.next_op();
    const double t0 = now_s();
    session_ = std::make_unique<spcg::TransientSession<double>>(a_, opt_);
    const spcg::TransientStepStats& st = session_->step(CVec(p_.b));
    rec_.op(op, "setup", false, now_s() - t0);
    check_step(op, st.status);
    x_ = session_->solution();
  }

  /// Untraced: TransientSession::update_matrix + step. Traced: the same
  /// step re-composed from fingerprint(), refresh_setup_numerics() and a
  /// warm-started pcg().
  void step(bool traced, std::string_view phase = "op") {
    drift(++t_);
    const int op = rec_.next_op();
    if (traced) {
      traced_step(op, phase);
      return;
    }
    const double t0 = now_s();
    session_->update_matrix(a_);
    const spcg::TransientStepStats& st = session_->step(CVec(p_.b));
    rec_.op(op, phase, false, now_s() - t0);
    rec_.value(op, "transient.warm_iterations", st.iterations);
    check_step(op, st.status);
    x_ = session_->solution();
  }

  /// Builds the traced path's own setup (a traced setup op) on the current
  /// matrix; the next traced step warm-starts from the last solution.
  void prepare_traced() {
    const int op = rec_.next_op();
    const double t0 = now_s();
    Scope root(rec_, op, Recorder::kNone, "op");
    setup_ = traced_setup(a_, opt_.base, rec_, op, root.id());
    root.close();
    rec_.op(op, "setup", true, now_s() - t0);
    ws_ = spcg::build_numeric_refresh(setup_, a_);
    applier_.emplace(setup_.factors, setup_.l_schedule, setup_.u_schedule,
                     opt_.base.executor);
    fp_ = spcg::fingerprint(a_);
    if (x_.empty()) x_.assign(static_cast<std::size_t>(a_.rows), 0.0);
    spmv_call_s_ = spmv_call_seconds(a_);
  }

  /// Two traced steps; only the second is warm-started from a solution.
  void probe() {
    prepare_traced();
    step(true, "warmup");
    step(true);
  }

  [[nodiscard]] const spcg::SpcgSetup<double>& setup() const {
    return setup_;
  }

 private:
  void drift(std::int64_t t) {
    const Csr<double>& a0 = *p_.a;
    const double shift = 2.0 * std::numbers::pi * static_cast<double>(t) /
                         kDriftPeriod;
    auto d = [&](index_t i) {
      const double phase = 2.0 * std::numbers::pi *
                           static_cast<double>(i % wave_rows_) /
                           static_cast<double>(wave_rows_);
      return 1.0 + kDriftAmplitude * std::sin(phase + shift);
    };
    for (index_t i = 0; i < a0.rows; ++i) {
      const double di = d(i);
      for (index_t q = a0.rowptr[static_cast<std::size_t>(i)];
           q < a0.rowptr[static_cast<std::size_t>(i) + 1]; ++q) {
        const auto pos = static_cast<std::size_t>(q);
        const index_t j = a0.colind[pos];
        a_.values[pos] =
            di * a0.values[pos] * d(j) + (i == j ? kInverseDt : 0.0);
      }
    }
  }

  void traced_step(int op, std::string_view phase) {
    const double t0 = now_s();
    Scope root(rec_, op, Recorder::kNone, "op");
    {
      // What TransientSession::update_matrix does: hash and classify.
      const Scope update(rec_, op, root.id(), "transient.update");
      spcg::MatrixFingerprint fp;
      {
        const Scope hash(rec_, op, update.id(), "runtime.fingerprint");
        fp = spcg::fingerprint(a_);
      }
      SPCG_CHECK_MSG(fp.pattern_hash == fp_.pattern_hash &&
                         fp.values_hash != fp_.values_hash,
                     "drift must be a values-only change");
      fp_ = fp;
    }
    {
      const Scope refresh(rec_, op, root.id(), "transient.refactorize");
      spcg::refresh_setup_numerics(setup_, a_, opt_.base, ws_);
    }
    pcg_ws_.x = std::move(spare_);
    spcg::SolveResult<double> r = traced_pcg(
        a_, CVec(p_.b), *applier_, setup_,
        spcg::step_solve_options(opt_.policy), CVec(x_), &pcg_ws_,
        spmv_call_s_, rec_, op, root.id());
    root.close();
    rec_.op(op, phase, true, now_s() - t0);
    rec_.value(op, "transient.warm_iterations", r.iterations);
    check(rec_, op, p_.name, a_, CVec(p_.b), r);
    spare_ = std::move(x_);
    x_ = std::move(r.x);
  }

  void check_step(int op, spcg::SolveStatus status) {
    spcg::SolveResult<double> r;
    r.x = session_->solution();
    r.status = status;
    r.iterations = session_->last_step().iterations;
    check(rec_, op, p_.name, a_, CVec(p_.b), r);
  }

  Recorder& rec_;
  const Problem& p_;
  Csr<double> a_;  // the drifting matrix, presented in place every step
  index_t wave_rows_;
  spcg::TransientOptions opt_;
  std::int64_t t_ = 0;
  Vec x_;  // last solution (warm start)

  std::unique_ptr<spcg::TransientSession<double>> session_;

  spcg::SpcgSetup<double> setup_;  // traced path
  spcg::NumericRefreshWorkspace ws_;
  std::optional<spcg::IluApplier<double>> applier_;
  spcg::PcgWorkspace<double> pcg_ws_;
  spcg::MatrixFingerprint fp_;
  Vec spare_;
  double spmv_call_s_ = 0.0;
};

/// Distributed solve with kDistParts thread-ranks over the in-process
/// transport and the communication-reduced body (probe only: on a host with
/// as many cores as ranks its wall time is too noisy for a workload).
class DistRig {
 public:
  DistRig(Recorder& rec, const Problem& p) : rec_(rec), p_(p) {
    dopt_.parts = kDistParts;
    dopt_.body = spcg::DistBody::kCommReduced;
    dopt_.options = p.opt;
  }

  void probe() {
    price();
    solve();
  }

 private:
  /// The setup from the dist and setup layers' public functions (a traced
  /// setup op), then the replays pricing one rank's apply and SpMV (largest
  /// subdomain), and one serial solve of the same system for the parallel
  /// efficiency.
  void price() {
    const int op = rec_.next_op();
    const double t0 = now_s();
    Scope root(rec_, op, Recorder::kNone, "op");
    {
      const Scope span(rec_, op, root.id(), "dist.partition");
      setup_.partition = spcg::make_partition(*p_.a, dopt_.parts,
                                              dopt_.partition);
      setup_.locals = spcg::build_local_systems(*p_.a, setup_.partition);
    }
    {
      const Scope span(rec_, op, root.id(), "dist.subdomain_setup");
      for (const spcg::LocalSystem<double>& loc : setup_.locals)
        setup_.subdomains.push_back(std::make_shared<spcg::SpcgSetup<double>>(
            traced_setup(loc.a_interior, dopt_.options, rec_, op, span.id())));
    }
    root.close();
    rec_.op(op, "setup", true, now_s() - t0);

    for (std::size_t i = 0; i < setup_.locals.size(); ++i)
      if (setup_.locals[i].rows() > setup_.locals[big_].rows()) big_ = i;
    const spcg::LocalSystem<double>& loc = setup_.locals[big_];
    const spcg::SpcgSetup<double>& s = *setup_.subdomains[big_];
    const spcg::IluApplier<double> m(s.factors, s.l_schedule, s.u_schedule,
                                     dopt_.options.executor);
    const Vec r(static_cast<std::size_t>(loc.rows()), 1.0);
    Vec z(r.size()), zb(r.size());
    const Vec h(static_cast<std::size_t>(loc.halo_size()), 1.0);
    apply_s_ = time_median(9, [&] { m.apply(CVec(r), std::span<double>(z)); });
    // Interior plus boundary block: the rank-local SpMV.
    spmv_s_ = time_median(9, [&] {
      spcg::spmv(loc.a_interior, CVec(r), std::span<double>(z));
      spcg::spmv(loc.a_boundary, CVec(h), std::span<double>(zb));
    });

    // The second of two serial solves, so first-touch costs are excluded.
    const spcg::SolverSession<double> serial(*p_.a, p_.opt);
    for (int i = 0; i < 2; ++i) {
      const double t1 = now_s();
      const spcg::SessionSolveResult<double> sr = serial.solve(p_.b);
      serial_solve_s_ = now_s() - t1;
      check(rec_, op, p_.name, *p_.a, CVec(p_.b), sr.solve);
    }
  }

  void solve() {
    const int op = rec_.next_op();
    const double t0 = now_s();
    Scope root(rec_, op, Recorder::kNone, "op");
    Scope pcg(rec_, op, root.id(), "solver.pcg");
    const spcg::DistSolveResult<double> r =
        spcg::dist_pcg_solve(CVec(p_.b), setup_, dopt_);
    pcg.close();
    root.close();
    const double seconds = now_s() - t0;
    rec_.op(op, "op", true, seconds);
    // Comm-reduced body: one apply and one SpMV at startup, one of each per
    // iteration, and one more SpMV for the final true residual.
    const std::int64_t k = r.solve.iterations;
    rec_.part(op, pcg.id(), "dist.wait", r.stats.max_wait_seconds);
    rec_.part(op, pcg.id(), "sptrsv.apply",
              apply_s_ * static_cast<double>(k + 2), k + 2);
    rec_.part(op, pcg.id(), "sparse.spmv",
              spmv_s_ * static_cast<double>(k + 2), k + 2);
    rec_.value(op, "dist.parallel_eff",
               serial_solve_s_ / (static_cast<double>(kDistParts) * seconds));
    const spcg::LocalSystem<double>& loc = setup_.locals[big_];
    const spcg::SpcgSetup<double>& sub = *setup_.subdomains[big_];
    rec_.value(op, "sptrsv.bytes",
               static_cast<double>(k + 2) * (sweep_bytes(sub.factors.l) +
                                             sweep_bytes(sub.factors.u)));
    rec_.value(op, "sparse.spmv_bytes",
               static_cast<double>(k + 2) *
                   (sweep_bytes(loc.a_interior) + sweep_bytes(loc.a_boundary)));
    const double iters = std::max(1, r.solve.iterations);
    rec_.value(op, "dist.allreduces_per_iter",
               static_cast<double>(r.stats.allreduces) / iters);
    rec_.value(op, "dist.halo_bytes_per_iter",
               static_cast<double>(r.stats.halo_bytes) / iters);
    check(rec_, op, p_.name, *p_.a, CVec(p_.b), r.solve);
  }

  Recorder& rec_;
  const Problem& p_;
  spcg::DistOptions dopt_;
  spcg::DistSetup<double> setup_;
  std::size_t big_ = 0;            // largest subdomain
  double apply_s_ = 0.0;
  double spmv_s_ = 0.0;
  double serial_solve_s_ = 0.0;
};

// ------------------------------------------------------------- workloads --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// The timed loop. `run(seconds, traced)` returns the operations completed
/// per second; the untraced segment's rate is recorded as
/// "bench.solutions_per_s". With tracing, the first half runs untraced (the
/// overhead reference) and the second half traced.
void segments(const Args& args, Recorder& rec,
              const std::function<double(double seconds, bool traced)>& run) {
  const double rate = run(args.trace ? args.seconds / 2 : args.seconds, false);
  rec.value(Recorder::kNone, "bench.solutions_per_s", rate);
  if (args.trace) run(args.seconds / 2, true);
}

constexpr int kSetupRepeats = 5;

void run_cold_setup(const Args& args, Recorder& rec) {
  std::vector<Problem> ps;
  ps.push_back(make_problem(
      "kernel2d_200",
      spcg::gen_kernel2d(200, 200, 3.5, 0.7, true, args.seed), args.seed + 1));
  ps.back().opt.preconditioner = spcg::PrecondKind::kIluK;
  ps.back().opt.fill_level = 2;
  ps.push_back(make_problem(
      "grid_laplacian_600",
      spcg::gen_grid_laplacian(600, 600, 2.0, 0.5, args.seed), args.seed + 2));

  ColdRig rig(rec, ps);
  segments(args, rec, [&](double seconds, bool traced) {
    if (traced)
      for (Problem& p : ps) p.spmv_call_s = spmv_call_seconds(*p.a);
    return repeat_for(seconds, [&] { rig.pass(traced); });
  });
  if (!args.trace) return;
  rec.start_probes();
  ServiceRig service(rec, ps.front());
  service.probe();
  record_level_apply(rec, service.setup());
  TransientRig(rec, ps.front(), 200).probe();
  DistRig(rec, ps.front()).probe();
}

void run_serve_repeat(const Args& args, Recorder& rec) {
  const Problem p = make_problem(
      "poisson3d_64", spcg::gen_poisson3d(64, 64, 64), args.seed);
  ServiceRig rig(rec, p);
  for (int i = 0; i < kSetupRepeats; ++i) rig.cold_start();
  if (args.trace) rig.price();
  segments(args, rec, [&](double seconds, bool traced) {
    return rig.closed_loop(seconds, traced);
  });
  if (!args.trace) return;
  record_level_apply(rec, rig.setup());
  rec.start_probes();
  TransientRig(rec, p, 64).probe();
  DistRig(rec, p).probe();
}

void run_transient_drift(const Args& args, Recorder& rec) {
  const Problem p = make_problem(
      "varcoef2d_500", spcg::gen_varcoef2d(500, 500, 1.0, args.seed),
      args.seed + 1);
  TransientRig rig(rec, p, 500);
  for (int i = 0; i < kSetupRepeats; ++i) rig.cold_start();
  rig.step(false, "warmup");
  segments(args, rec, [&](double seconds, bool traced) {
    if (traced) rig.prepare_traced();
    return repeat_for(seconds, [&] { rig.step(traced); });
  });
  if (!args.trace) return;
  record_level_apply(rec, rig.setup());
  rec.start_probes();
  ServiceRig(rec, p).probe();
  DistRig(rec, p).probe();
}

void print_host(const Args& args) {
  const char* omp = std::getenv("OMP_NUM_THREADS");
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr bool kSanitized = true;
#else
  constexpr bool kSanitized = false;
#endif
#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  Line("host").str("workload", args.workload)
      .integer("seed", static_cast<std::int64_t>(args.seed))
      .num("seconds", args.seconds).boolean("trace", args.trace)
      .integer("nproc", std::thread::hardware_concurrency())
      .str("omp_num_threads", omp ? omp : "")
      .str("build_type", SPCG_PERFBENCH_BUILD_TYPE)
      .str("compiler", "gcc " __VERSION__)
      .boolean("optimized", kOptimized).boolean("sanitized", kSanitized)
      .boolean("alloc_audit", spcg::analysis::alloc_audit_compiled())
      .integer("llc_bytes", sysconf(_SC_LEVEL3_CACHE_SIZE))
      .print();
}

int usage() {
  std::cerr << "usage: spcg_perfbench --workload cold_setup|serve_repeat|"
               "transient_drift --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      args.trace = std::string_view(v) == "1";
    } else {
      return usage();
    }
  }
  const std::vector<std::pair<std::string_view,
                              void (*)(const Args&, Recorder&)>>
      workloads = {{"cold_setup", run_cold_setup},
                   {"serve_repeat", run_serve_repeat},
                   {"transient_drift", run_transient_drift}};
  const auto it = std::find_if(workloads.begin(), workloads.end(),
                               [&](const auto& w) {
                                 return w.first == args.workload;
                               });
  if (it == workloads.end() || !(args.seconds > 0.0)) return usage();

  try {
    print_host(args);
    Recorder rec;
    it->second(args, rec);
    rec.print();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Line("end").num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
        .print();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
