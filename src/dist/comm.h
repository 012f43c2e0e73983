// Typed communicator facade for the distributed solver layer: one rank's
// handle over a pluggable Transport endpoint (dist/transport.h), carrying
// the collectives a PCG iteration needs — barrier, fused all-reduce
// (deterministic), and neighbor halo exchange.
//
// Determinism contract (delegated to the transport): the all-reduce folds
// per-rank partials in ascending rank order, accumulated in double. The
// result is (a) bitwise identical on every rank, (b) bitwise reproducible
// run-to-run for a fixed rank count, and (c) for P == 1 bitwise equal to
// the serial accumulation — which is what makes dist_pcg(P=1) bitwise-equal
// to spcg_solve.
//
// Split-phase collectives: reduce_begin/exchange_begin publish this rank's
// contribution and *arrive* at the collective; the matching _end *waits*
// and then reads. Work placed between begin and end (interior SpMV, a
// preconditioner apply) overlaps the other ranks' arrival — the analogue of
// overlapping communication with computation, on any backing.
//
// One caller-facing reuse rule (the transport contract): a buffer published
// to exchange_begin must not be mutated until after the next collective
// (any reduce, barrier or exchange). Both solver loops satisfy it because a
// dot-product reduction always follows an SpMV before its input vector is
// updated.
//
// Stats split: the Communicator counts traffic (allreduces, halo exchanges,
// halo bytes, overlapped compute) into the transport's CommStats; the
// transport itself accounts blocked wait time — so stats() is one complete
// per-rank profile regardless of backing.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dist/partition.h"
#include "dist/transport.h"
#include "support/error.h"

namespace spcg {

/// One rank's typed handle over a Transport endpoint. Not thread-safe;
/// exactly one thread drives each rank, and all ranks must issue the same
/// collective sequence.
template <class T>
class Communicator {
 public:
  explicit Communicator(Transport* transport) : t_(transport) {
    SPCG_CHECK(t_ != nullptr);
  }

  [[nodiscard]] index_t rank() const { return t_->rank(); }
  [[nodiscard]] index_t size() const { return t_->size(); }
  [[nodiscard]] const CommStats& stats() const { return t_->stats(); }

  /// Plain synchronization point (also closes the mutation window of a
  /// preceding exchange).
  void barrier() { t_->barrier(); }

  struct ReduceHandle {
    std::size_t width = 0;
  };

  /// Publish this rank's partials and arrive. Compute between begin and end
  /// overlaps the reduction's synchronization.
  ReduceHandle reduce_begin(std::span<const double> vals) {
    ++t_->mutable_stats().allreduces;
    t_->reduce_begin(vals);
    return ReduceHandle{vals.size()};
  }

  /// Wait for every rank's partials folded in ascending rank order (the
  /// deterministic reduction). Every rank computes the same bits.
  void reduce_end(ReduceHandle& h, std::span<double> out) {
    SPCG_CHECK(out.size() == h.width);
    t_->reduce_end(out);
  }

  /// Blocking fused all-reduce (in place).
  void allreduce(std::span<double> vals) {
    ReduceHandle h = reduce_begin(vals);
    reduce_end(h, vals);
  }

  /// Blocking single-value all-reduce.
  double allreduce1(double v) {
    std::array<double, 1> buf{v};
    allreduce(std::span<double>(buf));
    return buf[0];
  }

  struct ExchangeHandle {};

  /// Publish this rank's owned vector and arrive. `owned` must stay
  /// unmodified until after the next collective following exchange_end.
  ExchangeHandle exchange_begin(std::span<const T> owned) {
    ++t_->mutable_stats().halo_exchanges;
    t_->window_begin(owned.data(), owned.size_bytes());
    return ExchangeHandle{};
  }

  /// Wait for all publications, then gather this rank's halo slots from its
  /// neighbors' published vectors.
  void exchange_end(ExchangeHandle&, const LocalSystem<T>& local,
                    std::span<T> halo) {
    SPCG_CHECK(static_cast<index_t>(halo.size()) == local.halo_size());
    t_->window_end();
    for (const auto& edge : local.edges) {
      const T* src = static_cast<const T*>(t_->window(edge.neighbor));
      for (std::size_t k = 0; k < edge.src_local.size(); ++k)
        halo[static_cast<std::size_t>(edge.dst_halo[k])] =
            src[static_cast<std::size_t>(edge.src_local[k])];
      t_->mutable_stats().halo_bytes += edge.src_local.size() * sizeof(T);
    }
  }

  /// Record compute time spent inside an open collective (the overlapped
  /// portion of communication); feeds the overlap-efficiency metric.
  void note_overlap_compute(double seconds) {
    t_->mutable_stats().overlap_hidden_seconds += seconds;
  }

  /// Mark the group aborted and unblock the surviving ranks; they observe
  /// the flag and throw CommAborted at their next collective wait. Call from
  /// the rank's top-level catch (i.e. outside any begin/end window).
  void abort() noexcept { t_->abort(); }

 private:
  Transport* t_;
};

}  // namespace spcg
