// Unit tests for src/sparse: CSR invariants, builders, ops, norms, IO.
#include <gtest/gtest.h>

#include <sstream>

#include "sparse/coo.h"
#include "sparse/csr.h"
#include "sparse/io.h"
#include "sparse/norms.h"
#include "sparse/ops.h"

namespace spcg {
namespace {

Csr<double> small_example() {
  // [ 4 -1  0 ]
  // [-1  4 -2 ]
  // [ 0 -2  5 ]
  return csr_from_triplets<double>(3, 3,
                                   {{0, 0, 4},
                                    {0, 1, -1},
                                    {1, 0, -1},
                                    {1, 1, 4},
                                    {1, 2, -2},
                                    {2, 1, -2},
                                    {2, 2, 5}});
}

TEST(Csr, FromTripletsSortsAndSums) {
  // Duplicates sum; unordered input is sorted.
  const Csr<double> a = csr_from_triplets<double>(
      2, 2, {{1, 1, 2.0}, {0, 0, 1.0}, {1, 1, 3.0}, {0, 1, -1.0}});
  a.validate();
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 0.0);  // unstored
}

TEST(Csr, OutOfRangeTripletThrows) {
  EXPECT_THROW(csr_from_triplets<double>(2, 2, {{2, 0, 1.0}}), Error);
  EXPECT_THROW(csr_from_triplets<double>(2, 2, {{0, -1, 1.0}}), Error);
}

TEST(Csr, FindAndAt) {
  const Csr<double> a = small_example();
  EXPECT_GE(a.find(1, 2), 0);
  EXPECT_EQ(a.find(0, 2), -1);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 5.0);
}

TEST(Csr, ValidateCatchesCorruption) {
  Csr<double> a = small_example();
  a.colind[1] = 0;  // duplicate column 0 in row 0
  EXPECT_THROW(a.validate(), Error);
}

TEST(Csr, ValidateCatchesBadRowptr) {
  Csr<double> a = small_example();
  a.rowptr[1] = 5;
  EXPECT_THROW(a.validate(), Error);
}

TEST(Csr, CastPreservesStructure) {
  const Csr<double> a = small_example();
  const Csr<float> f = csr_cast<float>(a);
  f.validate();
  EXPECT_EQ(f.rowptr, a.rowptr);
  EXPECT_EQ(f.colind, a.colind);
  EXPECT_FLOAT_EQ(f.at(1, 2), -2.0f);
}

TEST(Ops, SpmvMatchesDense) {
  const Csr<double> a = small_example();
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y = spmv(a, x);
  EXPECT_DOUBLE_EQ(y[0], 4 * 1 - 1 * 2);
  EXPECT_DOUBLE_EQ(y[1], -1 * 1 + 4 * 2 - 2 * 3);
  EXPECT_DOUBLE_EQ(y[2], -2 * 2 + 5 * 3);
}

TEST(Ops, TransposeInvolution) {
  const Csr<double> a = csr_from_triplets<double>(
      2, 3, {{0, 0, 1}, {0, 2, 2}, {1, 1, 3}});
  const Csr<double> t = transpose(a);
  t.validate();
  EXPECT_EQ(t.rows, 3);
  EXPECT_EQ(t.cols, 2);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 2.0);
  const Csr<double> tt = transpose(t);
  EXPECT_EQ(tt.rowptr, a.rowptr);
  EXPECT_EQ(tt.colind, a.colind);
  EXPECT_EQ(tt.values, a.values);
}

TEST(Ops, ExtractTriangle) {
  const Csr<double> a = small_example();
  const Csr<double> l =
      extract_triangle(a, Triangle::kLower, DiagonalPolicy::kInclude);
  l.validate();
  EXPECT_EQ(l.nnz(), 5);  // 3 diag + 2 strictly lower
  EXPECT_DOUBLE_EQ(l.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(l.at(1, 2), 0.0);
  const Csr<double> u =
      extract_triangle(a, Triangle::kUpper, DiagonalPolicy::kExclude);
  EXPECT_EQ(u.nnz(), 2);
  EXPECT_DOUBLE_EQ(u.at(0, 1), -1.0);
}

TEST(Ops, AddMergesPatterns) {
  const Csr<double> a =
      csr_from_triplets<double>(2, 2, {{0, 0, 1}, {1, 1, 1}});
  const Csr<double> b =
      csr_from_triplets<double>(2, 2, {{0, 1, 2}, {1, 1, 3}});
  const Csr<double> c = add(a, b, 2.0);
  c.validate();
  EXPECT_DOUBLE_EQ(c.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 7.0);
}

TEST(Ops, AddSubtractRoundTrip) {
  const Csr<double> a = small_example();
  const Csr<double> zero = add(a, a, -1.0);
  for (const double v : zero.values) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Ops, DropSmall) {
  const Csr<double> a = small_example();
  const Csr<double> d = drop_small(a, 1.5);
  d.validate();
  EXPECT_EQ(d.nnz(), 5);  // the two -1 entries are gone
  EXPECT_DOUBLE_EQ(d.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(d.at(1, 2), -2.0);
}

TEST(Ops, DiagonalAndChecks) {
  const Csr<double> a = small_example();
  const std::vector<double> d = diagonal(a);
  EXPECT_EQ(d, (std::vector<double>{4, 4, 5}));
  EXPECT_TRUE(is_symmetric(a));
  EXPECT_TRUE(has_positive_diagonal(a));
  EXPECT_TRUE(is_diagonally_dominant(a));
}

TEST(Ops, SymmetryDetectsValueMismatch) {
  Csr<double> a = small_example();
  a.values[static_cast<std::size_t>(a.find(0, 1))] = -1.5;
  EXPECT_FALSE(is_symmetric(a));
  EXPECT_TRUE(is_symmetric(a, /*tol=*/1.0));
}

TEST(Ops, SymmetryDetectsStructureMismatch) {
  const Csr<double> a =
      csr_from_triplets<double>(2, 2, {{0, 0, 1}, {0, 1, 2}, {1, 1, 1}});
  EXPECT_FALSE(is_symmetric(a));
}

TEST(Norms, MatrixNorms) {
  const Csr<double> a = small_example();
  EXPECT_DOUBLE_EQ(norm_inf(a), 7.0);  // row 1 and row 2: |-1|+4+|-2| = 7
  EXPECT_DOUBLE_EQ(norm_one(a), 7.0);  // symmetric
  EXPECT_NEAR(norm_fro(a), std::sqrt(16 + 1 + 1 + 16 + 4 + 4 + 25), 1e-12);
}

TEST(Norms, VectorOps) {
  const std::vector<double> x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
  const std::vector<double> y{1.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 11.0);
  std::vector<double> z{1.0, 1.0};
  axpy(2.0, std::span<const double>(y), std::span<double>(z));
  EXPECT_DOUBLE_EQ(z[0], 3.0);
  EXPECT_DOUBLE_EQ(z[1], 5.0);
  xpby(std::span<const double>(y), 10.0, std::span<double>(z));
  EXPECT_DOUBLE_EQ(z[0], 31.0);
  scale(0.5, std::span<double>(z));
  EXPECT_DOUBLE_EQ(z[0], 15.5);
}

TEST(Coo, AddAndConvertSumsDuplicates) {
  Coo<double> coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(2, 1, -4.0);
  coo.add(0, 0, 2.0);  // duplicate sums on conversion
  coo.add_symmetric(0, 2, 5.0);
  coo.add_symmetric(1, 1, 7.0);  // diagonal added once
  EXPECT_EQ(coo.nnz_stored(), 6u);
  const Csr<double> a = coo_to_csr(coo);
  a.validate();
  EXPECT_EQ(a.nnz(), 5);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(a.at(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 7.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), -4.0);
}

TEST(Coo, OutOfRangeAddThrows) {
  Coo<double> coo(2, 2);
  EXPECT_THROW(coo.add(2, 0, 1.0), Error);
  EXPECT_THROW(coo.add(0, -1, 1.0), Error);
}

TEST(Coo, CsrRoundTrip) {
  const Csr<double> a = small_example();
  const Coo<double> coo = csr_to_coo(a);
  EXPECT_EQ(coo.nnz_stored(), static_cast<std::size_t>(a.nnz()));
  const Csr<double> b = coo_to_csr(coo);
  EXPECT_EQ(b.rowptr, a.rowptr);
  EXPECT_EQ(b.colind, a.colind);
  EXPECT_EQ(b.values, a.values);
}

TEST(Io, RoundTripGeneral) {
  const Csr<double> a = small_example();
  std::stringstream ss;
  write_matrix_market(a, ss);
  const Csr<double> b = read_matrix_market(ss);
  b.validate();
  EXPECT_EQ(b.rowptr, a.rowptr);
  EXPECT_EQ(b.colind, a.colind);
  EXPECT_EQ(b.values, a.values);
}

TEST(Io, SymmetricFilesExpand) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% a comment line\n"
     << "3 3 4\n"
     << "1 1 4.0\n2 1 -1.0\n2 2 4.0\n3 3 5.0\n";
  const Csr<double> a = read_matrix_market(ss);
  a.validate();
  EXPECT_EQ(a.nnz(), 5);  // off-diagonal mirrored
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
}

TEST(Io, PatternFilesGetUnitValues) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate pattern general\n"
     << "2 2 2\n1 1\n2 2\n";
  const Csr<double> a = read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 1.0);
}

TEST(Io, RejectsGarbage) {
  std::stringstream ss("not a matrix market file\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
  std::stringstream complex_field(
      "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n");
  EXPECT_THROW(read_matrix_market(complex_field), Error);
  EXPECT_THROW(read_matrix_market(std::string("/nonexistent/path.mtx")), Error);
}

TEST(Io, RejectsOutOfRangeEntries) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
  EXPECT_THROW(read_matrix_market(ss), Error);
}

// The size line is untrusted: a huge entry count must end in spcg::Error
// (truncation or overflow), never in an allocation sized from the header.
TEST(Io, HugeEntryCountIsTruncatedNotReserved) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2000000000\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(Io, EntryCountBeyondIndexTypeIsRejected) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 900000000000000000\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
}

}  // namespace
}  // namespace spcg
