#include "sparse/io.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/error.h"

namespace spcg {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

Csr<double> read_matrix_market(std::istream& in) {
  std::string line;
  SPCG_CHECK_MSG(std::getline(in, line), "empty Matrix Market stream");
  std::istringstream banner(line);
  std::string tag, object, format, field, symmetry;
  banner >> tag >> object >> format >> field >> symmetry;
  SPCG_CHECK_MSG(tag == "%%MatrixMarket", "missing MatrixMarket banner");
  SPCG_CHECK_MSG(lower(object) == "matrix", "unsupported object: " << object);
  SPCG_CHECK_MSG(lower(format) == "coordinate",
                 "only coordinate format is supported, got " << format);
  const std::string f = lower(field);
  SPCG_CHECK_MSG(f == "real" || f == "integer" || f == "pattern",
                 "unsupported field: " << field);
  const std::string sym = lower(symmetry);
  SPCG_CHECK_MSG(sym == "general" || sym == "symmetric",
                 "unsupported symmetry: " << symmetry);

  // Skip comments.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream header(line);
  long rows = 0, cols = 0, entries = 0;
  header >> rows >> cols >> entries;
  SPCG_CHECK_MSG(rows > 0 && cols > 0 && entries >= 0,
                 "bad size line: " << line);
  // Every entry stores at least one triplet, so a count past index_t can
  // never fit. The count is untrusted: storage grows with the entries the
  // file actually carries, never from the header.
  constexpr long kMax = std::numeric_limits<index_t>::max();
  SPCG_CHECK_MSG(rows <= kMax && cols <= kMax && entries <= kMax,
                 "size line overflows index_t: " << line);

  std::vector<Triplet<double>> triplets;
  for (long k = 0; k < entries; ++k) {
    SPCG_CHECK_MSG(std::getline(in, line), "truncated file at entry " << k);
    std::istringstream es(line);
    long i = 0, j = 0;
    double v = 1.0;
    es >> i >> j;
    if (f != "pattern") {
      es >> v;
      if (es.fail()) {
        // num_get rejects "nan"/"inf" spellings; parse them explicitly
        // instead of silently storing 0 for a value the file does carry.
        es.clear();
        std::string word;
        es >> word;
        std::size_t pos = 0;
        try {
          v = std::stod(word, &pos);
        } catch (const std::exception&) {
          pos = 0;
        }
        SPCG_CHECK_MSG(!word.empty() && pos == word.size(),
                       "bad value at entry " << k << ": " << line);
      }
    }
    SPCG_CHECK_MSG(i >= 1 && i <= rows && j >= 1 && j <= cols,
                   "entry out of range: " << line);
    triplets.push_back({static_cast<index_t>(i - 1),
                        static_cast<index_t>(j - 1), v});
    if (sym == "symmetric" && i != j) {
      triplets.push_back({static_cast<index_t>(j - 1),
                          static_cast<index_t>(i - 1), v});
    }
  }
  return csr_from_triplets(static_cast<index_t>(rows),
                           static_cast<index_t>(cols), std::move(triplets));
}

Csr<double> read_matrix_market(const std::string& path) {
  std::ifstream in(path);
  SPCG_CHECK_MSG(in.good(), "cannot open " << path);
  return read_matrix_market(in);
}

void write_matrix_market(const Csr<double>& a, std::ostream& out) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.rows << ' ' << a.cols << ' ' << a.nnz() << '\n';
  out.precision(17);
  for (index_t i = 0; i < a.rows; ++i) {
    const auto cols_i = a.row_cols(i);
    const auto vals_i = a.row_vals(i);
    for (std::size_t p = 0; p < cols_i.size(); ++p) {
      out << (i + 1) << ' ' << (cols_i[p] + 1) << ' ' << vals_i[p] << '\n';
    }
  }
}

void write_matrix_market(const Csr<double>& a, const std::string& path) {
  std::ofstream out(path);
  SPCG_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  write_matrix_market(a, out);
}

}  // namespace spcg
