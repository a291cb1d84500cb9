// Differential fuzz harness for the Forrest-Tomlin LU factorization
// (lp/lu_factorization.h), run against two independent oracles:
//
//   dense LU   — Gaussian elimination with partial pivoting on an explicit
//                copy of the basis matrix (ground truth),
//   eta file   — an in-test product-form eta oracle, updated the way a
//                product-form revised simplex maintains its basis.
//
// Random basis walks replace columns one at a time (saving the FTRAN spike
// exactly as the simplex does), interleave warm row additions, and force
// refactor-threshold edge cases; every FTRAN/BTRAN along the walk must
// agree across all three implementations. Singular and near-singular bases
// must be reported, not crash.
//
// A third check pins the Markowitz pivot order itself: seeded slack-heavy
// bases up to m = 400 are factorized against an in-test reference that
// replays the full-scan pivot rule, and the (row, column) pivot sequences
// and factor fill must match exactly.
//
// Every randomized case logs its seed on failure, so a CI hit reproduces
// with:  FPVA_LU_FUZZ_SEEDS=<seed> ./lu_update_test
// The seeded sweep also reads tests/lu_fuzz_seeds.txt through the
// FPVA_LU_SEED_FILE environment variable, which ctest and the CI fuzz step
// set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lp/lu_factorization.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace fpva::lp {
namespace {

// ----------------------------------------------------------- dense oracle

/// Column-major dense matrix with LU solves (partial pivoting). Ground
/// truth for the sparse factorizations.
class DenseOracle {
 public:
  explicit DenseOracle(int m) : m_(m), cols_(static_cast<std::size_t>(m * m)) {}

  double& at(int row, int col) {
    return cols_[static_cast<std::size_t>(col) * static_cast<std::size_t>(m_) +
                 static_cast<std::size_t>(row)];
  }
  double at(int row, int col) const {
    return cols_[static_cast<std::size_t>(col) * static_cast<std::size_t>(m_) +
                 static_cast<std::size_t>(row)];
  }
  int dimension() const { return m_; }

  void set_column(int col, const std::vector<double>& dense) {
    for (int i = 0; i < m_; ++i) at(i, col) = dense[static_cast<std::size_t>(i)];
  }

  /// Extends to (m+1)x(m+1): new row `row_by_col` over the old columns,
  /// new column = unit vector of the new row.
  void add_row(const std::vector<double>& row_by_col) {
    const int old_m = m_;
    DenseOracle grown(old_m + 1);
    for (int c = 0; c < old_m; ++c) {
      for (int r = 0; r < old_m; ++r) grown.at(r, c) = at(r, c);
      grown.at(old_m, c) = row_by_col[static_cast<std::size_t>(c)];
    }
    grown.at(old_m, old_m) = 1.0;
    *this = grown;
  }

  /// Factors a copy; false when numerically singular.
  bool refresh() {
    lu_ = cols_;
    perm_.resize(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) perm_[static_cast<std::size_t>(i)] = i;
    for (int k = 0; k < m_; ++k) {
      int pivot = k;
      double best = std::abs(lu_at(k, k));
      for (int i = k + 1; i < m_; ++i) {
        if (std::abs(lu_at(i, k)) > best) {
          best = std::abs(lu_at(i, k));
          pivot = i;
        }
      }
      if (best < 1e-10) return false;
      if (pivot != k) {
        for (int c = 0; c < m_; ++c) std::swap(lu_ref(k, c), lu_ref(pivot, c));
        std::swap(perm_[static_cast<std::size_t>(k)],
                  perm_[static_cast<std::size_t>(pivot)]);
      }
      for (int i = k + 1; i < m_; ++i) {
        const double mult = lu_at(i, k) / lu_at(k, k);
        lu_ref(i, k) = mult;
        for (int c = k + 1; c < m_; ++c) lu_ref(i, c) -= mult * lu_at(k, c);
      }
    }
    return true;
  }

  /// x := B^-1 b (input indexed by row, output by column/position).
  std::vector<double> solve(const std::vector<double>& b) const {
    std::vector<double> y(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      y[static_cast<std::size_t>(i)] =
          b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
    }
    for (int i = 1; i < m_; ++i) {
      for (int k = 0; k < i; ++k) {
        y[static_cast<std::size_t>(i)] -=
            lu_at(i, k) * y[static_cast<std::size_t>(k)];
      }
    }
    for (int i = m_ - 1; i >= 0; --i) {
      for (int k = i + 1; k < m_; ++k) {
        y[static_cast<std::size_t>(i)] -=
            lu_at(i, k) * y[static_cast<std::size_t>(k)];
      }
      y[static_cast<std::size_t>(i)] /= lu_at(i, i);
    }
    return y;
  }

  /// y := B^-T c (input indexed by column/position, output by row).
  std::vector<double> solve_transpose(const std::vector<double>& c) const {
    std::vector<double> y = c;
    for (int i = 0; i < m_; ++i) {
      for (int k = 0; k < i; ++k) {
        y[static_cast<std::size_t>(i)] -=
            lu_at(k, i) * y[static_cast<std::size_t>(k)];
      }
      y[static_cast<std::size_t>(i)] /= lu_at(i, i);
    }
    for (int i = m_ - 1; i >= 0; --i) {
      for (int k = i + 1; k < m_; ++k) {
        y[static_cast<std::size_t>(i)] -=
            lu_at(k, i) * y[static_cast<std::size_t>(k)];
      }
    }
    std::vector<double> out(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      out[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
          y[static_cast<std::size_t>(i)];
    }
    return out;
  }

 private:
  double lu_at(int row, int col) const {
    return lu_[static_cast<std::size_t>(col) * static_cast<std::size_t>(m_) +
               static_cast<std::size_t>(row)];
  }
  double& lu_ref(int row, int col) {
    return lu_[static_cast<std::size_t>(col) * static_cast<std::size_t>(m_) +
               static_cast<std::size_t>(row)];
  }

  int m_ = 0;
  std::vector<double> cols_;
  std::vector<double> lu_;
  std::vector<int> perm_;
};

// ------------------------------------------------------------- eta oracle

/// Product-form eta file, maintained exactly like the pre-PR revised
/// simplex basis: factorize = sequential column updates against the
/// current file, update = FTRAN the replacement column and append one eta
/// pivoting at the replaced position.
class EtaOracle {
 public:
  struct Eta {
    int pivot = 0;
    double pivot_value = 1.0;
    std::vector<int> rows;
    std::vector<double> values;
  };

  void ftran(std::vector<double>& dense) const {
    for (const Eta& eta : etas_) {
      const double t = dense[static_cast<std::size_t>(eta.pivot)];
      if (t == 0.0) continue;
      dense[static_cast<std::size_t>(eta.pivot)] = eta.pivot_value * t;
      for (std::size_t k = 0; k < eta.rows.size(); ++k) {
        dense[static_cast<std::size_t>(eta.rows[k])] += eta.values[k] * t;
      }
    }
  }

  void btran(std::vector<double>& dense) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double s = it->pivot_value * dense[static_cast<std::size_t>(it->pivot)];
      for (std::size_t k = 0; k < it->rows.size(); ++k) {
        s += it->values[k] * dense[static_cast<std::size_t>(it->rows[k])];
      }
      dense[static_cast<std::size_t>(it->pivot)] = s;
    }
  }

  /// Replaces position `p`: FTRANs `column` through the file and appends
  /// the pivot eta. False when the pivot is numerically vanishing.
  bool update(int p, std::vector<double> column) {
    ftran(column);
    const double pivot_value = column[static_cast<std::size_t>(p)];
    if (std::abs(pivot_value) < 1e-10) return false;
    Eta eta;
    eta.pivot = p;
    eta.pivot_value = 1.0 / pivot_value;
    for (int i = 0; i < static_cast<int>(column.size()); ++i) {
      if (i == p) continue;
      const double a = column[static_cast<std::size_t>(i)];
      if (std::abs(a) <= 1e-12) continue;
      eta.rows.push_back(i);
      eta.values.push_back(-a / pivot_value);
    }
    etas_.push_back(std::move(eta));
    return true;
  }

  bool factorize(const DenseOracle& matrix) {
    etas_.clear();
    const int m = matrix.dimension();
    std::vector<double> column(static_cast<std::size_t>(m));
    for (int p = 0; p < m; ++p) {
      for (int i = 0; i < m; ++i) {
        column[static_cast<std::size_t>(i)] = matrix.at(i, p);
      }
      if (!update(p, column)) return false;
    }
    return true;
  }

 private:
  std::vector<Eta> etas_;
};

// -------------------------------------------------------------- harness

std::vector<BasisColumn> gather_columns(const DenseOracle& matrix,
                                        std::vector<int>& rows,
                                        std::vector<double>& values,
                                        std::vector<int>& starts) {
  const int m = matrix.dimension();
  rows.clear();
  values.clear();
  starts.assign(1, 0);
  for (int c = 0; c < m; ++c) {
    for (int r = 0; r < m; ++r) {
      const double v = matrix.at(r, c);
      if (v != 0.0) {
        rows.push_back(r);
        values.push_back(v);
      }
    }
    starts.push_back(static_cast<int>(rows.size()));
  }
  std::vector<BasisColumn> columns(static_cast<std::size_t>(m));
  for (int c = 0; c < m; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    columns[cs] = {rows.data() + starts[cs], values.data() + starts[cs],
                   starts[cs + 1] - starts[cs]};
  }
  return columns;
}

/// Well-conditioned random sparse basis: dominant diagonal plus a few
/// off-diagonal entries per column.
DenseOracle random_basis(common::Rng& rng, int m) {
  DenseOracle matrix(m);
  for (int c = 0; c < m; ++c) {
    matrix.at(c, c) = 2.0 + rng.next_double() * 3.0;
    const int extras = static_cast<int>(rng.next_below(4));
    for (int e = 0; e < extras; ++e) {
      const int r = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(m)));
      if (r == c) continue;
      matrix.at(r, c) = rng.next_double() * 2.0 - 1.0;
    }
  }
  return matrix;
}

std::vector<double> random_vector(common::Rng& rng, int m) {
  std::vector<double> v(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    v[static_cast<std::size_t>(i)] = rng.next_double() * 4.0 - 2.0;
  }
  return v;
}

void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want, const char* what,
                  std::uint64_t seed, int step) {
  double scale = 1.0;
  for (const double v : want) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-6 * scale)
        << what << " mismatch at slot " << i << " (seed=" << seed
        << " step=" << step << ")";
  }
}

/// One full random basis walk under `lu_options`: factorize, then a run of
/// column replacements and (optionally) row additions, checking FTRAN and
/// BTRAN against the dense oracle (always) and the eta oracle (until the
/// first row addition, which the eta file cannot express).
void run_basis_walk(std::uint64_t seed, LuFactorization::Options lu_options,
                    bool with_row_additions) {
  common::Rng rng(seed);
  const int m0 = 4 + static_cast<int>(rng.next_below(24));
  DenseOracle matrix = random_basis(rng, m0);
  ASSERT_TRUE(matrix.refresh()) << "seed=" << seed;

  LuFactorization lu(lu_options);
  std::vector<int> rows, starts;
  std::vector<double> values;
  {
    const auto columns = gather_columns(matrix, rows, values, starts);
    ASSERT_TRUE(lu.factorize(matrix.dimension(), columns)) << "seed=" << seed;
  }
  EtaOracle eta;
  ASSERT_TRUE(eta.factorize(matrix)) << "seed=" << seed;
  bool eta_live = true;

  const int steps = 24 + static_cast<int>(rng.next_below(16));
  for (int step = 0; step < steps; ++step) {
    const int m = matrix.dimension();
    // Differential check on random vectors before mutating anything.
    {
      std::vector<double> b = random_vector(rng, m);
      std::vector<double> lu_x = b;
      lu.ftran(lu_x);
      expect_close(lu_x, matrix.solve(b), "ftran(dense)", seed, step);
      if (eta_live) {
        std::vector<double> eta_x = b;
        eta.ftran(eta_x);
        expect_close(lu_x, eta_x, "ftran(eta)", seed, step);
      }
      std::vector<double> c = random_vector(rng, m);
      std::vector<double> lu_y = c;
      lu.btran(lu_y);
      expect_close(lu_y, matrix.solve_transpose(c), "btran(dense)", seed,
                   step);
      if (eta_live) {
        std::vector<double> eta_y = c;
        eta.btran(eta_y);
        expect_close(lu_y, eta_y, "btran(eta)", seed, step);
      }
    }

    if (with_row_additions && rng.next_bool(0.15)) {
      // Warm row addition: random coefficients on a few positions.
      const int m_old = matrix.dimension();
      std::vector<double> row_by_col(static_cast<std::size_t>(m_old), 0.0);
      std::vector<int> positions;
      std::vector<double> coeffs;
      const int touched = 1 + static_cast<int>(rng.next_below(4));
      for (int t = 0; t < touched; ++t) {
        const int p = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(m_old)));
        if (row_by_col[static_cast<std::size_t>(p)] != 0.0) continue;
        const double v = rng.next_double() * 2.0 - 1.0;
        row_by_col[static_cast<std::size_t>(p)] = v;
        positions.push_back(p);
        coeffs.push_back(v);
      }
      ASSERT_TRUE(lu.add_row(positions, coeffs))
          << "seed=" << seed << " step=" << step;
      matrix.add_row(row_by_col);
      ASSERT_TRUE(matrix.refresh()) << "seed=" << seed << " step=" << step;
      eta_live = false;  // the product form has no row-addition operation
    } else {
      // Column replacement through the simplex-shaped path: FTRAN with
      // spike capture, then the Forrest-Tomlin update.
      const int p = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(m)));
      std::vector<double> column(static_cast<std::size_t>(m), 0.0);
      column[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(m)))] =
          2.0 + rng.next_double();
      const int extras = 1 + static_cast<int>(rng.next_below(4));
      for (int e = 0; e < extras; ++e) {
        column[static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(m)))] +=
            rng.next_double() * 2.0 - 1.0;
      }
      std::vector<double> alpha = column;
      lu.ftran(alpha, /*save_spike=*/true);
      const double pivot_value = alpha[static_cast<std::size_t>(p)];
      if (std::abs(pivot_value) < 0.05) continue;  // simplex would not pivot

      if (!lu.update(p, pivot_value)) {
        // A rejected update must flag the factorization invalid; rebuild
        // from the (old) basis and carry on — the basis did not change.
        EXPECT_FALSE(lu.valid()) << "seed=" << seed << " step=" << step;
        const auto columns = gather_columns(matrix, rows, values, starts);
        ASSERT_TRUE(lu.factorize(matrix.dimension(), columns))
            << "seed=" << seed << " step=" << step;
        continue;
      }
      matrix.set_column(p, column);
      ASSERT_TRUE(matrix.refresh()) << "seed=" << seed << " step=" << step;
      if (eta_live) {
        ASSERT_TRUE(eta.update(p, column))
            << "seed=" << seed << " step=" << step;
      }
    }

    if (lu.needs_refactor()) {
      const auto columns = gather_columns(matrix, rows, values, starts);
      ASSERT_TRUE(lu.factorize(matrix.dimension(), columns))
          << "seed=" << seed << " step=" << step;
    }
  }
}

TEST(LuFactorizationTest, RandomBasisWalksMatchOracles) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_basis_walk(seed * 7919 + 1, LuFactorization::Options{}, false);
  }
}

TEST(LuFactorizationTest, RandomWalksWithRowAdditionsMatchDense) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_basis_walk(seed * 104729 + 3, LuFactorization::Options{}, true);
  }
}

// Refactor-threshold edge cases: a one-update budget and a zero fill
// allowance must schedule a refactorization after every update without
// ever producing a wrong solve.
TEST(LuFactorizationTest, TightRefactorThresholdsStayCorrect) {
  LuFactorization::Options tight;
  tight.max_updates = 1;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_basis_walk(seed * 31337 + 5, tight, true);
  }
  LuFactorization::Options no_fill;
  no_fill.fill_ratio = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_basis_walk(seed * 65537 + 7, no_fill, false);
  }
}

TEST(LuFactorizationTest, SingularBasisIsReported) {
  // Duplicate columns: structurally singular.
  DenseOracle matrix(4);
  for (int r = 0; r < 4; ++r) {
    matrix.at(r, 0) = r + 1.0;
    matrix.at(r, 1) = r + 1.0;
    matrix.at(r, 2) = r == 2 ? 1.0 : 0.0;
    matrix.at(r, 3) = r == 3 ? 1.0 : 0.0;
  }
  std::vector<int> rows, starts;
  std::vector<double> values;
  const auto columns = gather_columns(matrix, rows, values, starts);
  LuFactorization lu;
  EXPECT_FALSE(lu.factorize(4, columns));
  EXPECT_FALSE(lu.valid());
}

TEST(LuFactorizationTest, NearSingularBasisIsReported) {
  DenseOracle matrix(3);
  matrix.at(0, 0) = 1.0;
  matrix.at(1, 1) = 1e-13;  // below the singularity tolerance
  matrix.at(2, 2) = 1.0;
  std::vector<int> rows, starts;
  std::vector<double> values;
  const auto columns = gather_columns(matrix, rows, values, starts);
  LuFactorization lu;
  EXPECT_FALSE(lu.factorize(3, columns));
}

TEST(LuFactorizationTest, EmptyColumnPastTheFirstIsReported) {
  // Column 2 is empty while columns 0, 1 and 3 hold fine pivots: the
  // factorization must stop before its first pivot, not after eliminating
  // the columns in front of the empty one.
  DenseOracle matrix(4);
  matrix.at(0, 0) = 1.0;
  matrix.at(1, 1) = 2.0;
  matrix.at(2, 3) = 3.0;
  matrix.at(3, 3) = 1.0;
  std::vector<int> rows, starts;
  std::vector<double> values;
  const auto columns = gather_columns(matrix, rows, values, starts);
  LuFactorization lu;
  EXPECT_FALSE(lu.factorize(4, columns));
  EXPECT_FALSE(lu.valid());
  EXPECT_EQ(lu.pivot_rows(), std::vector<int>(4, -1));
}

TEST(LuFactorizationTest, SingularUpdateIsRejected) {
  // Replacing column 1 with a copy of column 0 makes the basis singular;
  // the update must refuse and invalidate rather than corrupt.
  DenseOracle matrix = [] {
    DenseOracle m(4);
    for (int i = 0; i < 4; ++i) m.at(i, i) = 1.0 + i;
    m.at(0, 2) = 0.5;
    return m;
  }();
  ASSERT_TRUE(matrix.refresh());
  std::vector<int> rows, starts;
  std::vector<double> values;
  const auto columns = gather_columns(matrix, rows, values, starts);
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(4, columns));
  std::vector<double> duplicate(4, 0.0);
  duplicate[0] = 1.0;  // equals column 0
  std::vector<double> alpha = duplicate;
  lu.ftran(alpha, /*save_spike=*/true);
  EXPECT_FALSE(lu.update(1, alpha[1]));
  EXPECT_FALSE(lu.valid());
}

// ------------------------------------------------- pivot-order reference

/// A sparse basis as per-position row/value lists (row indices unique per
/// column, zeros never stored).
struct SparseBasis {
  int m = 0;
  std::vector<std::vector<int>> rows;
  std::vector<std::vector<double>> values;

  explicit SparseBasis(int dimension)
      : m(dimension),
        rows(static_cast<std::size_t>(dimension)),
        values(static_cast<std::size_t>(dimension)) {}

  void set(int row, int col, double value) {
    auto& col_rows = rows[static_cast<std::size_t>(col)];
    auto& col_values = values[static_cast<std::size_t>(col)];
    for (std::size_t k = 0; k < col_rows.size(); ++k) {
      if (col_rows[k] == row) {
        col_values[k] = value;
        return;
      }
    }
    col_rows.push_back(row);
    col_values.push_back(value);
  }

  std::vector<BasisColumn> views() const {
    std::vector<BasisColumn> columns(static_cast<std::size_t>(m));
    for (std::size_t c = 0; c < columns.size(); ++c) {
      columns[c] = {rows[c].data(), values[c].data(),
                    static_cast<int>(rows[c].size())};
    }
    return columns;
  }
};

/// What the reference elimination saw, so the seeded families can assert
/// they reach every branch of the pivot rule.
struct PivotRuleCoverage {
  int capped_steps = 0;     ///< more than 64 columns within min+3
  int fallback_steps = 0;   ///< no stable pass-0 candidate: full pass
  int fill_entries = 0;     ///< fill-ins, each moving a column up a count
  int empty_column = 0;     ///< stopped on an empty active column

  void add(const PivotRuleCoverage& other) {
    capped_steps += other.capped_steps;
    fallback_steps += other.fallback_steps;
    fill_entries += other.fill_entries;
    empty_column += other.empty_column;
  }
};

struct ReferenceFactor {
  bool ok = false;
  std::vector<int> pivot_rows, pivot_cols;
  long fill = 0;  ///< LuFactorization::factor_fill() of the same basis
  PivotRuleCoverage coverage;
};

/// Markowitz elimination by the full-scan pivot rule — every step rescans
/// all active columns for the minimum count, ranks the first 64 columns
/// (column order) within min+3 by (r-1)(c-1), then larger |pivot|, then
/// lower column, then lower row, and ranks every active column only when
/// none of those holds a pivot passing the threshold test. Same drop rules
/// and arithmetic as the production elimination, on ordered maps.
ReferenceFactor reference_factorize(const SparseBasis& basis,
                                    const LuFactorization::Options& options) {
  const int m = basis.m;
  const auto ms = static_cast<std::size_t>(m);
  std::vector<std::map<int, double>> row_entries(ms);
  std::vector<std::set<int>> col_rows(ms);
  for (int c = 0; c < m; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    for (std::size_t k = 0; k < basis.rows[cs].size(); ++k) {
      if (basis.values[cs][k] == 0.0) continue;
      row_entries[static_cast<std::size_t>(basis.rows[cs][k])][c] =
          basis.values[cs][k];
      col_rows[cs].insert(basis.rows[cs][k]);
    }
  }
  std::vector<char> col_active(ms, 1);
  ReferenceFactor out;
  out.pivot_rows.assign(ms, -1);
  out.pivot_cols.assign(ms, -1);
  out.fill = m;

  for (int step = 0; step < m; ++step) {
    int min_count = std::numeric_limits<int>::max();
    bool empty = false;
    for (int j = 0; j < m; ++j) {
      if (!col_active[static_cast<std::size_t>(j)]) continue;
      const int count =
          static_cast<int>(col_rows[static_cast<std::size_t>(j)].size());
      empty = empty || count == 0;
      min_count = std::min(min_count, count);
    }
    if (empty) {
      ++out.coverage.empty_column;
      return out;
    }
    int eligible = 0;
    for (int j = 0; j < m; ++j) {
      if (col_active[static_cast<std::size_t>(j)] &&
          static_cast<int>(col_rows[static_cast<std::size_t>(j)].size()) <=
              min_count + 3) {
        ++eligible;
      }
    }
    if (eligible > 64) ++out.coverage.capped_steps;

    int pivot_row = -1, pivot_col = -1;
    for (int pass = 0; pass < 2 && pivot_row < 0; ++pass) {
      if (pass == 1) ++out.coverage.fallback_steps;
      const int count_cap =
          pass == 0 ? min_count + 3 : std::numeric_limits<int>::max();
      long long best_cost = std::numeric_limits<long long>::max();
      double best_mag = 0.0;
      int scanned = 0;
      for (int j = 0; j < m && (pass == 1 || scanned < 64); ++j) {
        const auto js = static_cast<std::size_t>(j);
        if (!col_active[js]) continue;
        const int col_count = static_cast<int>(col_rows[js].size());
        if (col_count > count_cap) continue;
        ++scanned;
        double col_max = 0.0;
        for (const int i : col_rows[js]) {
          col_max = std::max(
              col_max, std::abs(row_entries[static_cast<std::size_t>(i)].at(j)));
        }
        if (col_max <= options.singular_tolerance) continue;
        const double acceptable = options.pivot_tolerance * col_max;
        for (const int i : col_rows[js]) {
          const double mag =
              std::abs(row_entries[static_cast<std::size_t>(i)].at(j));
          if (mag < acceptable || mag <= options.singular_tolerance) continue;
          const long long cost =
              static_cast<long long>(
                  row_entries[static_cast<std::size_t>(i)].size() - 1) *
              static_cast<long long>(col_count - 1);
          if (cost < best_cost ||
              (cost == best_cost &&
               (mag > best_mag ||
                (mag == best_mag &&
                 (j < pivot_col || (j == pivot_col && i < pivot_row)))))) {
            best_cost = cost;
            best_mag = mag;
            pivot_row = i;
            pivot_col = j;
          }
        }
      }
    }
    if (pivot_row < 0) return out;
    out.pivot_rows[static_cast<std::size_t>(step)] = pivot_row;
    out.pivot_cols[static_cast<std::size_t>(step)] = pivot_col;

    auto& prow = row_entries[static_cast<std::size_t>(pivot_row)];
    const double pivot = prow.at(pivot_col);
    std::vector<int> targets;
    for (const int i : col_rows[static_cast<std::size_t>(pivot_col)]) {
      if (i != pivot_row) targets.push_back(i);
    }
    for (const int i : targets) {
      auto& row = row_entries[static_cast<std::size_t>(i)];
      const double mult = row.at(pivot_col) / pivot;
      if (std::abs(mult) > options.drop_tolerance) {
        ++out.fill;  // one L entry
        for (const auto& [c2, v] : prow) {
          if (c2 == pivot_col) continue;
          const double delta = mult * v;
          const auto it = row.find(c2);
          if (it != row.end()) {
            it->second -= delta;
          } else if (std::abs(delta) > options.drop_tolerance) {
            row[c2] = -delta;
            col_rows[static_cast<std::size_t>(c2)].insert(i);
            ++out.coverage.fill_entries;
          }
        }
      }
      row.erase(pivot_col);
      for (auto it = row.begin(); it != row.end();) {
        if (std::abs(it->second) <= options.drop_tolerance) {
          col_rows[static_cast<std::size_t>(it->first)].erase(i);
          it = row.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const auto& [c2, v] : prow) {
      if (c2 == pivot_col) continue;
      col_rows[static_cast<std::size_t>(c2)].erase(pivot_row);
      ++out.fill;  // one U entry
    }
    col_rows[static_cast<std::size_t>(pivot_col)].clear();
    col_active[static_cast<std::size_t>(pivot_col)] = 0;
  }
  out.ok = true;
  return out;
}

/// Factorizes `basis` both ways and requires the same outcome, the same
/// (row, column) pivot sequence — including the step a singular basis
/// stops at — and the same factor fill.
PivotRuleCoverage expect_same_pivots(const SparseBasis& basis,
                                     std::uint64_t seed) {
  const LuFactorization::Options options;
  const ReferenceFactor want = reference_factorize(basis, options);
  LuFactorization lu(options);
  const bool ok = lu.factorize(basis.m, basis.views());
  EXPECT_EQ(ok, want.ok) << "seed=" << seed << " m=" << basis.m;
  EXPECT_EQ(lu.pivot_rows(), want.pivot_rows)
      << "pivot rows differ (seed=" << seed << " m=" << basis.m << ")";
  EXPECT_EQ(lu.pivot_cols(), want.pivot_cols)
      << "pivot columns differ (seed=" << seed << " m=" << basis.m << ")";
  if (ok && want.ok) {
    EXPECT_EQ(lu.factor_fill(), want.fill)
        << "seed=" << seed << " m=" << basis.m;
  }
  return want.coverage;
}

/// Seeded slack-heavy sparse basis, m in [64, 400]: mostly unit (slack or
/// artificial) columns plus structural columns of 2-8 entries, in random
/// column order. Per seed it may use all-±1 values (cost and magnitude
/// ties everywhere), duplicate a structural column (a column that empties
/// during elimination) or leave one column empty.
SparseBasis random_slack_heavy_basis(std::uint64_t seed) {
  common::Rng rng(seed);
  const int m = 64 + static_cast<int>(rng.next_below(337));
  const double slack_share = 0.5 + 0.4 * rng.next_double();
  const bool unit_values = rng.next_bool(0.35);
  const auto value = [&rng, unit_values](double scale) {
    if (unit_values) return rng.next_bool() ? 1.0 : -1.0;
    return (rng.next_bool() ? 1.0 : -1.0) * scale *
           (0.25 + rng.next_double());
  };
  std::vector<int> diagonal_row(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) diagonal_row[static_cast<std::size_t>(i)] = i;
  rng.shuffle(diagonal_row);

  SparseBasis basis(m);
  for (int c = 0; c < m; ++c) {
    basis.set(diagonal_row[static_cast<std::size_t>(c)], c, value(2.0));
    if (rng.next_bool(slack_share)) continue;
    const int extras = 1 + static_cast<int>(rng.next_below(7));
    for (int e = 0; e < extras; ++e) {
      const int r =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(m)));
      if (r != diagonal_row[static_cast<std::size_t>(c)]) {
        basis.set(r, c, value(1.0));
      }
    }
  }
  if (rng.next_bool(0.15)) {
    const int from =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(m)));
    const int to =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(m)));
    if (from != to) {
      basis.rows[static_cast<std::size_t>(to)] =
          basis.rows[static_cast<std::size_t>(from)];
      basis.values[static_cast<std::size_t>(to)] =
          basis.values[static_cast<std::size_t>(from)];
    }
  }
  if (rng.next_bool(0.1)) {
    const int col = 1 + static_cast<int>(
                            rng.next_below(static_cast<std::uint64_t>(m - 1)));
    basis.rows[static_cast<std::size_t>(col)].clear();
    basis.values[static_cast<std::size_t>(col)].clear();
  }
  return basis;
}

/// 80 blocks whose pivots need the full pass: every block has a column
/// holding one 5e-12 entry (below the singularity tolerance), and those
/// columns come first, so 64 of them fill the whole pass-0 window. The
/// cheapest pivot then has a 100x multiplier that lifts the tiny column
/// above the tolerance, and the factorization succeeds. The last block's
/// pivot is twice as large and sits in a later bitset word than the first
/// stable column, so the full pass must rank every column to find it.
///   rows s r c1 c2 c3 x cols t k d1 d2 d3 (t < 80 <= k < 160 <= d):
///     s: t=5e-12 k=1;  r: k=100 d1=1 d2=1;  c: [[4,1,1],[1,4,1],[1,1,4]]
SparseBasis pass_one_fallback_basis() {
  constexpr int kBlocks = 80;
  SparseBasis basis(5 * kBlocks);
  for (int b = 0; b < kBlocks; ++b) {
    const int s = 5 * b, r = s + 1, c1 = s + 2;
    const int t = b, k = kBlocks + b, d1 = 2 * kBlocks + 3 * b;
    const double scale = b + 1 == kBlocks ? 2.0 : 1.0;
    basis.set(s, t, 5e-12);
    basis.set(s, k, scale);
    basis.set(r, k, 100.0 * scale);
    basis.set(r, d1, 1.0);
    basis.set(r, d1 + 1, 1.0);
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) basis.set(c1 + i, d1 + j, i == j ? 4.0 : 1.0);
    }
  }
  return basis;
}

void check_pivot_order(std::uint64_t seed, PivotRuleCoverage* coverage) {
  const PivotRuleCoverage seen =
      expect_same_pivots(random_slack_heavy_basis(seed), seed);
  if (coverage != nullptr) coverage->add(seen);
}

TEST(LuPivotOrderTest, MatchesFullScanRuleOnSlackHeavyBases) {
  PivotRuleCoverage coverage;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    check_pivot_order(seed * 6151 + 17, &coverage);
  }
  // The seeded family must reach the branches small bases never do.
  EXPECT_GT(coverage.capped_steps, 0);
  EXPECT_GT(coverage.fill_entries, 0);
  EXPECT_GT(coverage.empty_column, 0);
}

TEST(LuPivotOrderTest, FallbackPassMatchesFullScanRule) {
  const SparseBasis basis = pass_one_fallback_basis();
  const PivotRuleCoverage coverage = expect_same_pivots(basis, 0);
  EXPECT_GT(coverage.fallback_steps, 0);
  EXPECT_GT(coverage.capped_steps, 0);
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(basis.m, basis.views()));
  // The first pivot is the last block's amplifying (s, k) pick.
  EXPECT_EQ(lu.pivot_rows()[0], 395);
  EXPECT_EQ(lu.pivot_cols()[0], 159);
}

// ------------------------------------------------- end-to-end differential

Model random_lp(common::Rng& rng) {
  Model model;
  const int n = 4 + static_cast<int>(rng.next_below(8));
  const int m = 3 + static_cast<int>(rng.next_below(6));
  for (int j = 0; j < n; ++j) {
    model.add_variable(0.0, 1.0 + rng.next_double() * 9.0,
                       rng.next_double() * 4.0 - 2.0);
  }
  for (int i = 0; i < m; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.next_bool(0.4)) {
        terms.push_back({j, rng.next_double() * 2.0 - 0.5});
      }
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    const Sense sense = rng.next_bool(0.3)
                            ? Sense::kGreaterEqual
                            : (rng.next_bool(0.2) ? Sense::kEqual
                                                  : Sense::kLessEqual);
    model.add_constraint(std::move(terms), sense,
                         rng.next_double() * 6.0 - 1.0);
  }
  return model;
}

// The solver-level hierarchy: the Forrest-Tomlin revised simplex vs the
// dense tableau on random LPs — same status, same optimum.
TEST(LuFactorizationTest, RevisedSimplexMatchesDenseTableau) {
  for (int trial = 0; trial < 120; ++trial) {
    common::Rng rng(static_cast<std::uint64_t>(trial) * 2654435761u + 11);
    const Model model = random_lp(rng);
    const Solution ft = solve(model);
    SolveOptions dense_options;
    dense_options.algorithm = Algorithm::kDenseTableau;
    const Solution dense = solve(model, dense_options);
    ASSERT_EQ(ft.status, dense.status) << "trial " << trial;
    if (dense.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(ft.objective, dense.objective, 1e-6) << "trial " << trial;
    }
  }
}

// Warm row addition at the solver level: appending a violated row to a
// solved basis and reoptimizing must agree with a cold solve of the
// extended model.
TEST(LuFactorizationTest, WarmRowAdditionMatchesColdSolve) {
  for (int trial = 0; trial < 80; ++trial) {
    common::Rng rng(static_cast<std::uint64_t>(trial) * 48271 + 23);
    Model model = random_lp(rng);
    RevisedSimplex warm(model);
    const Solution first = warm.solve_cold();
    if (first.status != SolveStatus::kOptimal) continue;

    // A row cutting off part of the box keeps the LP interesting; three
    // rounds of add + reoptimize.
    for (int round = 0; round < 3; ++round) {
      std::vector<Term> terms;
      for (int j = 0; j < model.variable_count(); ++j) {
        if (rng.next_bool(0.5)) terms.push_back({j, 1.0 + rng.next_double()});
      }
      if (terms.empty()) terms.push_back({0, 1.0});
      double activity = 0.0;
      for (const Term& term : terms) {
        activity += term.coefficient *
                    first.values[static_cast<std::size_t>(term.variable)];
      }
      const double rhs = activity * (0.4 + rng.next_double() * 0.4);
      warm.add_row(terms, Sense::kLessEqual, rhs);
      model.add_constraint(terms, Sense::kLessEqual, rhs);

      const Solution warm_solution = warm.reoptimize();
      if (warm.numerical_trouble()) break;  // cold fallback covered elsewhere
      const Solution cold = solve(model);
      ASSERT_EQ(warm_solution.status, cold.status)
          << "trial " << trial << " round " << round;
      if (cold.status != SolveStatus::kOptimal) break;
      EXPECT_NEAR(warm_solution.objective, cold.objective, 1e-6)
          << "trial " << trial << " round " << round;
    }
  }
}

// ------------------------------------------------------- seeded fuzz entry

std::vector<std::uint64_t> configured_seeds() {
  std::vector<std::uint64_t> seeds;
  const auto parse_into = [&seeds](std::istream& in) {
    std::uint64_t seed = 0;
    while (in >> seed) seeds.push_back(seed);
  };
  if (const char* file = std::getenv("FPVA_LU_SEED_FILE")) {
    std::ifstream in(file);
    EXPECT_TRUE(in.good()) << "FPVA_LU_SEED_FILE unreadable: " << file;
    parse_into(in);
  }
  if (const char* inline_seeds = std::getenv("FPVA_LU_FUZZ_SEEDS")) {
    std::istringstream in(inline_seeds);
    parse_into(in);
  }
  return seeds;
}

// ctest and CI's nightly-style step point FPVA_LU_SEED_FILE at the
// committed seed list (tests/lu_fuzz_seeds.txt); run directly, the test is
// a no-op unless seeds are configured.
TEST(LuFuzzTest, SeededSweep) {
  const std::vector<std::uint64_t> seeds = configured_seeds();
  for (const std::uint64_t seed : seeds) {
    run_basis_walk(seed, LuFactorization::Options{}, true);
    LuFactorization::Options tight;
    tight.max_updates = 2;
    run_basis_walk(seed ^ 0x9e3779b97f4a7c15ULL, tight, true);
    check_pivot_order(seed, nullptr);
  }
}

}  // namespace
}  // namespace fpva::lp
