// Markowitz-pivoted sparse LU factorization of a simplex basis with
// Forrest-Tomlin column updates and warm row addition.
//
// The factorization maintains B = L * U where L is a product of elementary
// operators (column etas from the Markowitz elimination plus row etas from
// Forrest-Tomlin updates) and U is stored explicitly as sparse rows with a
// row/column pivot ordering. Replacing one basis column folds the FTRAN'd
// spike into U and appends a single bounded row eta, so fill grows with the
// spike size instead of compounding per pivot the way a product-form eta
// file does. Appending a row (a cut with its slack taking the new basis
// position) is one U^T solve plus one row eta — no refactorization.
//
// The class is deliberately standalone (columns come in as index/value
// views, vectors go in and out as dense arrays) so the differential fuzz
// harness in tests/lu_update_test.cpp can drive it against a dense solver
// and a product-form eta oracle without going through RevisedSimplex.
//
// Index spaces: FTRAN maps a vector indexed by row to a vector indexed by
// basis position (the coefficient of basis column p); BTRAN maps a vector
// indexed by basis position to one indexed by row. Rows and positions both
// range over [0, dimension()).
#ifndef FPVA_LP_LU_FACTORIZATION_H
#define FPVA_LP_LU_FACTORIZATION_H

#include <vector>

namespace fpva::lp {

/// One sparse basis column handed to LuFactorization::factorize — parallel
/// row-index / value views into caller-owned storage. Row indices must be
/// unique within a column.
struct BasisColumn {
  const int* rows = nullptr;
  const double* values = nullptr;
  int size = 0;
};

class LuFactorization {
 public:
  struct Options {
    /// Markowitz threshold pivoting: a pivot must reach this fraction of
    /// the largest entry in its column.
    double pivot_tolerance = 0.01;
    /// Entries below this magnitude are dropped during elimination.
    double drop_tolerance = 1e-12;
    /// A pivot (or updated diagonal) below this magnitude means singular.
    double singular_tolerance = 1e-11;
    /// Forrest-Tomlin consistency: the updated diagonal must match
    /// old_diagonal * alpha_pivot (a determinant identity) to this
    /// relative tolerance, else the update reports numerical trouble.
    double stability_tolerance = 1e-5;
    /// Updates (column replacements + row additions) after which
    /// needs_refactor() turns true.
    int max_updates = 100;
    /// needs_refactor() also turns true when the operator file grows past
    /// fill_ratio * (fresh factor nonzeros) + dimension().
    double fill_ratio = 3.0;
  };

  LuFactorization() = default;
  explicit LuFactorization(Options options) : options_(options) {}

  /// Factorizes the m x m basis whose position-p column is columns[p].
  /// Returns false (and leaves the factorization invalid) when the basis
  /// is structurally or numerically singular.
  bool factorize(int m, const std::vector<BasisColumn>& columns);

  bool valid() const { return valid_; }
  int dimension() const { return m_; }

  /// dense := B^-1 dense. With save_spike, the partial result L^-1 a is
  /// stashed for a following update() of the column this vector came from;
  /// later ftran calls without save_spike leave the stash untouched.
  void ftran(std::vector<double>& dense, bool save_spike = false) const;

  /// dense := B^-T dense.
  void btran(std::vector<double>& dense) const;

  /// Forrest-Tomlin update: the basis column at `position` is replaced by
  /// the column whose ftran(..., /*save_spike=*/true) produced the saved
  /// spike. `pivot_value` is that FTRAN's entry at `position` (the simplex
  /// pivot element), used for the determinant-identity stability check.
  /// Returns false on instability or a singular replacement; the caller
  /// should refactorize from the new basis.
  bool update(int position, double pivot_value);

  /// Appends row m and basis position m, extending the basis as
  /// B_new = [[B, 0], [a^T, 1]] — the new position holds the unit column
  /// of the new row (a cut's slack). `positions`/`values` give a^T, the
  /// new row's coefficients on the current basic columns, indexed by basis
  /// position. Returns false only when the factorization is invalid.
  bool add_row(const std::vector<int>& positions,
               const std::vector<double>& values);

  /// True when the update/fill policy says a fresh factorization pays off.
  bool needs_refactor() const;

  /// Pivot order: step k pivoted on row pivot_rows()[k] and basis
  /// position pivot_cols()[k]. Right after factorize() this is the
  /// elimination order (-1 past the step a singular basis stopped at);
  /// update() and add_row() then rotate and extend it.
  const std::vector<int>& pivot_rows() const { return row_of_order_; }
  const std::vector<int>& pivot_cols() const { return col_of_order_; }

  int updates_since_factor() const { return updates_; }
  long fill() const { return nnz_; }
  long factor_fill() const { return factor_nnz_; }

 private:
  /// Elementary column operator from the elimination: subtracts multiples
  /// of the pivot row's value from the listed rows (FTRAN order).
  struct LCol {
    int pivot_row = 0;
    int start = 0;  ///< first slot in l_rows_/l_vals_
    int end = 0;
  };
  /// Elementary row operator from a Forrest-Tomlin update or row addition:
  /// target_row -= sum multipliers * listed rows.
  struct RowEta {
    int target_row = 0;
    int start = 0;  ///< first slot in r_rows_/r_vals_
    int end = 0;
  };

  void clear_factor();
  void erase_u_entry(int row, int col);
  void erase_u_col_row(int col, int row);

  Options options_;
  int m_ = 0;
  bool valid_ = false;

  std::vector<LCol> lcols_;
  std::vector<int> l_rows_;
  std::vector<double> l_vals_;
  std::vector<RowEta> retas_;
  std::vector<int> r_rows_;
  std::vector<double> r_vals_;

  // U: per-row off-diagonal entries (column = basis position) plus the
  // diagonal, and the transpose pattern for column deletion on update.
  std::vector<std::vector<int>> u_cols_;
  std::vector<std::vector<double>> u_vals_;
  std::vector<std::vector<int>> u_col_rows_;
  std::vector<double> diag_;  ///< pivot value, indexed by row

  // Pivot ordering: order k pairs row_of_order_[k] with col_of_order_[k].
  std::vector<int> row_of_order_, col_of_order_;
  std::vector<int> order_of_row_, order_of_col_;

  int updates_ = 0;
  long nnz_ = 0;         ///< live operator + U entries
  long factor_nnz_ = 0;  ///< nnz_ right after the last factorize()

  // Saved FTRAN intermediate (L^-1 a, indexed by row) for update().
  mutable std::vector<double> spike_;
  mutable std::vector<int> spike_rows_;
  mutable bool spike_valid_ = false;

  // Factorization working rows (members to reuse allocations).
  std::vector<std::vector<int>> w_row_cols_;
  std::vector<std::vector<double>> w_row_vals_;

  mutable std::vector<double> work_;   ///< ftran/btran solve scratch
  mutable std::vector<double> work2_;  ///< second solve scratch
  std::vector<double> acc_;            ///< update/elimination row scratch
  std::vector<int> stamp_;             ///< acc_ column membership stamps
  int epoch_ = 0;
  std::vector<int> pos_, pos_stamp_;   ///< row-slot index scratch
  int pos_epoch_ = 0;
};

}  // namespace fpva::lp

#endif  // FPVA_LP_LU_FACTORIZATION_H
