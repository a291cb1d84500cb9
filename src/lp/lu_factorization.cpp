#include "lp/lu_factorization.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace fpva::lp {

namespace {

/// Pass 0 of a Markowitz pivot step ranks the first this-many active
/// columns (in column order) whose count is within 3 of the minimum; every
/// active column is ranked only when none of them holds a stable pivot.
constexpr int kPivotCandidateCap = 64;
constexpr int kWordBits = 64;

/// Value of working-matrix row (cols, vals) in column `col`, 0 if absent.
double row_entry(const std::vector<int>& cols, const std::vector<double>& vals,
                 int col) {
  for (std::size_t s = 0; s < cols.size(); ++s) {
    if (cols[s] == col) return vals[s];
  }
  return 0.0;
}

/// Incremental Markowitz pivot search over the elimination's working
/// matrix. Active columns are filed in one bitset per column count, so the
/// minimum count is the first non-empty bucket and the pass-0 candidates
/// pop out in column order. Each column's best pivot is cached until the
/// elimination touches the column (its count, a value or a row count in
/// it changed). Lives for one factorize() call.
class PivotSearch {
 public:
  PivotSearch(const std::vector<std::vector<int>>& row_cols,
              const std::vector<std::vector<double>>& row_vals,
              const std::vector<std::vector<int>>& col_rows,
              const LuFactorization::Options& options)
      : row_cols_(row_cols),
        row_vals_(row_vals),
        col_rows_(col_rows),
        options_(options),
        words_((col_rows.size() + kWordBits - 1) / kWordBits),
        best_(col_rows.size()),
        stale_(col_rows.size(), 1) {
    for (std::size_t j = 0; j < col_rows.size(); ++j) {
      move(static_cast<int>(j), -1, static_cast<int>(col_rows[j].size()));
    }
  }

  /// The column's cached best pivot is out of date.
  void touch(int col) { stale_[static_cast<std::size_t>(col)] = 1; }

  /// Moves `col` from count bucket `from` to `to` (-1: not filed).
  void move(int col, int from, int to) {
    const auto word = static_cast<std::size_t>(col / kWordBits);
    const std::uint64_t bit = std::uint64_t{1} << (col % kWordBits);
    if (from >= 0) {
      --size_[static_cast<std::size_t>(from)];
      bits_[static_cast<std::size_t>(from) * words_ + word] &= ~bit;
    }
    if (to >= 0) {
      const auto ts = static_cast<std::size_t>(to);
      if (ts >= size_.size()) {
        size_.resize(ts + 1, 0);
        bits_.resize((ts + 1) * words_, 0);
      }
      ++size_[ts];
      bits_[ts * words_ + word] |= bit;
    }
  }

  /// Markowitz cost (r-1)*(c-1), ties to the larger pivot, then the lower
  /// column, then the lower row. False when the active part is singular.
  bool select(int* pivot_row, int* pivot_col) {
    // An empty active column (bucket 0) is structurally singular.
    const std::size_t buckets = size_.size();
    std::size_t min_count = 0;
    while (min_count < buckets && size_[min_count] == 0) ++min_count;
    if (min_count == 0 || min_count == buckets) return false;

    // Columns are ranked in ascending order, so keeping the first of equal
    // (cost, mag) picks settles the column tie-break.
    const Best* best = nullptr;
    const auto rank = [&](int col) {
      const Best& candidate = column_best(col);
      if (candidate.row < 0) return;
      if (best == nullptr || candidate.cost < best->cost ||
          (candidate.cost == best->cost && candidate.mag > best->mag)) {
        best = &candidate;
        *pivot_col = col;
      }
    };
    // Ranks the first `cap` columns, in column order, of buckets
    // min_count..last.
    const auto scan = [&](std::size_t last, int cap) {
      int taken = 0;
      for (std::size_t w = 0; w < words_ && taken < cap; ++w) {
        std::uint64_t word = 0;
        for (std::size_t c = min_count; c <= last; ++c) {
          word |= bits_[c * words_ + w];
        }
        for (; word != 0 && taken < cap; word &= word - 1, ++taken) {
          rank(static_cast<int>(w) * kWordBits + std::countr_zero(word));
        }
      }
    };
    scan(std::min(min_count + 3, buckets - 1), kPivotCandidateCap);
    // Nothing stable among those candidates: rank every active column.
    if (best == nullptr) scan(buckets - 1, std::numeric_limits<int>::max());
    if (best == nullptr) return false;
    *pivot_row = best->row;
    return true;
  }

 private:
  struct Best {
    long long cost = 0;  ///< Markowitz cost (r-1)(c-1)
    double mag = 0.0;    ///< |pivot|
    int row = -1;        ///< -1 when the column holds no stable pivot
  };

  /// The column's best pivot under threshold partial pivoting (a pivot
  /// must reach pivot_tolerance of its column max); ties prefer the larger
  /// pivot, then the lower row. Recomputed only when the column is stale.
  const Best& column_best(int col) {
    const auto js = static_cast<std::size_t>(col);
    Best& best = best_[js];
    if (!stale_[js]) return best;
    stale_[js] = 0;
    best = Best{};
    const auto& rows = col_rows_[js];
    vals_.resize(rows.size());
    double col_max = 0.0;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const auto is = static_cast<std::size_t>(rows[k]);
      vals_[k] = row_entry(row_cols_[is], row_vals_[is], col);
      col_max = std::max(col_max, std::abs(vals_[k]));
    }
    if (col_max <= options_.singular_tolerance) return best;
    const double acceptable = options_.pivot_tolerance * col_max;
    const long long col_cost = static_cast<long long>(rows.size()) - 1;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const double mag = std::abs(vals_[k]);
      if (mag < acceptable || mag <= options_.singular_tolerance) continue;
      const int i = rows[k];
      const long long cost =
          (static_cast<long long>(
               row_cols_[static_cast<std::size_t>(i)].size()) -
           1) *
          col_cost;
      if (best.row < 0 || cost < best.cost ||
          (cost == best.cost &&
           (mag > best.mag || (mag == best.mag && i < best.row)))) {
        best = {cost, mag, i};
      }
    }
    return best;
  }

  const std::vector<std::vector<int>>& row_cols_;
  const std::vector<std::vector<double>>& row_vals_;
  const std::vector<std::vector<int>>& col_rows_;
  const LuFactorization::Options& options_;
  std::size_t words_;                ///< 64-bit words per bucket
  std::vector<std::uint64_t> bits_;  ///< bucket c: words [c*words_, +words_)
  std::vector<int> size_;            ///< active columns per count
  std::vector<Best> best_;
  std::vector<char> stale_;
  std::vector<double> vals_;  ///< column_best() value scratch
};

}  // namespace

void LuFactorization::clear_factor() {
  lcols_.clear();
  l_rows_.clear();
  l_vals_.clear();
  retas_.clear();
  r_rows_.clear();
  r_vals_.clear();
  const auto m = static_cast<std::size_t>(m_);
  u_cols_.assign(m, {});
  u_vals_.assign(m, {});
  u_col_rows_.assign(m, {});
  diag_.assign(m, 0.0);
  row_of_order_.assign(m, -1);
  col_of_order_.assign(m, -1);
  order_of_row_.assign(m, -1);
  order_of_col_.assign(m, -1);
  acc_.assign(m, 0.0);
  stamp_.assign(m, 0);
  epoch_ = 0;
  pos_.assign(m, 0);
  pos_stamp_.assign(m, 0);
  pos_epoch_ = 0;
  spike_.assign(m, 0.0);
  spike_rows_.clear();
  spike_valid_ = false;
  updates_ = 0;
  nnz_ = 0;
  factor_nnz_ = 0;
}

bool LuFactorization::factorize(int m, const std::vector<BasisColumn>& columns) {
  m_ = m;
  valid_ = false;
  clear_factor();
  const auto ms = static_cast<std::size_t>(m);

  // Load the working matrix row-wise with a column-pattern transpose.
  w_row_cols_.assign(ms, {});
  w_row_vals_.assign(ms, {});
  std::vector<std::vector<int>> w_col_rows(ms);
  for (int p = 0; p < m; ++p) {
    const BasisColumn& column = columns[static_cast<std::size_t>(p)];
    for (int k = 0; k < column.size; ++k) {
      const int row = column.rows[k];
      const double value = column.values[k];
      if (value == 0.0) continue;
      w_row_cols_[static_cast<std::size_t>(row)].push_back(p);
      w_row_vals_[static_cast<std::size_t>(row)].push_back(value);
      w_col_rows[static_cast<std::size_t>(p)].push_back(row);
    }
  }
  PivotSearch search(w_row_cols_, w_row_vals_, w_col_rows, options_);

  std::vector<int> targets;  // col-pattern copy (patterns mutate below)
  for (int step = 0; step < m; ++step) {
    int pivot_row = -1, pivot_col = -1;
    if (!search.select(&pivot_row, &pivot_col)) return false;
    const auto rs = static_cast<std::size_t>(pivot_row);
    const auto cs = static_cast<std::size_t>(pivot_col);
    const double pivot = row_entry(w_row_cols_[rs], w_row_vals_[rs], pivot_col);

    row_of_order_[static_cast<std::size_t>(step)] = pivot_row;
    col_of_order_[static_cast<std::size_t>(step)] = pivot_col;
    order_of_row_[rs] = step;
    order_of_col_[cs] = step;
    diag_[rs] = pivot;

    // Scatter the pivot row (minus the pivot entry) for the combines.
    ++epoch_;
    for (std::size_t s = 0; s < w_row_cols_[rs].size(); ++s) {
      const int c2 = w_row_cols_[rs][s];
      if (c2 == pivot_col) continue;
      acc_[static_cast<std::size_t>(c2)] = w_row_vals_[rs][s];
      stamp_[static_cast<std::size_t>(c2)] = epoch_;
    }

    targets.clear();
    for (const int i : w_col_rows[cs]) {
      if (i != pivot_row) targets.push_back(i);
    }
    std::sort(targets.begin(), targets.end());

    const int l_start = static_cast<int>(l_rows_.size());
    for (const int i : targets) {
      const auto is = static_cast<std::size_t>(i);
      const double mult =
          row_entry(w_row_cols_[is], w_row_vals_[is], pivot_col) / pivot;
      if (std::abs(mult) > options_.drop_tolerance) {
        l_rows_.push_back(i);
        l_vals_.push_back(mult);
        // Combine: row_i -= mult * (active part of the pivot row).
        ++pos_epoch_;
        for (std::size_t s = 0; s < w_row_cols_[is].size(); ++s) {
          const auto c2 = static_cast<std::size_t>(w_row_cols_[is][s]);
          pos_[c2] = static_cast<int>(s);
          pos_stamp_[c2] = pos_epoch_;
        }
        for (std::size_t s = 0; s < w_row_cols_[rs].size(); ++s) {
          const int c2 = w_row_cols_[rs][s];
          if (c2 == pivot_col) continue;
          const auto c2s = static_cast<std::size_t>(c2);
          const double delta = mult * w_row_vals_[rs][s];
          if (pos_stamp_[c2s] == pos_epoch_) {
            w_row_vals_[is][static_cast<std::size_t>(pos_[c2s])] -= delta;
          } else if (std::abs(delta) > options_.drop_tolerance) {
            w_row_cols_[is].push_back(c2);
            w_row_vals_[is].push_back(-delta);
            const int count = static_cast<int>(w_col_rows[c2s].size());
            search.move(c2, count, count + 1);
            w_col_rows[c2s].push_back(i);
          }
        }
      }
      // Compress row i: drop the pivot-column entry and anything tiny.
      // Row i's count or values changed, so every column in it is stale.
      std::size_t out = 0;
      for (std::size_t s = 0; s < w_row_cols_[is].size(); ++s) {
        const int c2 = w_row_cols_[is][s];
        const double v = w_row_vals_[is][s];
        if (c2 == pivot_col) continue;  // col pattern cleared wholesale below
        search.touch(c2);
        if (std::abs(v) <= options_.drop_tolerance) {
          auto& rows = w_col_rows[static_cast<std::size_t>(c2)];
          const int count = static_cast<int>(rows.size());
          search.move(c2, count, count - 1);
          rows.erase(std::find(rows.begin(), rows.end(), i));
          continue;
        }
        w_row_cols_[is][out] = c2;
        w_row_vals_[is][out] = v;
        ++out;
      }
      w_row_cols_[is].resize(out);
      w_row_vals_[is].resize(out);
    }
    if (static_cast<int>(l_rows_.size()) > l_start) {
      lcols_.push_back(
          {pivot_row, l_start, static_cast<int>(l_rows_.size())});
    }

    // Freeze the pivot row: its remaining entries become U row pivot_row,
    // and each of their columns loses an entry.
    std::size_t out = 0;
    for (std::size_t s = 0; s < w_row_cols_[rs].size(); ++s) {
      const int c2 = w_row_cols_[rs][s];
      if (c2 == pivot_col) continue;
      search.touch(c2);
      auto& rows = w_col_rows[static_cast<std::size_t>(c2)];
      const int count = static_cast<int>(rows.size());
      search.move(c2, count, count - 1);
      rows.erase(std::find(rows.begin(), rows.end(), pivot_row));
      w_row_cols_[rs][out] = c2;
      w_row_vals_[rs][out] = w_row_vals_[rs][s];
      ++out;
    }
    w_row_cols_[rs].resize(out);
    w_row_vals_[rs].resize(out);
    search.move(pivot_col, static_cast<int>(w_col_rows[cs].size()), -1);
    w_col_rows[cs].clear();
  }

  // The frozen rows are exactly U; steal their storage.
  u_cols_ = std::move(w_row_cols_);
  u_vals_ = std::move(w_row_vals_);
  w_row_cols_.clear();
  w_row_vals_.clear();
  for (int r = 0; r < m; ++r) {
    for (const int c : u_cols_[static_cast<std::size_t>(r)]) {
      u_col_rows_[static_cast<std::size_t>(c)].push_back(r);
    }
  }

  nnz_ = static_cast<long>(l_rows_.size()) + m;
  for (int r = 0; r < m; ++r) {
    nnz_ += static_cast<long>(u_cols_[static_cast<std::size_t>(r)].size());
  }
  factor_nnz_ = nnz_;
  valid_ = true;
  return true;
}

void LuFactorization::ftran(std::vector<double>& dense,
                            bool save_spike) const {
  for (const LCol& lc : lcols_) {
    const double t = dense[static_cast<std::size_t>(lc.pivot_row)];
    if (t == 0.0) continue;
    for (int k = lc.start; k < lc.end; ++k) {
      dense[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(k)])] -=
          l_vals_[static_cast<std::size_t>(k)] * t;
    }
  }
  for (const RowEta& re : retas_) {
    double s = dense[static_cast<std::size_t>(re.target_row)];
    for (int k = re.start; k < re.end; ++k) {
      s -= r_vals_[static_cast<std::size_t>(k)] *
           dense[static_cast<std::size_t>(r_rows_[static_cast<std::size_t>(k)])];
    }
    dense[static_cast<std::size_t>(re.target_row)] = s;
  }
  if (save_spike) {
    spike_rows_.clear();
    std::fill(spike_.begin(), spike_.end(), 0.0);
    for (int i = 0; i < m_; ++i) {
      const double v = dense[static_cast<std::size_t>(i)];
      if (v != 0.0) {
        spike_[static_cast<std::size_t>(i)] = v;
        spike_rows_.push_back(i);
      }
    }
    spike_valid_ = true;
  }
  // Back substitution U x = y, walking pivots last-to-first.
  work_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    const auto r =
        static_cast<std::size_t>(row_of_order_[static_cast<std::size_t>(k)]);
    const auto c =
        static_cast<std::size_t>(col_of_order_[static_cast<std::size_t>(k)]);
    double s = dense[r];
    const auto& cols = u_cols_[r];
    const auto& vals = u_vals_[r];
    for (std::size_t t = 0; t < cols.size(); ++t) {
      s -= vals[t] * work_[static_cast<std::size_t>(cols[t])];
    }
    work_[c] = s / diag_[r];
  }
  std::copy(work_.begin(), work_.end(), dense.begin());
}

void LuFactorization::btran(std::vector<double>& dense) const {
  // Forward substitution U^T z = c, scattering each solved row.
  work_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    const auto r =
        static_cast<std::size_t>(row_of_order_[static_cast<std::size_t>(k)]);
    const auto c =
        static_cast<std::size_t>(col_of_order_[static_cast<std::size_t>(k)]);
    const double z = dense[c] / diag_[r];
    work_[r] = z;
    if (z == 0.0) continue;
    const auto& cols = u_cols_[r];
    const auto& vals = u_vals_[r];
    for (std::size_t t = 0; t < cols.size(); ++t) {
      dense[static_cast<std::size_t>(cols[t])] -= vals[t] * z;
    }
  }
  // Transposed row etas, newest first.
  for (auto it = retas_.rbegin(); it != retas_.rend(); ++it) {
    const double t = work_[static_cast<std::size_t>(it->target_row)];
    if (t == 0.0) continue;
    for (int k = it->start; k < it->end; ++k) {
      work_[static_cast<std::size_t>(r_rows_[static_cast<std::size_t>(k)])] -=
          r_vals_[static_cast<std::size_t>(k)] * t;
    }
  }
  // Transposed elimination columns, newest first.
  for (auto it = lcols_.rbegin(); it != lcols_.rend(); ++it) {
    double s = 0.0;
    for (int k = it->start; k < it->end; ++k) {
      s += l_vals_[static_cast<std::size_t>(k)] *
           work_[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(k)])];
    }
    work_[static_cast<std::size_t>(it->pivot_row)] -= s;
  }
  std::copy(work_.begin(), work_.end(), dense.begin());
}

void LuFactorization::erase_u_entry(int row, int col) {
  auto& cols = u_cols_[static_cast<std::size_t>(row)];
  auto& vals = u_vals_[static_cast<std::size_t>(row)];
  for (std::size_t s = 0; s < cols.size(); ++s) {
    if (cols[s] == col) {
      cols[s] = cols.back();
      vals[s] = vals.back();
      cols.pop_back();
      vals.pop_back();
      return;
    }
  }
}

void LuFactorization::erase_u_col_row(int col, int row) {
  auto& rows = u_col_rows_[static_cast<std::size_t>(col)];
  for (std::size_t s = 0; s < rows.size(); ++s) {
    if (rows[s] == row) {
      rows[s] = rows.back();
      rows.pop_back();
      return;
    }
  }
}

bool LuFactorization::update(int position, double pivot_value) {
  if (!valid_ || !spike_valid_) {
    valid_ = false;
    return false;
  }
  const int t = order_of_col_[static_cast<std::size_t>(position)];
  const int r = row_of_order_[static_cast<std::size_t>(t)];
  const auto rs = static_cast<std::size_t>(r);
  const auto ps = static_cast<std::size_t>(position);
  const double old_diag = diag_[rs];

  // Drop the replaced column of U.
  for (const int i : u_col_rows_[ps]) {
    erase_u_entry(i, position);
    --nnz_;
  }
  u_col_rows_[ps].clear();

  // Capture the pivot row into the accumulator and detach it from U.
  ++epoch_;
  for (std::size_t s = 0; s < u_cols_[rs].size(); ++s) {
    const auto c2 = static_cast<std::size_t>(u_cols_[rs][s]);
    acc_[c2] = u_vals_[rs][s];
    stamp_[c2] = epoch_;
    erase_u_col_row(u_cols_[rs][s], r);
    --nnz_;
  }
  u_cols_[rs].clear();
  u_vals_[rs].clear();

  // Scatter the spike: off-pivot rows gain a U entry in `position`; the
  // pivot row's spike entry seeds the new diagonal.
  acc_[ps] = 0.0;
  stamp_[ps] = epoch_;
  for (const int i : spike_rows_) {
    const double v = spike_[static_cast<std::size_t>(i)];
    if (std::abs(v) <= options_.drop_tolerance) continue;
    if (i == r) {
      acc_[ps] = v;
      continue;
    }
    u_cols_[static_cast<std::size_t>(i)].push_back(position);
    u_vals_[static_cast<std::size_t>(i)].push_back(v);
    u_col_rows_[ps].push_back(i);
    ++nnz_;
  }
  spike_valid_ = false;

  // Cyclic shift: orders (t, m) move down one, the updated pivot goes last.
  for (int k = t; k < m_ - 1; ++k) {
    const int nr = row_of_order_[static_cast<std::size_t>(k) + 1];
    const int nc = col_of_order_[static_cast<std::size_t>(k) + 1];
    row_of_order_[static_cast<std::size_t>(k)] = nr;
    col_of_order_[static_cast<std::size_t>(k)] = nc;
    order_of_row_[static_cast<std::size_t>(nr)] = k;
    order_of_col_[static_cast<std::size_t>(nc)] = k;
  }
  row_of_order_[static_cast<std::size_t>(m_) - 1] = r;
  col_of_order_[static_cast<std::size_t>(m_) - 1] = position;
  order_of_row_[rs] = m_ - 1;
  order_of_col_[ps] = m_ - 1;

  // Eliminate the detached row against the pivots it now trails, recording
  // the multipliers as one Forrest-Tomlin row eta.
  const int reta_start = static_cast<int>(r_rows_.size());
  for (int k = t; k < m_ - 1; ++k) {
    const auto cj =
        static_cast<std::size_t>(col_of_order_[static_cast<std::size_t>(k)]);
    if (stamp_[cj] != epoch_) continue;
    const double v = acc_[cj];
    if (std::abs(v) <= options_.drop_tolerance) continue;
    const auto rj =
        static_cast<std::size_t>(row_of_order_[static_cast<std::size_t>(k)]);
    const double mult = v / diag_[rj];
    r_rows_.push_back(static_cast<int>(rj));
    r_vals_.push_back(mult);
    const auto& cols = u_cols_[rj];
    const auto& vals = u_vals_[rj];
    for (std::size_t s = 0; s < cols.size(); ++s) {
      const auto c2 = static_cast<std::size_t>(cols[s]);
      if (stamp_[c2] == epoch_) {
        acc_[c2] -= mult * vals[s];
      } else {
        acc_[c2] = -mult * vals[s];
        stamp_[c2] = epoch_;
      }
    }
  }

  const double new_diag = stamp_[ps] == epoch_ ? acc_[ps] : 0.0;
  const int reta_end = static_cast<int>(r_rows_.size());
  if (std::abs(new_diag) <= options_.singular_tolerance) {
    valid_ = false;
    return false;
  }
  // Determinant identity: the new diagonal must equal old_diag * alpha_p.
  const double expected = old_diag * pivot_value;
  const double err = std::abs(new_diag - expected);
  if (err > options_.stability_tolerance *
                std::max({1.0, std::abs(new_diag), std::abs(expected)})) {
    valid_ = false;
    return false;
  }
  diag_[rs] = new_diag;
  if (reta_end > reta_start) {
    retas_.push_back({r, reta_start, reta_end});
    nnz_ += reta_end - reta_start;
  }
  ++updates_;
  return true;
}

bool LuFactorization::add_row(const std::vector<int>& positions,
                              const std::vector<double>& values) {
  if (!valid_) return false;
  // Solve U^T w = a; w becomes the row eta tying the new row to the old
  // factors (B_new = [[L,0],[w^T,1]] * [[U,0],[0,1]]).
  work2_.assign(static_cast<std::size_t>(m_), 0.0);
  for (std::size_t k = 0; k < positions.size(); ++k) {
    work2_[static_cast<std::size_t>(positions[k])] = values[k];
  }
  acc_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    const auto r =
        static_cast<std::size_t>(row_of_order_[static_cast<std::size_t>(k)]);
    const auto c =
        static_cast<std::size_t>(col_of_order_[static_cast<std::size_t>(k)]);
    const double z = work2_[c] / diag_[r];
    acc_[r] = z;
    if (z == 0.0) continue;
    const auto& cols = u_cols_[r];
    const auto& vals = u_vals_[r];
    for (std::size_t s = 0; s < cols.size(); ++s) {
      work2_[static_cast<std::size_t>(cols[s])] -= vals[s] * z;
    }
  }
  const int reta_start = static_cast<int>(r_rows_.size());
  for (int i = 0; i < m_; ++i) {
    const double w = acc_[static_cast<std::size_t>(i)];
    if (std::abs(w) <= options_.drop_tolerance) continue;
    r_rows_.push_back(i);
    r_vals_.push_back(w);
  }
  const int reta_end = static_cast<int>(r_rows_.size());
  if (reta_end > reta_start) {
    retas_.push_back({m_, reta_start, reta_end});
    nnz_ += reta_end - reta_start;
  }

  // Grow every per-row / per-position structure by the new unit pivot.
  diag_.push_back(1.0);
  u_cols_.emplace_back();
  u_vals_.emplace_back();
  u_col_rows_.emplace_back();
  row_of_order_.push_back(m_);
  col_of_order_.push_back(m_);
  order_of_row_.push_back(m_);
  order_of_col_.push_back(m_);
  acc_.push_back(0.0);
  stamp_.push_back(0);
  spike_.push_back(0.0);
  spike_valid_ = false;
  ++m_;
  ++updates_;
  ++nnz_;
  return true;
}

bool LuFactorization::needs_refactor() const {
  if (!valid_) return true;
  if (updates_ >= options_.max_updates) return true;
  return static_cast<double>(nnz_) >
         options_.fill_ratio * static_cast<double>(factor_nnz_) +
             static_cast<double>(m_);
}

}  // namespace fpva::lp
