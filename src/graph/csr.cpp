#include "graph/csr.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/expect.hpp"
#include "util/narrow.hpp"

namespace gcg {

Csr::Csr(std::vector<eid_t> row_offsets, std::vector<vid_t> col_indices)
    : rows_store_(std::move(row_offsets)), cols_store_(std::move(col_indices)) {
  if (rows_store_.empty()) {
    throw std::invalid_argument("csr: empty row offsets");
  }
  n_ = narrow<vid_t>(rows_store_.size() - 1);
  rebind_owned();
  validate();
}

Csr Csr::view(std::span<const eid_t> row_offsets,
              std::span<const vid_t> col_indices,
              std::shared_ptr<const void> keepalive) {
  if (row_offsets.empty()) {
    throw std::invalid_argument("csr view: empty row offsets");
  }
  if (row_offsets.front() != 0) {
    throw std::invalid_argument("csr view: rows[0] != 0");
  }
  if (row_offsets.back() != col_indices.size()) {
    throw std::invalid_argument("csr view: rows[n] != |cols|");
  }
  Csr g;
  g.n_ = narrow<vid_t>(row_offsets.size() - 1);
  g.view_ = true;
  g.rows_ = row_offsets;
  g.cols_ = col_indices;
  g.keepalive_ = std::move(keepalive);
  return g;
}

Csr::Csr(const Csr& other)
    : n_(other.n_),
      view_(other.view_),
      rows_store_(other.rows_store_),
      cols_store_(other.cols_store_),
      keepalive_(other.keepalive_) {
  if (view_) {
    rows_ = other.rows_;  // same borrowed memory, same anchor
    cols_ = other.cols_;
  } else {
    rebind_owned();
  }
}

Csr& Csr::operator=(const Csr& other) {
  if (this != &other) {
    Csr tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

Csr::Csr(Csr&& other) noexcept
    : n_(other.n_),
      view_(other.view_),
      rows_store_(std::move(other.rows_store_)),
      cols_store_(std::move(other.cols_store_)),
      keepalive_(std::move(other.keepalive_)) {
  if (view_) {
    rows_ = other.rows_;
    cols_ = other.cols_;
  } else {
    // vector move transfers the allocation, so rebinding lands on the
    // same bytes the source's spans pointed at.
    rebind_owned();
  }
  other.n_ = 0;
  other.view_ = false;
  other.rows_ = {};
  other.cols_ = {};
}

Csr& Csr::operator=(Csr&& other) noexcept {
  if (this != &other) {
    n_ = other.n_;
    view_ = other.view_;
    rows_store_ = std::move(other.rows_store_);
    cols_store_ = std::move(other.cols_store_);
    keepalive_ = std::move(other.keepalive_);
    if (view_) {
      rows_ = other.rows_;
      cols_ = other.cols_;
    } else {
      rebind_owned();
    }
    other.n_ = 0;
    other.view_ = false;
    other.rows_ = {};
    other.cols_ = {};
  }
  return *this;
}

void Csr::rebind_owned() {
  rows_ = rows_store_;
  cols_ = cols_store_;
}

vid_t Csr::max_degree() const {
  vid_t d = 0;
  for (vid_t v = 0; v < n_; ++v) d = std::max(d, degree(v));
  return d;
}

double Csr::avg_degree() const {
  return n_ ? static_cast<double>(num_arcs()) / static_cast<double>(n_) : 0.0;
}

void Csr::validate() const {
  if (rows_.empty()) throw std::invalid_argument("csr: empty row offsets");
  if (rows_.front() != 0) throw std::invalid_argument("csr: rows[0] != 0");
  for (std::size_t i = 1; i < rows_.size(); ++i) {
    if (rows_[i] < rows_[i - 1]) {
      throw std::invalid_argument("csr: row offsets not monotone");
    }
  }
  if (rows_.back() != cols_.size()) {
    throw std::invalid_argument("csr: rows[n] != |cols|");
  }
  for (vid_t c : cols_) {
    if (c >= n_) throw std::invalid_argument("csr: column index out of range");
  }
}

}  // namespace gcg
