#ifndef MIRABEL_STORAGE_TABLE_H_
#define MIRABEL_STORAGE_TABLE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "storage/flat_index.h"

namespace mirabel::storage {

/// Minimal in-memory table: append-only rows with a flat primary-key index
/// (FlatIndex) and predicate scans. The storage substrate intentionally keeps
/// the query surface small — the LEDMS components need keyed lookup and
/// predicate scan, not a full query engine.
///
/// Rows are never erased or replaced, so a row's position is its insertion
/// rank for the table's lifetime: readers may keep positions.
///
/// `KeyFn` extracts the integral primary key from a row.
template <typename Row, typename Key = int64_t>
class Table {
 public:
  using KeyFn = std::function<Key(const Row&)>;

  explicit Table(KeyFn key_fn) : key_fn_(std::move(key_fn)) {}

  /// Appends a row at position size(); AlreadyExists when the key is taken,
  /// ResourceExhausted past FlatIndex::kMaxValue rows.
  Status Insert(Row row) {
    if (rows_.size() > FlatIndex<Key>::kMaxValue) {
      return Status::ResourceExhausted("table row positions exhausted");
    }
    if (!index_.Insert(key_fn_(row), static_cast<uint32_t>(rows_.size()))) {
      return Status::AlreadyExists("duplicate primary key");
    }
    rows_.push_back(std::move(row));
    return Status::OK();
  }

  /// Keyed lookup; NotFound when absent.
  Result<const Row*> Find(const Key& key) const {
    MIRABEL_ASSIGN_OR_RETURN(size_t pos, Position(key));
    return &rows_[pos];
  }

  /// Row position of `key` (see at()); NotFound when absent.
  Result<size_t> Position(const Key& key) const {
    std::optional<uint32_t> pos = index_.Find(key);
    if (!pos.has_value()) return Status::NotFound("key not in table");
    return size_t{*pos};
  }

  /// The row at position `pos` < size(): the row inserted pos-th.
  const Row& at(size_t pos) const { return rows_[pos]; }
  Row& at(size_t pos) { return rows_[pos]; }

  /// Returns copies of all rows matching `predicate`, in insertion order.
  /// Seeded replays depend on this order.
  std::vector<Row> Scan(
      const std::function<bool(const Row&)>& predicate) const {
    std::vector<Row> out;
    for (const Row& row : rows_) {
      if (predicate(row)) out.push_back(row);
    }
    return out;
  }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

 private:
  KeyFn key_fn_;
  std::vector<Row> rows_;
  FlatIndex<Key> index_;
};

}  // namespace mirabel::storage

#endif  // MIRABEL_STORAGE_TABLE_H_
