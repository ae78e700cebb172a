#ifndef MIRABEL_STORAGE_TABLE_H_
#define MIRABEL_STORAGE_TABLE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace mirabel::storage {

/// Minimal in-memory table: append-ordered rows with a hash primary-key
/// index and predicate scans. The storage substrate intentionally keeps the
/// query surface small — the LEDMS components need keyed lookup, predicate
/// scan and upsert, not a full query engine.
///
/// `KeyFn` extracts the primary key from a row.
template <typename Row, typename Key = int64_t>
class Table {
 public:
  using KeyFn = std::function<Key(const Row&)>;

  explicit Table(KeyFn key_fn) : key_fn_(std::move(key_fn)) {}

  /// Inserts a row; AlreadyExists when the key is taken.
  Status Insert(Row row) {
    Key key = key_fn_(row);
    if (index_.count(key) != 0) {
      return Status::AlreadyExists("duplicate primary key");
    }
    index_.emplace(key, rows_.size());
    rows_.push_back(std::move(row));
    return Status::OK();
  }

  /// Inserts or replaces by key.
  void Upsert(Row row) {
    Key key = key_fn_(row);
    auto it = index_.find(key);
    if (it == index_.end()) {
      index_.emplace(key, rows_.size());
      rows_.push_back(std::move(row));
    } else {
      rows_[it->second] = std::move(row);
    }
  }

  /// Keyed lookup; NotFound when absent.
  Result<const Row*> Find(const Key& key) const {
    auto it = index_.find(key);
    if (it == index_.end()) return Status::NotFound("key not in table");
    return &rows_[it->second];
  }

  /// Mutable keyed lookup; NotFound when absent.
  Result<Row*> FindMutable(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return Status::NotFound("key not in table");
    return &rows_[it->second];
  }

  /// Row position of `key` (see at()); NotFound when absent.
  Result<size_t> Position(const Key& key) const {
    auto it = index_.find(key);
    if (it == index_.end()) return Status::NotFound("key not in table");
    return it->second;
  }

  /// The row at position `pos` < size(). A row's position is its insertion
  /// rank and stays fixed until an Erase.
  const Row& at(size_t pos) const { return rows_[pos]; }
  Row& at(size_t pos) { return rows_[pos]; }

  /// Deletes by key (swap-with-last); NotFound when absent. Moving the last
  /// row into the erased position changes the row order and that row's
  /// position, so a table whose readers keep positions or rely on insertion
  /// order (DataStore's flex-offer table) must never erase.
  Status Erase(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return Status::NotFound("key not in table");
    size_t pos = it->second;
    size_t last = rows_.size() - 1;
    if (pos != last) {
      rows_[pos] = std::move(rows_[last]);
      index_[key_fn_(rows_[pos])] = pos;
    }
    rows_.pop_back();
    index_.erase(it);
    return Status::OK();
  }

  /// Returns copies of all rows matching `predicate`, in row order: insertion
  /// order for a table that never erased. Seeded replays depend on this.
  std::vector<Row> Scan(const std::function<bool(const Row&)>& predicate) const {
    std::vector<Row> out;
    for (const Row& row : rows_) {
      if (predicate(row)) out.push_back(row);
    }
    return out;
  }

  /// Applies `fn` to every row (read-only full scan).
  void ForEach(const std::function<void(const Row&)>& fn) const {
    for (const Row& row : rows_) fn(row);
  }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

 private:
  KeyFn key_fn_;
  std::vector<Row> rows_;
  std::unordered_map<Key, size_t> index_;
};

}  // namespace mirabel::storage

#endif  // MIRABEL_STORAGE_TABLE_H_
