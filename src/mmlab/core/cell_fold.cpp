#include "mmlab/core/cell_fold.hpp"

#include <algorithm>
#include <bit>

namespace mmlab::core {

ParamKeySet::ParamKeySet(std::vector<config::ParamKey> keys)
    : keys_(std::move(keys)) {
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
}

bool ParamKeySet::contains(config::ParamKey key) const {
  return std::binary_search(keys_.begin(), keys_.end(), key);
}

std::vector<char> ParamKeySet::index_mask(
    const std::vector<config::ParamKey>& table) const {
  std::vector<char> mask(table.size(), 0);
  for (std::size_t i = 0; i < table.size(); ++i)
    if (contains(table[i])) mask[i] = 1;
  return mask;
}

namespace {

std::uint32_t pack(config::ParamKey key) {
  return (static_cast<std::uint32_t>(key.rat) << 16) | key.id;
}

}  // namespace

void CellFolder::fold(const CellRecord& rec) {
  next_stamp();
  if (rec.observations.size() < kMinBucketObservations)
    sort_packed(rec.observations);
  else
    group_by_key(rec.observations);
  build_slices(rec);
}

void CellFolder::fold_reference(const CellRecord& rec) {
  next_stamp();
  sort_by_key(rec.observations);
  build_slices(rec);
}

void CellFolder::next_stamp() {
  if (++stamp_ == 0) {  // wrapped: no stale stamp may equal a new one
    for (KeySlot& e : key_table_) e.stamp = 0;
    stamp_ = 1;
  }
}

const CellFolder::KeySlot* CellFolder::probe(std::uint32_t key) const {
  if (key_table_.empty()) return nullptr;
  const auto mask = static_cast<std::uint32_t>(key_table_.size() - 1);
  for (std::uint32_t s = hash_slot(key);; s = (s + 1) & mask) {
    if (key_table_[s].key == key) return &key_table_[s];
    if (key_table_[s].key == kEmptySlot) return nullptr;
  }
}

CellFolder::KeySlot& CellFolder::insert_key(std::uint32_t key) {
  if (key_table_.empty()) {
    key_table_.assign(kInitialKeySlots, {kEmptySlot, 0, 0, 0});
    key_shift_ = 32 - static_cast<unsigned>(std::countr_zero(kInitialKeySlots));
  }
  if (2 * (slot_keys_.size() + 1) > key_table_.size()) grow_key_table();
  const auto mask = static_cast<std::uint32_t>(key_table_.size() - 1);
  std::uint32_t s = hash_slot(key);
  while (key_table_[s].key != kEmptySlot) s = (s + 1) & mask;
  key_table_[s] = {key, static_cast<std::uint32_t>(slot_keys_.size()), 0, 0};
  slot_keys_.push_back({static_cast<spectrum::Rat>(key >> 16),
                        static_cast<std::uint16_t>(key)});
  return key_table_[s];
}

void CellFolder::sort_by_key(const std::vector<Observation>& obs) {
  order_.clear();
  order_.reserve(obs.size());
  for (std::uint32_t i = 0; i < obs.size(); ++i)
    order_.emplace_back(obs[i].key, i);
  std::sort(order_.begin(), order_.end());
}

// sort_by_key's order, sorting (key << 32 | index) integers instead of
// (ParamKey, index) pairs: the packed key orders like ParamKey's (rat, id)
// operator<=>.
void CellFolder::sort_packed(const std::vector<Observation>& obs) {
  sorted_keys_.clear();
  for (std::uint32_t i = 0; i < obs.size(); ++i)
    sorted_keys_.push_back((std::uint64_t{pack(obs[i].key)} << 32) | i);
  std::sort(sorted_keys_.begin(), sorted_keys_.end());
  order_.resize(obs.size());
  for (std::size_t j = 0; j < sorted_keys_.size(); ++j) {
    const auto i = static_cast<std::uint32_t>(sorted_keys_[j]);
    order_[j] = {obs[i].key, i};
  }
}

// The same order_ as fold_reference's sort: the packed key orders like
// ParamKey's (rat, id) operator<=>, and the scatter visits observations in
// ascending index, so each bucket is index-ascending.
void CellFolder::group_by_key(const std::vector<Observation>& obs) {
  const std::size_t n = obs.size();
  local_of_.resize(n);
  if (key_table_.empty()) insert_key(pack(obs.front().key));
  // A cell's distinct keys all have slots, so local_keys_ never needs more
  // entries than there are slots.
  if (local_keys_.size() < slot_keys_.size())
    local_keys_.resize(2 * slot_keys_.size());
  // Raw pointers: the loop's stores would otherwise make the compiler
  // reload every vector's data pointer per observation.
  KeySlot* table = key_table_.data();
  auto mask = static_cast<std::uint32_t>(key_table_.size() - 1);
  LocalKey* locals = local_keys_.data();
  std::uint32_t* local_of = local_of_.data();
  std::uint32_t n_local = 0;
  const std::uint32_t stamp = stamp_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t key = pack(obs[i].key);
    std::uint32_t s = hash_slot(key);
    while (table[s].key != key) {
      if (table[s].key == kEmptySlot) [[unlikely]] {
        insert_key(key);  // a key this folder has not seen: assign its slot
        table = key_table_.data();
        mask = static_cast<std::uint32_t>(key_table_.size() - 1);
        s = hash_slot(key);
        if (local_keys_.size() < slot_keys_.size()) {
          local_keys_.resize(2 * slot_keys_.size());
          locals = local_keys_.data();
        }
        continue;
      }
      s = (s + 1) & mask;
    }
    KeySlot& e = table[s];
    if (e.stamp != stamp) {
      e.stamp = stamp;
      e.local = n_local;
      locals[n_local++] = {key, 0};
    }
    ++locals[e.local].count;
    local_of[i] = e.local;
  }

  // Sort only the distinct keys, as (key << 32 | local) integers, then turn
  // their counts into bucket starts.
  sorted_keys_.clear();
  for (std::uint32_t l = 0; l < n_local; ++l)
    sorted_keys_.push_back((std::uint64_t{locals[l].key} << 32) | l);
  std::sort(sorted_keys_.begin(), sorted_keys_.end());
  std::uint32_t start = 0;
  for (const std::uint64_t key_local : sorted_keys_) {
    const auto l = static_cast<std::uint32_t>(key_local);
    const std::uint32_t count = locals[l].count;
    locals[l].count = start;
    start += count;
  }

  order_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i)
    order_[locals[local_of[i]].count++] = {obs[i].key, i};
}

void CellFolder::grow_key_table() {
  std::vector<KeySlot> old(2 * key_table_.size(), {kEmptySlot, 0, 0, 0});
  old.swap(key_table_);
  --key_shift_;
  const auto mask = static_cast<std::uint32_t>(key_table_.size() - 1);
  for (const KeySlot& e : old) {
    if (e.key == kEmptySlot) continue;
    std::uint32_t s = hash_slot(e.key);
    while (key_table_[s].key != kEmptySlot) s = (s + 1) & mask;
    key_table_[s] = e;
  }
}

void CellFolder::build_slices(const CellRecord& rec) {
  keys_.clear();
  uniq_.clear();
  ctx_context_.clear();
  ctx_value_.clear();

  for (std::size_t lo = 0; lo < order_.size();) {
    std::size_t hi = lo;
    while (hi < order_.size() && order_[hi].first == order_[lo].first) ++hi;

    KeySlice slice;
    slice.key = order_[lo].first;
    KeySlot& e = find_or_add(pack(slice.key));
    e.stamp = stamp_;
    e.local = static_cast<std::uint32_t>(keys_.size());
    slice.slot = e.slot;
    slice.obs_begin = static_cast<std::uint32_t>(lo);
    slice.obs_end = static_cast<std::uint32_t>(hi);
    // Same tie-break as CellRecord::latest: the *last* max-t observation
    // in original order wins, and t below the -1 sentinel never counts.
    SimTime best_t{-1};
    for (std::size_t j = lo; j < hi; ++j) {
      const Observation& obs = rec.observations[order_[j].second];
      if (obs.t >= best_t) {
        best_t = obs.t;
        slice.latest = obs.value;
        slice.has_latest = true;
      }
    }

    // First-seen-order dedup: a linear == scan over the uniques emitted
    // so far IS the legacy std::find algorithm (NaN never equals itself,
    // so every occurrence is "unique"; -0.0 == 0.0 collapses).  The
    // unordered_set spill past kLinearDedupLimit preserves those ==
    // semantics while avoiding the quadratic cliff.
    slice.uniq_begin = static_cast<std::uint32_t>(uniq_.size());
    bool uniq_spilled = false;
    for (std::size_t j = lo; j < hi; ++j) {
      const double v = rec.observations[order_[j].second].value;
      if (!uniq_spilled) {
        bool dup = false;
        for (std::size_t k = slice.uniq_begin; k < uniq_.size(); ++k) {
          if (uniq_[k] == v) {
            dup = true;
            break;
          }
        }
        if (dup) continue;
        if (uniq_.size() - slice.uniq_begin < kLinearDedupLimit) {
          uniq_.push_back(v);
          continue;
        }
        uniq_seen_.clear();
        uniq_seen_.insert(uniq_.begin() + slice.uniq_begin, uniq_.end());
        uniq_spilled = true;
      }
      if (uniq_seen_.insert(v).second) uniq_.push_back(v);
    }
    slice.uniq_end = static_cast<std::uint32_t>(uniq_.size());

    // Unique (context, value) pairs, context >= 0 only — the
    // values_by_context per-cell dedup.  Duplicates are defined by
    // std::set's < equivalence (as in the legacy scan), which the linear
    // path replicates via !(a<b) && !(b<a).
    slice.ctx_begin = static_cast<std::uint32_t>(ctx_value_.size());
    bool ctx_spilled = false;
    for (std::size_t j = lo; j < hi; ++j) {
      const Observation& obs = rec.observations[order_[j].second];
      if (obs.context < 0) continue;
      const std::pair<std::int64_t, double> p{obs.context, obs.value};
      if (!ctx_spilled) {
        bool dup = false;
        for (std::size_t k = slice.ctx_begin; k < ctx_value_.size(); ++k) {
          const std::pair<std::int64_t, double> q{ctx_context_[k],
                                                  ctx_value_[k]};
          if (!(p < q) && !(q < p)) {
            dup = true;
            break;
          }
        }
        if (dup) continue;
        if (ctx_value_.size() - slice.ctx_begin < kLinearDedupLimit) {
          ctx_context_.push_back(p.first);
          ctx_value_.push_back(p.second);
          continue;
        }
        ctx_seen_.clear();
        for (std::size_t k = slice.ctx_begin; k < ctx_value_.size(); ++k)
          ctx_seen_.insert({ctx_context_[k], ctx_value_[k]});
        ctx_spilled = true;
      }
      if (ctx_seen_.insert(p).second) {
        ctx_context_.push_back(p.first);
        ctx_value_.push_back(p.second);
      }
    }
    slice.ctx_end = static_cast<std::uint32_t>(ctx_value_.size());

    keys_.push_back(slice);
    lo = hi;
  }
}

const CellFolder::KeySlice* CellFolder::find(config::ParamKey key) const {
  const KeySlot* e = probe(pack(key));
  if (!e || e->stamp != stamp_) return nullptr;
  return &keys_[e->local];
}

std::span<const double> CellFolder::unique_values(config::ParamKey key) const {
  const KeySlice* s = find(key);
  if (!s) return {};
  return {uniq_.data() + s->uniq_begin,
          static_cast<std::size_t>(s->uniq_end - s->uniq_begin)};
}

}  // namespace mmlab::core
