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
  if (rec.observations.size() < kMinBucketObservations)
    sort_by_key(rec.observations);
  else
    group_by_key(rec.observations);
  build_slices(rec);
}

void CellFolder::fold_reference(const CellRecord& rec) {
  sort_by_key(rec.observations);
  build_slices(rec);
}

void CellFolder::sort_by_key(const std::vector<Observation>& obs) {
  order_.clear();
  order_.reserve(obs.size());
  for (std::uint32_t i = 0; i < obs.size(); ++i)
    order_.emplace_back(obs[i].key, i);
  std::sort(order_.begin(), order_.end());
}

// The same order_ as fold_reference's sort: the packed key orders like
// ParamKey's (rat, id) operator<=>, and the scatter visits observations in
// ascending index, so each bucket is index-ascending.
void CellFolder::group_by_key(const std::vector<Observation>& obs) {
  if (key_table_.empty()) {
    key_table_.assign(kInitialKeySlots, {kEmptySlot, 0});
    key_shift_ = 32 - static_cast<unsigned>(std::countr_zero(kInitialKeySlots));
  }
  const std::size_t n = obs.size();
  local_keys_.clear();
  local_of_.resize(n);
  // Raw pointers: the loop's stores would otherwise make the compiler
  // reload every vector's data pointer per observation.
  KeySlot* table = key_table_.data();
  auto mask = static_cast<std::uint32_t>(key_table_.size() - 1);
  LocalKey* locals = local_keys_.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t key = pack(obs[i].key);
    std::uint32_t local = 0;
    for (std::uint32_t s = hash_slot(key);; s = (s + 1) & mask) {
      if (table[s].key == key) {
        local = table[s].local;
        ++locals[local].count;
        break;
      }
      if (table[s].key == kEmptySlot) {
        local = static_cast<std::uint32_t>(local_keys_.size());
        table[s] = {key, local};
        local_keys_.push_back({key, s, 1});
        locals = local_keys_.data();
        if (2 * local_keys_.size() > key_table_.size()) {
          grow_key_table();
          table = key_table_.data();
          mask = static_cast<std::uint32_t>(key_table_.size() - 1);
        }
        break;
      }
    }
    local_of_[i] = local;
  }

  // Sort only the distinct keys, as (key << 32 | local) integers, then turn
  // their counts into bucket starts.
  sorted_keys_.clear();
  for (std::uint32_t l = 0; l < local_keys_.size(); ++l)
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
  const std::uint32_t* local_of = local_of_.data();
  for (std::uint32_t i = 0; i < n; ++i)
    order_[locals[local_of[i]].count++] = {obs[i].key, i};

  for (const LocalKey& lk : local_keys_) table[lk.slot].key = kEmptySlot;
}

void CellFolder::grow_key_table() {
  key_table_.assign(2 * key_table_.size(), {kEmptySlot, 0});
  --key_shift_;
  const auto mask = static_cast<std::uint32_t>(key_table_.size() - 1);
  for (std::uint32_t l = 0; l < local_keys_.size(); ++l) {
    LocalKey& lk = local_keys_[l];
    std::uint32_t s = hash_slot(lk.key);
    while (key_table_[s].key != kEmptySlot) s = (s + 1) & mask;
    key_table_[s] = {lk.key, l};
    lk.slot = s;
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
  const auto it = std::lower_bound(
      keys_.begin(), keys_.end(), key,
      [](const KeySlice& s, config::ParamKey k) { return s.key < k; });
  if (it == keys_.end() || !(it->key == key)) return nullptr;
  return &*it;
}

std::span<const double> CellFolder::unique_values(config::ParamKey key) const {
  const KeySlice* s = find(key);
  if (!s) return {};
  return {uniq_.data() + s->uniq_begin,
          static_cast<std::size_t>(s->uniq_end - s->uniq_begin)};
}

}  // namespace mmlab::core
