#include "mmlab/netgen/generator.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "mmlab/netgen/streamgen.hpp"

namespace mmlab::netgen {

namespace {

/// Chain-hash arbitrary keys into one 64-bit seed.
std::uint64_t hash_keys(std::initializer_list<std::uint64_t> keys) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (auto k : keys) {
    state ^= k + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2);
    state = splitmix64(state);
  }
  return state;
}

/// Configuration draws use one independent stream per parameter, derived
/// from a base key.  This keeps a tract's cells identical for spatially
/// coherent carriers (T-Mobile, Fig 21) even though different cells take
/// different branches (channel policies, event types) — a shared sequential
/// stream would skew after the first branch.
struct DrawCtx {
  std::uint64_t base;

  Rng stream(std::uint64_t tag) const { return Rng(hash_keys({base, tag})); }

  template <typename T>
  T draw(const stats::Discrete<T>& dist, std::uint64_t tag) const {
    Rng rng = stream(tag);
    return dist.sample(rng);
  }

  bool chance(double p, std::uint64_t tag) const {
    Rng rng = stream(tag);
    return rng.chance(p);
  }
};

DrawCtx config_ctx(const CarrierProfile& profile, std::uint64_t world_seed,
                   net::CellId cell_id, geo::Point pos) {
  if (profile.tract_m > 0.0) {
    const auto tx = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(std::floor(pos.x / profile.tract_m)));
    const auto ty = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(std::floor(pos.y / profile.tract_m)));
    return DrawCtx{
        hash_keys({world_seed, profile.seed_salt, 0x7124c7ULL, tx, ty})};
  }
  return DrawCtx{hash_keys({world_seed, profile.seed_salt, 0xce11ULL, cell_id})};
}

/// Default legacy channels (UARFCN / ARFCN / CDMA channel numbers).
std::uint32_t legacy_channel(spectrum::Rat rat) {
  switch (rat) {
    case spectrum::Rat::kUmts: return 4435;   // the paper's Fig 3 example
    case spectrum::Rat::kGsm: return 190;
    case spectrum::Rat::kEvdo: return 283;
    case spectrum::Rat::kCdma1x: return 425;
    default: return 0;
  }
}

int legacy_priority(spectrum::Rat rat) {
  switch (rat) {
    case spectrum::Rat::kUmts: return 2;
    case spectrum::Rat::kEvdo: return 2;
    case spectrum::Rat::kGsm: return 1;
    case spectrum::Rat::kCdma1x: return 1;
    default: return 0;
  }
}

int legacy_extra_param_count(spectrum::Rat rat) {
  // Tab 4 totals minus the 4 semantic parameters the registry names.
  switch (rat) {
    case spectrum::Rat::kUmts: return 60;
    case spectrum::Rat::kGsm: return 5;
    case spectrum::Rat::kEvdo: return 10;
    case spectrum::Rat::kCdma1x: return 0;
    default: return 0;
  }
}

config::EventConfig make_event(const CarrierProfile& profile,
                               const EventPolicy& policy, const DrawCtx& ctx,
                               std::uint64_t tag_base) {
  config::EventConfig ev;
  ev.type = policy.type;
  ev.metric = policy.metric;
  if (!policy.threshold1.empty())
    ev.threshold1 = ctx.draw(policy.threshold1, tag_base + 1);
  if (!policy.threshold2.empty())
    ev.threshold2 = ctx.draw(policy.threshold2, tag_base + 2);
  if (!policy.offset.empty()) ev.offset_db = ctx.draw(policy.offset, tag_base + 3);
  if (!policy.hysteresis.empty())
    ev.hysteresis_db = ctx.draw(policy.hysteresis, tag_base + 4);
  if (policy.type == config::EventType::kPeriodic) {
    ev.time_to_trigger = 0;
    ev.report_interval = policy.report_interval.empty()
                             ? ctx.draw(profile.periodic_interval, tag_base + 5)
                             : ctx.draw(policy.report_interval, tag_base + 5);
    ev.report_amount = 16;
  } else {
    ev.time_to_trigger = ctx.draw(profile.ttt, tag_base + 6);
    Rng amount_rng = ctx.stream(tag_base + 7);
    const double amount_roll = amount_rng.uniform();
    ev.report_amount = amount_roll < 0.5 ? 1 : (amount_roll < 0.8 ? 2 : 4);
    if (ev.report_amount > 1) ev.report_interval = 480;
  }
  return ev;
}

std::vector<config::EventConfig> draw_report_configs(
    const CarrierProfile& profile, const DrawCtx& ctx) {
  std::vector<config::EventConfig> out;
  // A2 measurement gate ("serving became worse than threshold").
  if (ctx.chance(profile.a2_gate_prob, 300)) {
    config::EventConfig a2;
    a2.type = config::EventType::kA2;
    a2.metric = config::SignalMetric::kRsrp;
    a2.threshold1 = ctx.draw(profile.a2_threshold, 301);
    a2.hysteresis_db = ctx.draw(profile.a2_hysteresis, 302);
    a2.time_to_trigger = ctx.draw(profile.ttt, 303);
    a2.report_amount = 2;
    a2.report_interval = 480;
    out.push_back(a2);
  }
  // Exactly one decisive policy per cell.
  if (!profile.decisive.empty()) {
    std::vector<double> weights;
    weights.reserve(profile.decisive.size());
    for (const auto& d : profile.decisive) weights.push_back(d.weight);
    Rng pick_rng = ctx.stream(310);
    const std::size_t pick = pick_rng.weighted(weights);
    const auto& policy = profile.decisive[pick];
    // Different event families draw from different tag blocks so a decisive
    // swap (temporal update) re-randomizes cleanly.
    out.push_back(make_event(profile, policy, ctx, 320 + 16 * pick));
    // Optionally stack a periodic reporter on top of an event policy.
    if (policy.type != config::EventType::kPeriodic &&
        ctx.chance(profile.extra_periodic_prob, 311)) {
      EventPolicy p;
      p.type = config::EventType::kPeriodic;
      out.push_back(make_event(profile, p, ctx, 480));
    }
  }
  return out;
}

}  // namespace

config::CellConfig make_lte_config(const CarrierProfile& profile,
                                   std::uint64_t world_seed,
                                   net::CellId cell_id,
                                   spectrum::Channel channel,
                                   geo::CityId city, geo::Point position,
                                   const std::vector<FreqPolicy>& city_freqs) {
  (void)city;
  const DrawCtx ctx = config_ctx(profile, world_seed, cell_id, position);
  config::CellConfig cfg;

  // Serving priority comes from the channel's frequency policy (Fig 18).
  // The tag folds in the channel so same-tract cells on different channels
  // still follow their own channel's policy.
  const FreqPolicy* serving_policy = nullptr;
  for (const auto& f : profile.lte_freqs)
    if (f.earfcn == channel.number) serving_policy = &f;
  cfg.serving.priority =
      serving_policy ? ctx.draw(serving_policy->priority, 1'000 + channel.number)
                     : 4;
  cfg.serving.q_hyst_db = ctx.draw(profile.q_hyst, 2);
  cfg.serving.q_rxlevmin_dbm = ctx.draw(profile.dmin, 3);
  cfg.serving.s_intrasearch_db = ctx.draw(profile.s_intra, 4);
  cfg.serving.s_nonintrasearch_db = ctx.draw(profile.s_nonintra, 5);
  // Standard-practice invariant (paper §4.2): Θnonintra <= Θintra, clamped
  // to equality when the draws invert (the ~5 % "equal gates" cases)...
  if (cfg.serving.s_nonintrasearch_db > cfg.serving.s_intrasearch_db)
    cfg.serving.s_nonintrasearch_db = cfg.serving.s_intrasearch_db;
  // ...except for the rare counterexample carriers, which really swap.
  if (profile.swapped_search_prob > 0.0 &&
      ctx.chance(profile.swapped_search_prob, 6) &&
      cfg.serving.s_intrasearch_db > cfg.serving.s_nonintrasearch_db)
    std::swap(cfg.serving.s_intrasearch_db, cfg.serving.s_nonintrasearch_db);
  cfg.serving.thresh_serving_low_db = ctx.draw(profile.thresh_serving_low, 7);
  cfg.serving.t_reselection = ctx.draw(profile.t_resel, 8);
  cfg.serving.t_higher_meas = 60'000;
  cfg.q_offset_equal_db = ctx.draw(profile.q_offset_equal, 9);

  // Inter-frequency neighbours: the strongest other channels in this city.
  std::vector<const FreqPolicy*> others;
  for (const auto& f : city_freqs)
    if (f.earfcn != channel.number) others.push_back(&f);
  std::sort(others.begin(), others.end(),
            [](const FreqPolicy* a, const FreqPolicy* b) {
              return a->weight > b->weight;
            });
  if (others.size() > 3) others.resize(3);
  for (const auto* f : others) {
    const std::uint64_t tag = 10'000 + 16ULL * f->earfcn;
    config::NeighborFreqConfig nf;
    nf.channel = spectrum::Channel{spectrum::Rat::kLte, f->earfcn};
    nf.priority = ctx.draw(f->priority, tag + 1);
    nf.q_rxlevmin_dbm = ctx.draw(profile.dmin, tag + 2);
    nf.thresh_high_db = ctx.draw(profile.thresh_high, tag + 3);
    nf.thresh_low_db = ctx.draw(profile.thresh_low, tag + 4);
    nf.q_offset_freq_db = ctx.draw(profile.q_offset_freq, tag + 5);
    nf.meas_bandwidth_mhz = ctx.draw(profile.meas_bandwidth, tag + 6);
    nf.t_reselection = cfg.serving.t_reselection;
    cfg.neighbor_freqs.push_back(nf);
  }
  // Inter-RAT neighbour layers.
  for (const auto& legacy : profile.legacy) {
    if (legacy.share <= 0.0) continue;
    const std::uint64_t tag =
        20'000 + 16ULL * static_cast<std::uint64_t>(legacy.rat);
    config::NeighborFreqConfig nf;
    nf.channel = spectrum::Channel{legacy.rat, legacy_channel(legacy.rat)};
    nf.priority = legacy_priority(legacy.rat);
    nf.q_rxlevmin_dbm = -120.0;
    nf.thresh_high_db = ctx.draw(profile.thresh_high, tag + 1);
    nf.thresh_low_db = ctx.draw(profile.thresh_low, tag + 2);
    nf.q_offset_freq_db = 0.0;
    nf.meas_bandwidth_mhz = 5.0;
    nf.t_reselection = cfg.serving.t_reselection;
    cfg.neighbor_freqs.push_back(nf);
  }

  // Access control (SIB4): a small fraction of cells forbid specific ids.
  if (ctx.chance(0.02, 30)) {
    Rng forbid_rng = ctx.stream(31);
    const int n = static_cast<int>(forbid_rng.between(1, 2));
    for (int i = 0; i < n; ++i)
      cfg.forbidden_cells.push_back(
          static_cast<std::uint32_t>(forbid_rng.below(1u << 28)));
  }

  // Reporting events are signalled per connection and tuned cell by cell in
  // practice — they stay per-cell even for spatially coherent carriers
  // (Fig 21's coherence claim concerns the broadcast idle parameters).
  const DrawCtx event_ctx{
      hash_keys({world_seed, profile.seed_salt, 0xe7e47ULL, cell_id})};
  cfg.report_configs = draw_report_configs(profile, event_ctx);
  return cfg;
}

namespace {

config::LegacyCellConfig make_legacy_config(const CarrierProfile& profile,
                                            const LegacyRatPolicy& policy,
                                            std::uint64_t world_seed,
                                            net::CellId cell_id) {
  Rng rng(hash_keys({world_seed, profile.seed_salt, 0x1e6ac7ULL, cell_id}));
  config::LegacyCellConfig cfg;
  cfg.rat = policy.rat;
  cfg.priority = legacy_priority(policy.rat);
  switch (policy.rat) {
    case spectrum::Rat::kUmts: cfg.q_rxlevmin_dbm = -115.0; break;
    case spectrum::Rat::kGsm: cfg.q_rxlevmin_dbm = -105.0; break;
    case spectrum::Rat::kEvdo: cfg.q_rxlevmin_dbm = -112.0; break;
    default: cfg.q_rxlevmin_dbm = -108.0; break;
  }
  cfg.q_hyst_db = 4.0;
  cfg.t_reselection = rng.chance(0.8) ? 1000 : 2000;
  const int extras = legacy_extra_param_count(policy.rat);
  cfg.extra_params.reserve(extras);
  for (int i = 0; i < extras; ++i) {
    // Carrier-level decision: is parameter i single-valued for this carrier?
    Rng carrier_rng(hash_keys({world_seed, profile.seed_salt, 0xa7a7ULL,
                               static_cast<std::uint64_t>(policy.rat),
                               static_cast<std::uint64_t>(i)}));
    const double base = -20.0 + 1.5 * i;
    if (carrier_rng.chance(policy.param_fixed_prob)) {
      cfg.extra_params.push_back(base);
    } else {
      const int n_values =
          2 + static_cast<int>(carrier_rng.below(
                  static_cast<std::uint64_t>(std::max(1, policy.max_values - 1))));
      // Skewed pick: earlier options dominate.
      std::vector<double> weights(n_values);
      for (int j = 0; j < n_values; ++j)
        weights[j] = 1.0 / static_cast<double>(1 + j);
      const auto pick = rng.weighted(weights);
      cfg.extra_params.push_back(base + 0.5 * static_cast<double>(pick));
    }
  }
  return cfg;
}

std::vector<ConfigUpdate> make_update_schedule(const CarrierProfile& profile,
                                               const WorldOptions& options,
                                               Rng& rng) {
  // At most three updates, gathered on the stack: most cells get none, and
  // the world keeps every cell's schedule, so it is allocated at its size.
  ConfigUpdate updates[3];
  std::size_t n = 0;
  if (rng.chance(profile.idle_update_prob_2y))
    updates[n++] = {rng.uniform(30.0, options.window_days), false};
  if (rng.chance(profile.active_update_prob_2y)) {
    updates[n++] = {rng.uniform(30.0, options.window_days), true};
    if (rng.chance(0.3))
      updates[n++] = {rng.uniform(30.0, options.window_days), true};
  }
  std::sort(updates, updates + n,
            [](const ConfigUpdate& a, const ConfigUpdate& b) {
              return a.day < b.day;
            });
  return std::vector<ConfigUpdate>(updates, updates + n);
}

/// The one generation loop, shared by generate_world (materialise a
/// Deployment) and stream_world (emit and forget).  Both callers therefore
/// consume the identical carrier_rng draw sequence by construction — the
/// determinism contract of streamgen.hpp.  `on_carrier(profile)` returns the
/// CarrierId to stamp on that profile's cells; `on_cell(profile, cell,
/// schedule)` takes each finished cell (may move from both arguments).
template <typename CarrierFn, typename CellFn>
void for_each_generated_cell(const WorldOptions& options,
                             const std::vector<geo::City>& cities,
                             CarrierFn&& on_carrier, CellFn&& on_cell) {
  net::CellId next_id = 1;
  for (const auto& profile : standard_carrier_profiles()) {
    const net::CarrierId cid = on_carrier(profile);

    Rng carrier_rng(hash_keys({options.seed, profile.seed_salt, 0xca1211ULL}));
    const int total = std::max(
        1, static_cast<int>(std::lround(profile.cell_count * options.scale)));

    // City allocation: US carriers across C1..C5, others in their metro.
    std::vector<std::pair<geo::CityId, int>> allocation;
    if (profile.country == "US") {
      int assigned = 0;
      const auto& ids = us_city_ids();
      const auto& weights = us_city_weights();
      for (std::size_t i = 0; i < ids.size(); ++i) {
        int n = (i + 1 == ids.size())
                    ? total - assigned
                    : static_cast<int>(std::lround(total * weights[i]));
        n = std::max(0, std::min(n, total - assigned));
        allocation.emplace_back(ids[i], n);
        assigned += n;
      }
    } else {
      const geo::City* home = nullptr;
      for (const auto& city : cities)
        if (city.country == profile.country) home = &city;
      if (!home)
        throw std::logic_error("netgen: no city for country " + profile.country);
      allocation.emplace_back(home->id, total);
    }

    for (const auto& [city_id, count] : allocation) {
      if (count <= 0) continue;
      const geo::City& city = cities[city_id];

      // City-adjusted frequency weights (Fig 20's Chicago skew).
      std::vector<FreqPolicy> city_freqs = profile.lte_freqs;
      for (auto& f : city_freqs) {
        const auto it = f.city_weight_mult.find(city_id);
        if (it != f.city_weight_mult.end()) f.weight *= it->second;
      }
      std::vector<double> freq_weights;
      freq_weights.reserve(city_freqs.size());
      for (const auto& f : city_freqs) freq_weights.push_back(f.weight);

      // RAT assignment list: legacy shares of the city's cells, rest LTE.
      std::vector<spectrum::Rat> rats(count, spectrum::Rat::kLte);
      std::size_t cursor = 0;
      for (const auto& legacy : profile.legacy) {
        const auto n = static_cast<std::size_t>(
            std::lround(count * legacy.share));
        for (std::size_t i = 0; i < n && cursor < rats.size(); ++i)
          rats[cursor++] = legacy.rat;
      }
      carrier_rng.shuffle(rats);

      // Jittered-grid site placement.
      const int cols =
          std::max(1, static_cast<int>(std::ceil(std::sqrt(count))));
      const double pitch = city.extent_m / cols;
      for (int k = 0; k < count; ++k) {
        net::Cell cell;
        cell.id = next_id++;
        cell.pci = static_cast<std::uint16_t>(cell.id % 504);
        cell.carrier = cid;
        cell.city = city_id;
        const double jx = carrier_rng.uniform(0.15, 0.85);
        const double jy = carrier_rng.uniform(0.15, 0.85);
        cell.position = {city.origin.x + (k % cols + jx) * pitch,
                         city.origin.y + (k / cols + jy) * pitch};
        cell.tx_power_dbm = 15.0 + carrier_rng.normal(0.0, 1.5);
        const double bw_roll = carrier_rng.uniform();
        cell.bandwidth_prbs = bw_roll < 0.5 ? 50 : (bw_roll < 0.8 ? 75 : 100);

        const spectrum::Rat rat = rats[k];
        if (rat == spectrum::Rat::kLte) {
          const auto pick = city_freqs.empty()
                                ? 0
                                : carrier_rng.weighted(freq_weights);
          cell.channel = spectrum::Channel{spectrum::Rat::kLte,
                                           city_freqs[pick].earfcn};
          cell.lte_config =
              make_lte_config(profile, options.seed, cell.id, cell.channel,
                              city_id, cell.position, city_freqs);
        } else {
          const LegacyRatPolicy* policy = nullptr;
          for (const auto& lp : profile.legacy)
            if (lp.rat == rat) policy = &lp;
          cell.channel = spectrum::Channel{rat, legacy_channel(rat)};
          cell.legacy_config =
              make_legacy_config(profile, *policy, options.seed, cell.id);
        }
        auto schedule = make_update_schedule(profile, options, carrier_rng);
        on_cell(profile, cell, schedule);
      }
    }
  }
}

}  // namespace

GeneratedWorld generate_world(const WorldOptions& options) {
  GeneratedWorld world;
  world.options = options;

  const auto cities = standard_cities();
  for (const auto& city : cities) world.network.add_city(city);

  for_each_generated_cell(
      options, cities,
      [&](const CarrierProfile& profile) {
        net::Carrier carrier;
        carrier.name = profile.name;
        carrier.acronym = profile.acronym;
        carrier.country = profile.country;
        world.profiles.push_back(&profile);
        return world.network.add_carrier(carrier);
      },
      [&](const CarrierProfile&, net::Cell& cell,
          std::vector<ConfigUpdate>& schedule) {
        world.network.add_cell(std::move(cell));
        world.update_schedule.push_back(std::move(schedule));
      });
  return world;
}

namespace {

/// The actual reconfiguration draw.  Takes the target cell by reference and
/// nothing else mutable — the compiler enforces that an update can write
/// only that cell, the invariant the parallel crawl engine's per-carrier
/// sharding is built on (asserted by ApplyConfigUpdate.WritesOnlyTargetCell).
void apply_config_update_to_cell(net::Cell& cell, const CarrierProfile& profile,
                                 std::uint64_t world_seed,
                                 const ConfigUpdate& update) {
  Rng rng(hash_keys({world_seed, profile.seed_salt, 0x09da7eULL, cell.id,
                     static_cast<std::uint64_t>(update.day * 16.0)}));
  if (update.active_params) {
    const DrawCtx ctx{rng.next_u64()};
    cell.lte_config.report_configs = draw_report_configs(profile, ctx);
  } else {
    switch (rng.below(3)) {
      case 0:
        cell.lte_config.serving.s_nonintrasearch_db =
            profile.s_nonintra.sample(rng);
        break;
      case 1:
        cell.lte_config.serving.thresh_serving_low_db =
            profile.thresh_serving_low.sample(rng);
        break;
      default:
        cell.lte_config.q_offset_equal_db = profile.q_offset_equal.sample(rng);
        break;
    }
  }
}

}  // namespace

void apply_config_update(GeneratedWorld& world, std::size_t cell_index,
                         const ConfigUpdate& update) {
  net::Cell& cell = world.network.cell_at(cell_index);
  if (!cell.is_lte()) return;  // legacy configs are static in the model
  // profiles is aligned with carriers() *positions*; carrier ids are opaque
  // labels (need not be dense), so resolve through carrier_position().
  const std::size_t pos = world.network.carrier_position(cell.carrier);
  if (pos == net::Deployment::kNoCarrier)
    throw std::logic_error("apply_config_update: cell references unknown carrier");
  apply_config_update_to_cell(cell, *world.profiles.at(pos),
                              world.options.seed, update);
}

namespace {

/// One cell as the sink sees it, and the end of its visits in the batch.
struct StreamCell {
  const std::string* carrier = nullptr;
  net::CellId id = 0;
  spectrum::Rat rat = spectrum::Rat::kLte;
  std::uint32_t channel = 0;
  geo::Point position;
  std::size_t visits_end = 0;
};

constexpr std::uint32_t kRepeatVisit = ~std::uint32_t{0};

/// One visit: its time, and the slot of freshly extracted params, or
/// kRepeatVisit when no update landed since the cell's previous visit.
struct StreamVisit {
  SimTime t;
  std::uint32_t params = kRepeatVisit;
};

/// Whole cells, in stream order.  clear() keeps every buffer, the params
/// slots included, so a recycled batch copies each extraction into a slot
/// it already owns and allocates only while the ring warms up.
struct StreamBatch {
  std::vector<StreamCell> cells;
  std::vector<StreamVisit> visits;
  std::vector<std::vector<config::ParamObservation>> params;
  std::uint32_t params_used = 0;
  /// Extracted rows plus visits: what the batch holds, and what closes it.
  std::size_t held = 0;

  std::uint32_t hold(const std::vector<config::ParamObservation>& fresh) {
    if (params_used == params.size()) params.emplace_back();
    params[params_used].assign(fresh.begin(), fresh.end());
    held += fresh.size();
    return params_used++;
  }
  void clear() {
    cells.clear();
    visits.clear();
    params_used = 0;
    held = 0;
  }
};

/// The caller gave up (its sink threw); unwinds the generator worker.
struct StreamCancelled {};

/// The in-order hand-off: one producer fills batches, one consumer drains
/// them, both in ring order.  A batch belongs to whichever side holds its
/// index; the mutex orders each hand-over.  A side that runs out (the
/// consumer on an empty ring, the producer on a full one) sleeps until the
/// other has moved half the ring, so the threads wake once per half ring,
/// not once per batch: on a busy machine every wake-up can cost a
/// scheduler slice.
class BatchRing {
 public:
  BatchRing() = default;
  BatchRing(const BatchRing&) = delete;
  BatchRing& operator=(const BatchRing&) = delete;

  /// The next batch to fill.  Throws StreamCancelled after cancel().
  StreamBatch& acquire() {
    std::unique_lock lock(mutex_);
    if (produced_ - consumed_ == kStreamRingBatches && !cancelled_) {
      producer_waiting_ = true;
      space_.wait(lock, [&] {
        return cancelled_ || produced_ - consumed_ <= kHalf;
      });
      producer_waiting_ = false;
    }
    if (cancelled_) throw StreamCancelled{};
    StreamBatch& batch = batches_[produced_ % kStreamRingBatches];
    batch.clear();
    return batch;
  }
  void publish() {
    bool wake = false;
    {
      std::lock_guard lock(mutex_);
      ++produced_;
      wake = consumer_waiting_ && produced_ - consumed_ >= kHalf;
    }
    if (wake) ready_.notify_one();
  }
  /// The producer is done; `error` (if any) is rethrown to the consumer
  /// after the batches published before it.
  void close(std::exception_ptr error) {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
      error_ = std::move(error);
    }
    ready_.notify_one();
  }

  /// The next published batch, or nullptr once the producer closed and
  /// every batch is drained.
  const StreamBatch* next() {
    std::unique_lock lock(mutex_);
    if (consumed_ == produced_ && !closed_) {
      consumer_waiting_ = true;
      ready_.wait(lock, [&] {
        return closed_ || produced_ - consumed_ >= kHalf;
      });
      consumer_waiting_ = false;
    }
    if (consumed_ == produced_) return nullptr;
    return &batches_[consumed_ % kStreamRingBatches];
  }
  void release() {
    bool wake = false;
    {
      std::lock_guard lock(mutex_);
      ++consumed_;
      wake = producer_waiting_ && produced_ - consumed_ <= kHalf;
    }
    if (wake) space_.notify_one();
  }
  void cancel() {
    {
      std::lock_guard lock(mutex_);
      cancelled_ = true;
    }
    space_.notify_one();
  }
  /// After the producer has been joined.
  void rethrow_error() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  static constexpr std::size_t kHalf = kStreamRingBatches / 2;
  static_assert(kHalf >= 1);

  StreamBatch batches_[kStreamRingBatches];
  std::mutex mutex_;
  std::condition_variable ready_;  ///< the consumer sleeps here
  std::condition_variable space_;  ///< the producer sleeps here
  std::size_t produced_ = 0;
  std::size_t consumed_ = 0;
  bool producer_waiting_ = false;
  bool consumer_waiting_ = false;
  bool closed_ = false;
  bool cancelled_ = false;
  std::exception_ptr error_;
};

/// Stage 1, on the worker: draw the world cell by cell, visit each cell and
/// fill the ring.  A visit re-extracts only on the cell's first visit and
/// after an applied update; otherwise the sink gets the previous params.
StreamStats generate_visits(const StreamWorldOptions& options,
                            const std::vector<geo::City>& cities,
                            BatchRing& ring) {
  WorldOptions wopts;
  wopts.seed = options.seed;
  wopts.scale = options.scale;
  wopts.window_days = options.window_days;
  const int visits = std::max(1, options.visits_per_cell);

  StreamStats stats;
  net::CarrierId next_cid = 0;
  std::vector<double> visit_days;
  StreamBatch* batch = nullptr;
  for_each_generated_cell(
      wopts, cities, [&](const CarrierProfile&) { return next_cid++; },
      [&](const CarrierProfile& profile, net::Cell& cell,
          std::vector<ConfigUpdate>& schedule) {
        if (!batch) batch = &ring.acquire();
        ++stats.cells;
        // Visit times come from a per-cell stream independent of the world
        // draws, so changing visits_per_cell never perturbs the cells.
        Rng visit_rng(hash_keys({options.seed, 0x51c17ULL, cell.id}));
        visit_days.clear();
        for (int v = 0; v < visits; ++v)
          visit_days.push_back(visit_rng.uniform(0.0, options.window_days));
        std::sort(visit_days.begin(), visit_days.end());

        std::size_t next_update = 0;
        std::size_t rows = 0;
        bool fresh = true;
        for (const double day : visit_days) {
          // Reconfigurations that landed since the last visit (Fig 13);
          // legacy configs are static in the model, matching
          // apply_config_update's early-out.
          while (next_update < schedule.size() &&
                 schedule[next_update].day <= day) {
            if (cell.is_lte()) {
              apply_config_update_to_cell(cell, profile, options.seed,
                                          schedule[next_update]);
              ++stats.updates_applied;
              fresh = true;
            }
            ++next_update;
          }
          StreamVisit visit{SimTime::from_days(day)};
          if (fresh) {
            visit.params = batch->hold(
                cell.is_lte() ? config::extract_parameters(cell.lte_config)
                              : config::extract_parameters(cell.legacy_config));
            rows = batch->params[visit.params].size();
            fresh = false;
          } else {
            ++stats.reused_visits;
          }
          batch->visits.push_back(visit);
          ++batch->held;
          ++stats.snapshots;
          stats.rows += rows;
        }
        batch->cells.push_back({&profile.name, cell.id, cell.channel.rat,
                                cell.channel.number, cell.position,
                                batch->visits.size()});
        if (batch->held >= kStreamBatchRows) {
          ring.publish();
          batch = nullptr;
        }
      });
  if (batch) ring.publish();
  return stats;
}

/// Stage 2, on the caller: every sink call, in stream order.
void emit_batch(const StreamBatch& batch, SnapshotSink& sink) {
  const std::vector<config::ParamObservation>* params = nullptr;
  std::size_t v = 0;
  for (const StreamCell& cell : batch.cells) {
    for (; v < cell.visits_end; ++v) {
      const StreamVisit& visit = batch.visits[v];
      if (visit.params != kRepeatVisit) params = &batch.params[visit.params];
      sink.snapshot(*cell.carrier, cell.id, cell.rat, cell.channel,
                    cell.position, visit.t, *params);
    }
  }
}

}  // namespace

StreamStats stream_world(const StreamWorldOptions& options, SnapshotSink& sink) {
  const auto cities = standard_cities();
  BatchRing ring;
  StreamStats stats;
  std::thread worker([&] {
    try {
      stats = generate_visits(options, cities, ring);
      ring.close(nullptr);
    } catch (const StreamCancelled&) {
    } catch (...) {
      ring.close(std::current_exception());
    }
  });
  try {
    while (const StreamBatch* batch = ring.next()) {
      emit_batch(*batch, sink);
      ring.release();
    }
  } catch (...) {
    ring.cancel();
    worker.join();
    throw;
  }
  worker.join();
  ring.rethrow_error();
  return stats;
}

}  // namespace mmlab::netgen
