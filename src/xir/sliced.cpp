// The bit-sliced engine: 64 scenarios per machine word.  Each update
// below is the lane-wise boolean form of one ScalarEngine statement
// (src/xir/scalar.cpp); where full and half stations diverge, both paths
// are computed and merged under the per-station lane mask.

#include <algorithm>
#include <bit>
#include <cstring>

#include "liplib/support/check.hpp"
#include "liplib/xir/sliced.hpp"

namespace liplib::xir {

namespace {
constexpr std::uint64_t kAll = ~0ull;
constexpr std::uint32_t kEmptySlot = ~0u;

std::uint64_t mask_of(std::size_t lanes) {
  return lanes >= 64 ? kAll : ((1ull << lanes) - 1);
}

// In-place 64x64 bit-matrix transpose (Hacker's Delight 7-3): afterwards
// m[i] bit j == the input's m[j] bit i, i.e. word i collects lane i's
// bit from each of the 64 input planes.
void transpose64(std::uint64_t m[64]) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = (m[k] ^ (m[k + j] << j)) & ~mask;
      m[k] ^= t;
      m[k + j] ^= t >> j;
    }
  }
}
}  // namespace

SlicedEngine::SlicedEngine(ProgramRef program, std::size_t num_lanes)
    : prog_(std::move(program)), num_lanes_(num_lanes) {
  LIPLIB_EXPECT(prog_ != nullptr, "null xir program");
  LIPLIB_EXPECT(num_lanes_ >= 1 && num_lanes_ <= kLanes,
                "sliced engine carries 1..64 lanes");
  live_mask_ = mask_of(num_lanes_);
  const Program& p = *prog_;
  fwd_w_.assign(p.num_segments, 0);
  stop_w_.assign(p.num_segments, 0);
  half_mask_.assign(p.num_stations(), 0);
  for (std::size_t s = 0; s < p.num_stations(); ++s) {
    half_mask_[s] = p.st_half[s] ? kAll : 0;
  }
  occ1_.assign(p.num_stations(), p.strict ? kAll : 0);
  occ2_.assign(p.num_stations(), 0);
  v0_.assign(p.num_stations(), 0);
  v1_.assign(p.num_stations(), 0);
  stop_reg_.assign(p.num_stations(), 0);
  pend_w_.assign(p.shell_br_seg.size(), kAll);
  src_pend_w_.assign(p.src_br_seg.size(), kAll);
  fires_.assign(p.num_shells() * kLanes, 0);
  sink_tokens_.assign(kLanes, 0);
  sink_pattern_.resize(p.num_sinks());
  schedule_ = p.schedule;
}

SlicedEngine::SlicedEngine(const graph::Topology& topo,
                           skeleton::SkeletonOptions opts,
                           std::size_t num_lanes)
    : SlicedEngine(lower(topo, opts), num_lanes) {}

void SlicedEngine::set_station_kinds(std::size_t lane,
                                     const std::vector<graph::RsKind>& kinds) {
  LIPLIB_EXPECT(cycle_ == 0, "set_station_kinds after stepping");
  LIPLIB_EXPECT(lane < num_lanes_, "lane out of range");
  LIPLIB_EXPECT(kinds.size() == prog_->num_stations(),
                "kind vector does not match the program's station count");
  const std::uint64_t bit = 1ull << lane;
  for (std::size_t s = 0; s < kinds.size(); ++s) {
    if (kinds[s] == graph::RsKind::kHalf) {
      half_mask_[s] |= bit;
    } else {
      half_mask_[s] &= ~bit;
    }
  }
  schedule_dirty_ = true;
}

void SlicedEngine::set_sink_pattern(graph::NodeId node,
                                    std::vector<bool> pattern) {
  const Program& p = *prog_;
  LIPLIB_EXPECT(node < p.topo.nodes().size() &&
                    p.topo.node(node).kind == graph::NodeKind::kSink,
                "set_sink_pattern target is not a sink");
  auto& dst = sink_pattern_[p.node_index[node]];
  dst.assign(pattern.size(), 0);
  for (std::size_t i = 0; i < pattern.size(); ++i) dst[i] = pattern[i] ? 1 : 0;
}

void SlicedEngine::saturate_stations(std::uint64_t lane_mask) {
  for (std::size_t s = 0; s < prog_->num_stations(); ++s) {
    occ1_[s] |= lane_mask;  // occ 0 -> 1; higher occupancy unchanged
    v0_[s] |= lane_mask;    // the front token becomes valid data
  }
}

void SlicedEngine::refresh_schedule() {
  if (!schedule_dirty_) return;
  // The union of every lane's dynamic stations; a mixed station's update
  // is masked to its half lanes, so full lanes just see a no-op.
  std::vector<std::uint8_t> dynamic(prog_->num_stations(), 0);
  for (std::size_t s = 0; s < prog_->num_stations(); ++s) {
    dynamic[s] = half_mask_[s] != 0 ? 1 : 0;
  }
  schedule_ = build_settle_schedule(*prog_, dynamic);
  schedule_dirty_ = false;
}

std::uint64_t SlicedEngine::shell_ready_word(std::size_t k) const {
  const Program& p = *prog_;
  std::uint64_t ready = kAll;
  for (std::uint32_t i = p.shell_in_begin[k]; i < p.shell_in_begin[k + 1];
       ++i) {
    ready &= fwd_w_[p.shell_in_seg[i]];
  }
  for (std::uint32_t b = p.shell_br_begin[k]; b < p.shell_br_begin[k + 1];
       ++b) {
    const std::uint64_t stopped = stop_w_[p.shell_br_seg[b]];
    ready &= ~(p.strict ? stopped : (stopped & pend_w_[b]));
  }
  return ready;
}

void SlicedEngine::settle_station(std::size_t s) {
  const Program& p = *prog_;
  const std::uint64_t front_valid = occ1_[s] & v0_[s];
  const std::uint64_t s_eff =
      p.strict ? stop_w_[p.st_out[s]] : (stop_w_[p.st_out[s]] & front_valid);
  const std::uint64_t up = occ1_[s] & s_eff;
  const std::uint64_t hm = half_mask_[s];
  stop_w_[p.st_in[s]] = (stop_w_[p.st_in[s]] & ~hm) | (up & hm);
}

void SlicedEngine::settle_shell(std::size_t k) {
  const Program& p = *prog_;
  const std::uint64_t stalled = ~shell_ready_word(k);
  for (std::uint32_t i = p.shell_in_begin[k]; i < p.shell_in_begin[k + 1];
       ++i) {
    const std::uint32_t in = p.shell_in_seg[i];
    stop_w_[in] = stalled & fwd_w_[in];
  }
}

void SlicedEngine::settle_stops(const std::uint64_t* sink_stops) {
  const Program& p = *prog_;
  refresh_schedule();
  const std::uint64_t init = p.pessimistic ? kAll : 0;
  for (auto& s : stop_w_) s = init;
  for (std::size_t s = 0; s < p.num_sinks(); ++s) {
    const auto& pat = sink_pattern_[s];
    stop_w_[p.sink_seg[s]] =
        sink_stops != nullptr                          ? sink_stops[s]
        : (!pat.empty() && pat[cycle_ % pat.size()]) ? kAll
                                                       : 0;
  }
  for (std::size_t s = 0; s < p.num_stations(); ++s) {
    // Full lanes present the registered stop; half lanes keep the init
    // value until the dynamic part runs.
    const std::uint64_t hm = half_mask_[s];
    stop_w_[p.st_in[s]] = (init & hm) | (stop_reg_[s] & ~hm);
  }
  for (std::uint32_t unit : schedule_.order) {
    if (unit < p.num_stations()) {
      settle_station(unit);
    } else {
      settle_shell(unit - p.num_stations());
    }
  }
  if (!schedule_.iterate.empty()) {
    const std::size_t guard = 2 * stop_w_.size() + 4;
    std::size_t sweeps = 0;
    bool changed = true;
    while (changed) {
      LIPLIB_ENSURE(++sweeps <= guard, "stop fixpoint failed to converge");
      changed = false;
      for (std::uint32_t unit : schedule_.iterate) {
        if (unit < p.num_stations()) {
          const std::uint64_t before = stop_w_[p.st_in[unit]];
          settle_station(unit);
          changed = changed || stop_w_[p.st_in[unit]] != before;
        } else {
          const std::size_t k = unit - p.num_stations();
          const std::uint64_t stalled = ~shell_ready_word(k);
          for (std::uint32_t i = p.shell_in_begin[k];
               i < p.shell_in_begin[k + 1]; ++i) {
            const std::uint32_t in = p.shell_in_seg[i];
            const std::uint64_t up = stalled & fwd_w_[in];
            if (stop_w_[in] != up) {
              stop_w_[in] = up;
              changed = true;
            }
          }
        }
      }
    }
  }
}

void SlicedEngine::step_stations() {
  const Program& p = *prog_;
  for (std::size_t s = 0; s < p.num_stations(); ++s) {
    const std::uint64_t in_valid = fwd_w_[p.st_in[s]];
    const std::uint64_t front_valid = occ1_[s] & v0_[s];
    const std::uint64_t s_eff =
        p.strict ? stop_w_[p.st_out[s]] : (stop_w_[p.st_out[s]] & front_valid);
    const std::uint64_t consumed = occ1_[s] & ~s_eff;
    const std::uint64_t hm = half_mask_[s];

    // Full path: a 2-slot skid buffer with registered stop.
    const std::uint64_t f_accept =
        ~stop_reg_[s] & (p.strict ? kAll : in_valid);
    const std::uint64_t occ_a1 = (occ1_[s] & ~consumed) | occ2_[s];
    const std::uint64_t occ_a2 = occ2_[s] & ~consumed;
    const std::uint64_t v0_a = (consumed & v1_[s]) | (~consumed & v0_[s]);
    LIPLIB_ENSURE((f_accept & occ_a2 & ~hm) == 0, "xir full station overflow");
    const std::uint64_t v0_f =
        (f_accept & ~occ_a1 & in_valid) | ((~f_accept | occ_a1) & v0_a);
    const std::uint64_t v1_f =
        (f_accept & occ_a1 & in_valid) | ((~f_accept | ~occ_a1) & v1_[s]);
    const std::uint64_t occ_f1 = occ_a1 | f_accept;
    const std::uint64_t occ_f2 = occ_a2 | (f_accept & occ_a1);

    // Half path: a single slot with combinational stop.
    const std::uint64_t stop_up = occ1_[s] & s_eff;
    const std::uint64_t h_accept = ~stop_up & (p.strict ? kAll : in_valid);
    const std::uint64_t occ_d1 = occ1_[s] & ~consumed;
    LIPLIB_ENSURE((h_accept & occ_d1 & hm) == 0, "xir half station overflow");
    const std::uint64_t occ_h1 = occ_d1 | h_accept;
    const std::uint64_t v0_h = (h_accept & in_valid) | (~h_accept & v0_[s]);

    occ1_[s] = (occ_h1 & hm) | (occ_f1 & ~hm);
    occ2_[s] = occ_f2 & ~hm;
    v0_[s] = (v0_h & hm) | (v0_f & ~hm);
    v1_[s] = (v1_[s] & hm) | (v1_f & ~hm);
    stop_reg_[s] = occ_f2 & ~hm;
  }
}

void SlicedEngine::step() { advance(nullptr); }

SlicedEngine::StepReport SlicedEngine::step(
    std::span<const std::uint64_t> sink_stops) {
  LIPLIB_EXPECT(sink_stops.size() == prog_->num_sinks(),
                "one stop word per sink");
  StepReport r;
  r.fired = advance(sink_stops.data());
  for (const std::uint64_t w : fwd_w_) r.pending |= w;
  r.pending &= live_mask_;
  return r;
}

std::uint64_t SlicedEngine::advance(const std::uint64_t* sink_stops) {
  const Program& p = *prog_;

  // Phase 1: forward validity.
  for (std::size_t b = 0; b < p.shell_br_seg.size(); ++b) {
    fwd_w_[p.shell_br_seg[b]] = pend_w_[b];
  }
  for (std::size_t b = 0; b < p.src_br_seg.size(); ++b) {
    fwd_w_[p.src_br_seg[b]] = src_pend_w_[b];
  }
  for (std::size_t s = 0; s < p.num_stations(); ++s) {
    fwd_w_[p.st_out[s]] = occ1_[s] & v0_[s];
  }

  // Phase 2: stops.
  settle_stops(sink_stops);

  // Phase 3: clock edge.
  std::uint64_t any_fired = 0;
  for (std::size_t k = 0; k < p.num_shells(); ++k) {
    const std::uint64_t fire = shell_ready_word(k);
    any_fired |= fire;
    for (std::uint32_t b = p.shell_br_begin[k]; b < p.shell_br_begin[k + 1];
         ++b) {
      pend_w_[b] &= stop_w_[p.shell_br_seg[b]];  // consumers take the rest
      LIPLIB_ENSURE((fire & pend_w_[b]) == 0, "xir shell fired while pending");
      pend_w_[b] |= fire;
    }
    std::uint64_t fired = fire & live_mask_;
    while (fired != 0) {
      const int lane = std::countr_zero(fired);
      ++fires_[k * kLanes + static_cast<std::size_t>(lane)];
      fired &= fired - 1;
    }
  }
  for (const std::uint32_t s : p.src_fed_sinks) {
    std::uint64_t took =
        fwd_w_[p.sink_seg[s]] & ~stop_w_[p.sink_seg[s]] & live_mask_;
    while (took != 0) {
      ++sink_tokens_[static_cast<std::size_t>(std::countr_zero(took))];
      took &= took - 1;
    }
  }
  step_stations();
  for (std::size_t s = 0; s < p.num_sources(); ++s) {
    std::uint64_t all_clear = kAll;
    for (std::uint32_t b = p.src_br_begin[s]; b < p.src_br_begin[s + 1]; ++b) {
      src_pend_w_[b] &= stop_w_[p.src_br_seg[b]];
      all_clear &= ~src_pend_w_[b];
    }
    for (std::uint32_t b = p.src_br_begin[s]; b < p.src_br_begin[s + 1]; ++b) {
      src_pend_w_[b] |= all_clear;  // always-ready source reloads
    }
  }
  ++cycle_;
  return any_fired & live_mask_;
}

std::uint64_t SlicedEngine::fires(std::size_t lane,
                                  graph::NodeId process) const {
  const Program& p = *prog_;
  LIPLIB_EXPECT(lane < num_lanes_, "lane out of range");
  LIPLIB_EXPECT(process < p.topo.nodes().size() &&
                    p.topo.node(process).kind == graph::NodeKind::kProcess,
                "node is not a process");
  return fires_[p.node_index[process] * kLanes + lane];
}

void SlicedEngine::lane_key_words(std::vector<std::uint64_t>* planes) const {
  const KeyLayout L(*prog_);
  planes->assign(L.num_words * 64, 0);
  std::uint64_t* w = planes->data();
  for (std::size_t b = 0; b < L.n_pend; ++b) w[L.pend_plane(b)] = pend_w_[b];
  for (std::size_t b = 0; b < L.n_src; ++b) w[L.src_plane(b)] = src_pend_w_[b];
  for (std::size_t s = 0; s < L.n_st; ++s) {
    w[L.occ1_plane(s)] = occ1_[s];
    w[L.occ2_plane(s)] = occ2_[s];
    w[L.v0_plane(s)] = v0_[s] & occ1_[s];  // validity masked by occupancy
    w[L.v1_plane(s)] = v1_[s] & occ2_[s];
    w[L.sreg_plane(s)] = stop_reg_[s];
  }
  for (std::size_t i = 0; i < L.num_words; ++i) transpose64(w + 64 * i);
}

void SlicedEngine::state_keys(std::vector<std::string>* out) const {
  const KeyLayout L(*prog_);
  std::vector<std::uint64_t> planes;
  lane_key_words(&planes);
  out->resize(num_lanes_);
  for (std::size_t lane = 0; lane < num_lanes_; ++lane) {
    std::string& key = (*out)[lane];
    key.resize(L.key_bytes());
    for (std::size_t i = 0; i < L.num_words; ++i) {
      std::memcpy(key.data() + 8 * i, &planes[64 * i + lane], 8);
    }
  }
}

void SlicedEngine::load_state_keys(std::span<const std::string* const> keys) {
  const KeyLayout L(*prog_);
  LIPLIB_EXPECT(keys.size() == num_lanes_, "one state key per live lane");
  std::vector<std::uint64_t> planes(L.num_words * 64);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    const std::string& key = *keys[lane < num_lanes_ ? lane : 0];
    LIPLIB_EXPECT(key.size() == L.key_bytes(), "state key of wrong size");
    for (std::size_t i = 0; i < L.num_words; ++i) {
      std::memcpy(&planes[64 * i + lane], key.data() + 8 * i, 8);
    }
  }
  std::uint64_t* w = planes.data();
  for (std::size_t i = 0; i < L.num_words; ++i) transpose64(w + 64 * i);
  for (std::size_t b = 0; b < L.n_pend; ++b) pend_w_[b] = w[L.pend_plane(b)];
  for (std::size_t b = 0; b < L.n_src; ++b) src_pend_w_[b] = w[L.src_plane(b)];
  for (std::size_t s = 0; s < L.n_st; ++s) {
    occ1_[s] = w[L.occ1_plane(s)];
    occ2_[s] = w[L.occ2_plane(s)];
    v0_[s] = w[L.v0_plane(s)];
    v1_[s] = w[L.v1_plane(s)];
    stop_reg_[s] = w[L.sreg_plane(s)];
  }
}

std::vector<lip::SteadyState> SlicedEngine::analyze(std::uint64_t max_cycles) {
  const Program& p = *prog_;
  std::uint64_t env_period = 1;
  for (const auto& pat : sink_pattern_) {
    env_period =
        lip::lcm_period(env_period, std::max<std::size_t>(pat.size(), 1));
  }
  const std::size_t shells = p.num_shells();
  // Sink tokens matter only when a source feeds a sink directly; without
  // one, the records keep no count.
  const bool count_sinks = !p.src_fed_sinks.empty();

  std::vector<lip::SteadyState> out(num_lanes_);

  // Repeat detection runs every cycle for every undecided lane, so both
  // halves of it are kept off the per-lane slow path:
  //
  //  - Every lane's plane key is extracted at once by transposing the
  //    state planes 64 at a time (lane_key_words), one word per lane per
  //    block, instead of a per-lane per-bit gather.  The environment
  //    phase rides as one extra key word.
  //
  //  - Visited states live in per-lane append-only pools (key words,
  //    fire counts and, with source-fed sinks, sink tokens), indexed by
  //    a flat open-addressed hash table with exact word comparison on
  //    probe hits, so a cycle costs a few bump-appends instead of
  //    per-lane heap allocations.
  const std::size_t num_words = KeyLayout(p).num_words;
  const std::size_t key_words = num_words + 1;  ///< + environment phase
  std::vector<std::uint64_t> lane_words(num_lanes_ * key_words);
  std::vector<std::uint64_t> planes;

  struct LaneSeen {
    std::vector<std::uint64_t> slot_hash;  ///< valid where slot_rec set
    std::vector<std::uint32_t> slot_rec;   ///< kEmptySlot = free slot
    std::vector<std::uint64_t> rec_cycle;  ///< per record
    std::vector<std::uint64_t> keys;       ///< key_words per record
    std::vector<std::uint64_t> fires;      ///< shells per record
    std::vector<std::uint64_t> tokens;     ///< per record, if count_sinks
  };
  std::vector<LaneSeen> seen(num_lanes_);
  for (auto& ls : seen) {
    ls.slot_hash.assign(1024, 0);
    ls.slot_rec.assign(1024, kEmptySlot);
  }

  auto hash_key = [key_words](const std::uint64_t* w) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < key_words; ++i) {
      h = (h ^ w[i]) * 1099511628211ull;
    }
    return h;
  };
  auto grow_table = [](LaneSeen& ls) {
    const std::size_t cap = ls.slot_rec.size() * 2;
    std::vector<std::uint64_t> hashes(cap, 0);
    std::vector<std::uint32_t> recs(cap, kEmptySlot);
    for (std::size_t s = 0; s < ls.slot_rec.size(); ++s) {
      if (ls.slot_rec[s] == kEmptySlot) continue;
      std::size_t pos = ls.slot_hash[s] & (cap - 1);
      while (recs[pos] != kEmptySlot) pos = (pos + 1) & (cap - 1);
      hashes[pos] = ls.slot_hash[s];
      recs[pos] = ls.slot_rec[s];
    }
    ls.slot_hash.swap(hashes);
    ls.slot_rec.swap(recs);
  };

  std::uint64_t active = live_mask_;
  for (std::uint64_t i = 0; i <= max_cycles && active != 0; ++i) {
    lane_key_words(&planes);
    const std::uint64_t phase = cycle_ % env_period;
    for (std::size_t lane = 0; lane < num_lanes_; ++lane) {
      for (std::size_t w = 0; w < num_words; ++w) {
        lane_words[lane * key_words + w] = planes[64 * w + lane];
      }
      lane_words[lane * key_words + num_words] = phase;
    }
    for (std::size_t lane = 0; lane < num_lanes_; ++lane) {
      const std::uint64_t bit = 1ull << lane;
      if (!(active & bit)) continue;
      LaneSeen& ls = seen[lane];
      const std::uint64_t* key = &lane_words[lane * key_words];
      if ((ls.rec_cycle.size() + 1) * 3 >= ls.slot_rec.size() * 2) {
        grow_table(ls);
      }
      const std::uint64_t h = hash_key(key);
      const std::size_t mask = ls.slot_rec.size() - 1;
      std::size_t pos = h & mask;
      std::uint32_t first = kEmptySlot;
      while (ls.slot_rec[pos] != kEmptySlot) {
        if (ls.slot_hash[pos] == h &&
            std::equal(key, key + key_words,
                       ls.keys.begin() +
                           static_cast<std::ptrdiff_t>(ls.slot_rec[pos]) *
                               static_cast<std::ptrdiff_t>(key_words))) {
          first = ls.slot_rec[pos];  // true repeat of a visited state
          break;
        }
        pos = (pos + 1) & mask;
      }
      if (first == kEmptySlot) {
        const auto index = static_cast<std::uint32_t>(ls.rec_cycle.size());
        ls.slot_hash[pos] = h;
        ls.slot_rec[pos] = index;
        ls.rec_cycle.push_back(cycle_);
        ls.keys.insert(ls.keys.end(), key, key + key_words);
        for (std::size_t k = 0; k < shells; ++k) {
          ls.fires.push_back(fires_[k * kLanes + lane]);
        }
        if (count_sinks) ls.tokens.push_back(sink_tokens_[lane]);
        continue;
      }
      const auto from = ls.fires.begin() +
                        static_cast<std::ptrdiff_t>(first * shells);
      lip::RunCounts then{ls.rec_cycle[first],
                          {from, from + static_cast<std::ptrdiff_t>(shells)},
                          count_sinks ? ls.tokens[first] : 0};
      lip::RunCounts now{cycle_, {}, count_sinks ? sink_tokens_[lane] : 0};
      for (std::size_t k = 0; k < shells; ++k) {
        now.fires.push_back(fires_[k * kLanes + lane]);
      }
      out[lane] = lip::derive_steady_state(then, now, p.shell_node);
      active &= ~bit;
    }
    // Finished lanes keep stepping (their state is periodic; the extra
    // work is harmless) until every lane has an answer.
    if (active != 0) step();
  }
  for (std::size_t lane = 0; lane < num_lanes_; ++lane) {
    if (active & (1ull << lane)) out[lane].cycles = cycle_;
  }
  return out;
}

std::vector<lip::SteadyState> screen_variants(
    const graph::Topology& topo, const std::vector<VariantSpec>& variants,
    skeleton::SkeletonOptions opts, std::uint64_t max_cycles) {
  LIPLIB_EXPECT(!variants.empty() && variants.size() <= SlicedEngine::kLanes,
                "screen_variants batches 1..64 variants");
  SlicedEngine eng(lower(topo, opts), variants.size());
  std::uint64_t saturate = 0;
  for (std::size_t lane = 0; lane < variants.size(); ++lane) {
    if (!variants[lane].kinds.empty()) {
      eng.set_station_kinds(lane, variants[lane].kinds);
    }
    if (variants[lane].worst_case_occupancy) saturate |= 1ull << lane;
  }
  if (saturate != 0) eng.saturate_stations(saturate);
  return eng.analyze(max_cycles);
}

}  // namespace liplib::xir
