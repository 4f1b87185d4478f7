// The bit-sliced engine: 64 scenarios per machine word.  Each update
// below is the lane-wise boolean form of one ScalarEngine statement
// (src/xir/scalar.cpp); where full and half stations diverge, both paths
// are computed and merged under the per-station lane mask.

#include <algorithm>
#include <bit>
#include <cstring>

#include "liplib/support/check.hpp"
#include "liplib/xir/sliced.hpp"
#include "settle.hpp"

namespace liplib::xir {

namespace {
constexpr std::uint64_t kAll = ~0ull;

// In-place 64x64 bit-matrix transpose (Hacker's Delight 7-3): afterwards
// m[i] bit j == the input's m[j] bit i, i.e. word i collects lane i's
// bit from each of the 64 input planes.  A compile-time round width lets
// the compiler vectorize each round (2.5x), and analyze() runs it every
// cycle.
template <unsigned j = 32>
void transpose64(std::uint64_t m[64]) {
  constexpr std::uint64_t keep = ~0ull / ((1ull << j) + 1);
  for (unsigned k = 0; k < 64; k += 2 * j) {
    for (unsigned i = k; i < k + j; ++i) {
      const std::uint64_t t = (m[i] ^ (m[i + j] << j)) & ~keep;
      m[i] ^= t;
      m[i + j] ^= t >> j;
    }
  }
  if constexpr (j > 1) transpose64<j / 2>(m);
}
}  // namespace

SlicedEngine::SlicedEngine(ProgramRef program, std::size_t num_lanes)
    : prog_(std::move(program)), num_lanes_(num_lanes) {
  LIPLIB_EXPECT(prog_ != nullptr, "null xir program");
  LIPLIB_EXPECT(num_lanes_ >= 1 && num_lanes_ <= kLanes,
                "sliced engine carries 1..64 lanes");
  live_mask_ = num_lanes_ >= 64 ? kAll : (1ull << num_lanes_) - 1;
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
  fires_.assign(p.num_shells() * num_lanes_, 0);
  sink_tokens_.assign(num_lanes_, 0);
  sink_pattern_.resize(p.num_sinks());
  fire_w_.assign(p.num_shells(), 0);
  use_plan(p.settle);
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
  plan_dirty_ = true;
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

void SlicedEngine::use_plan(SettlePlan plan) {
  plan_ = std::move(plan);
  queue_.assign(plan_.units.size(), 0);
  queued_.assign(plan_.units.size(), 0);
  plan_dirty_ = false;
}

void SlicedEngine::settle_stops(const std::uint64_t* sink_stops) {
  const Program& p = *prog_;
  if (plan_dirty_) {
    // A station is a unit when it is half in any lane; a mixed station's
    // update is masked to its half lanes.
    std::vector<std::uint8_t> half(p.num_stations(), 0);
    for (std::size_t s = 0; s < p.num_stations(); ++s) {
      half[s] = half_mask_[s] != 0 ? 1 : 0;
    }
    use_plan(settle_plan(p, half));
  }
  const std::uint64_t init = p.pessimistic ? kAll : 0;
  std::uint64_t* const stop = stop_w_.data();
  std::fill(stop_w_.begin(), stop_w_.end(), init);
  for (std::size_t s = 0; s < p.num_sinks(); ++s) {
    const auto& pat = sink_pattern_[s];
    stop[p.sink_seg[s]] =
        sink_stops != nullptr                          ? sink_stops[s]
        : (!pat.empty() && pat[cycle_ % pat.size()]) ? kAll
                                                       : 0;
  }
  for (std::size_t s = 0; s < p.num_stations(); ++s) {
    // Full lanes present the registered stop; half lanes keep the init
    // value until their unit runs.
    const std::uint64_t hm = half_mask_[s];
    stop[p.st_in[s]] = (init & hm) | (stop_reg_[s] & ~hm);
  }
  // Each lane's stop bits change at most once per settle, so at most 64
  // queued evaluations per segment follow the ordered pass.
  const std::uint32_t* const st_in = p.st_in.data();
  const std::uint32_t* const st_out = p.st_out.data();
  const std::uint32_t* const in_begin = p.shell_in_begin.data();
  const std::uint32_t* const in_seg = p.shell_in_seg.data();
  const std::uint32_t* const br_begin = p.shell_br_begin.data();
  const std::uint32_t* const br_seg = p.shell_br_seg.data();
  const std::uint64_t* const fwd = fwd_w_.data();
  const std::uint64_t* const half = half_mask_.data();
  const std::uint64_t* const occ1 = occ1_.data();
  const std::uint64_t* const v0 = v0_.data();
  const std::uint64_t* const pend = pend_w_.data();
  std::uint64_t* const fire = fire_w_.data();
  const std::size_t n_st = p.num_stations();
  const bool strict = p.strict;
  settle_units(
      plan_, stop, queue_.data(), queued_.data(), kLanes * p.num_segments,
      [&](std::uint32_t unit, auto& set) {
        if (unit < n_st) {
          const std::uint64_t hm = half[unit];
          const std::uint64_t s_eff =
              stop[st_out[unit]] & (strict ? kAll : occ1[unit] & v0[unit]);
          set(st_in[unit],
              (stop[st_in[unit]] & ~hm) | (occ1[unit] & s_eff & hm));
          return;
        }
        const std::size_t k = unit - n_st;
        std::uint64_t ready = kAll;
        for (std::uint32_t i = in_begin[k]; i < in_begin[k + 1]; ++i) {
          ready &= fwd[in_seg[i]];
        }
        for (std::uint32_t b = br_begin[k]; b < br_begin[k + 1]; ++b) {
          ready &= ~(stop[br_seg[b]] & (strict ? kAll : pend[b]));
        }
        fire[k] = ready;
        for (std::uint32_t i = in_begin[k]; i < in_begin[k + 1]; ++i) {
          set(in_seg[i], ~ready & fwd[in_seg[i]]);
        }
      });
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
    const std::uint64_t fire = fire_w_[k];
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
      ++fires_[k * num_lanes_ + static_cast<std::size_t>(lane)];
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
  return fires_[p.node_index[process] * num_lanes_ + lane];
}

void SlicedEngine::save_checkpoint(std::vector<std::uint64_t>* out) const {
  for (const auto* v : {&pend_w_, &src_pend_w_, &occ1_, &occ2_, &v0_, &v1_,
                        &stop_reg_, &fires_, &sink_tokens_}) {
    out->insert(out->end(), v->begin(), v->end());
  }
}

void SlicedEngine::load_checkpoint(const std::uint64_t* in) {
  for (auto* v : {&pend_w_, &src_pend_w_, &occ1_, &occ2_, &v0_, &v1_,
                  &stop_reg_, &fires_, &sink_tokens_}) {
    std::copy_n(in, v->size(), v->begin());
    in += v->size();
  }
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
  // Each lane runs ScalarEngine::analyze's search with its own
  // RepeatIndex over one batched pass of the dynamics; one transpose of
  // the state planes yields every lane's key.  The lanes share one
  // checkpoint every `stride` cycles.
  const KeyLayout L(p);
  const std::size_t stride = repeat_stride(p);
  const std::size_t record = L.num_planes + fires_.size() + num_lanes_;
  const std::uint64_t start = cycle_;
  std::vector<std::uint64_t> checkpoints, planes, replayed, key(L.num_words);
  std::vector<RepeatIndex> index(num_lanes_);
  SlicedEngine replay = *this;
  replay.cycle_ = ~0ull;  // no checkpoint loaded yet
  auto counts = [&](const SlicedEngine& e, std::size_t lane) {
    lip::RunCounts c{e.cycle_, {}, e.sink_tokens_[lane]};
    for (std::size_t k = 0; k < p.num_shells(); ++k) {
      c.fires.push_back(e.fires_[k * num_lanes_ + lane]);
    }
    return c;
  };

  std::vector<lip::SteadyState> out(num_lanes_);
  std::uint64_t active = live_mask_;
  for (std::uint64_t i = 0; i <= max_cycles && active != 0; ++i) {
    if (i % stride == 0) save_checkpoint(&checkpoints);
    lane_key_words(&planes);
    for (std::uint64_t todo = active; todo != 0; todo &= todo - 1) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(todo));
      for (std::size_t w = 0; w < L.num_words; ++w) {
        key[w] = planes[64 * w + lane];
      }
      const std::string_view bytes(reinterpret_cast<const char*>(key.data()),
                                   L.key_bytes());
      const auto seen = index[lane].find_or_insert(
          RepeatIndex::hash(bytes, cycle_ % env_period), cycle_,
          [&](std::uint64_t at) {
            if ((cycle_ - at) % env_period != 0) return false;
            const std::uint64_t c = (at - start) / stride;
            if (replay.cycle_ < start + c * stride || replay.cycle_ > at) {
              replay.load_checkpoint(&checkpoints[c * record]);
              replay.cycle_ = start + c * stride;
            }
            replay.run(at - replay.cycle_);
            replay.lane_key_words(&replayed);
            for (std::size_t w = 0; w < L.num_words; ++w) {
              if (replayed[64 * w + lane] != key[w]) return false;
            }
            return true;
          });
      if (seen) {
        out[lane] = lip::derive_steady_state(counts(replay, lane),
                                             counts(*this, lane), p.shell_node);
        active &= ~(1ull << lane);
      }
    }
    // Finished lanes keep stepping (their state is periodic; the extra
    // work is harmless) until every lane has an answer.
    if (active != 0) step();
  }
  for (auto& lane : out) lane.cycles = lane.found ? lane.cycles : cycle_;
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
