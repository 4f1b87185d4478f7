// The compiled scalar engine: lip::System's protocol dynamics, minus
// data and pearls, replayed as straight-line sweeps over the lowered CSR
// arrays.  The differential suite keeps the two locked together bit for
// bit.

#include <algorithm>
#include <cstring>

#include "liplib/probe/probe.hpp"
#include "liplib/support/check.hpp"
#include "liplib/xir/xir.hpp"
#include "settle.hpp"

namespace liplib::xir {

ScalarEngine::ScalarEngine(ProgramRef program) : prog_(std::move(program)) {
  LIPLIB_EXPECT(prog_ != nullptr, "null xir program");
  const Program& p = *prog_;
  fwd_.assign(p.num_segments, 0);
  stop_.assign(p.num_segments, 0);
  st_occ_.assign(p.num_stations(), p.strict ? 1 : 0);
  st_v0_.assign(p.num_stations(), 0);
  st_v1_.assign(p.num_stations(), 0);
  st_stop_reg_.assign(p.num_stations(), 0);
  // Initialization: shell outputs valid, sources presenting.
  pend_.assign(p.shell_br_seg.size(), 1);
  src_pend_.assign(p.src_br_seg.size(), 1);
  fire_count_.assign(p.num_shells(), 0);
  sink_pattern_.resize(p.num_sinks());
  fire_.assign(p.num_shells(), 0);
  queue_.assign(p.settle.units.size(), 0);
  queued_.assign(p.settle.units.size(), 0);
}

ScalarEngine::ScalarEngine(const graph::Topology& topo,
                           skeleton::SkeletonOptions opts)
    : ScalarEngine(lower(topo, opts)) {}

void ScalarEngine::set_sink_pattern(graph::NodeId node,
                                    std::vector<bool> pattern) {
  const Program& p = *prog_;
  LIPLIB_EXPECT(node < p.topo.nodes().size() &&
                    p.topo.node(node).kind == graph::NodeKind::kSink,
                "set_sink_pattern target is not a sink");
  auto& dst = sink_pattern_[p.node_index[node]];
  dst.assign(pattern.size(), 0);
  for (std::size_t i = 0; i < pattern.size(); ++i) dst[i] = pattern[i] ? 1 : 0;
}

void ScalarEngine::saturate_stations() {
  for (std::size_t s = 0; s < prog_->num_stations(); ++s) {
    if (st_occ_[s] == 0) st_occ_[s] = 1;
    st_v0_[s] = 1;  // the front token becomes valid data
  }
}

void ScalarEngine::settle_stops(const std::uint64_t* sink_stops) {
  const Program& p = *prog_;
  std::uint8_t* const stop = stop_.data();
  std::fill(stop_.begin(), stop_.end(), p.pessimistic ? 1 : 0);
  for (std::size_t s = 0; s < p.num_sinks(); ++s) {
    const auto& pat = sink_pattern_[s];
    const bool stopped = sink_stops != nullptr
                             ? sink_stopped(*sink_stops, s)
                             : !pat.empty() && pat[cycle_ % pat.size()];
    stop[p.sink_seg[s]] = stopped ? 1 : 0;
  }
  for (std::size_t s = 0; s < p.num_stations(); ++s) {
    if (!p.st_half[s]) stop[p.st_in[s]] = st_stop_reg_[s];
  }
  // Then the units, in one ordered pass plus re-queues (settle.hpp): at
  // most one queued evaluation per segment.
  const std::uint32_t* const st_in = p.st_in.data();
  const std::uint32_t* const st_out = p.st_out.data();
  const std::uint32_t* const in_begin = p.shell_in_begin.data();
  const std::uint32_t* const in_seg = p.shell_in_seg.data();
  const std::uint32_t* const br_begin = p.shell_br_begin.data();
  const std::uint32_t* const br_seg = p.shell_br_seg.data();
  const std::uint8_t* const fwd = fwd_.data();
  const std::uint8_t* const occ = st_occ_.data();
  const std::uint8_t* const v0 = st_v0_.data();
  const std::uint8_t* const pend = pend_.data();
  std::uint8_t* const fire = fire_.data();
  const std::size_t n_st = p.num_stations();
  const bool strict = p.strict;
  settle_units(
      p.settle, stop, queue_.data(), queued_.data(), p.num_segments,
      [&](std::uint32_t unit, auto& set) {
        if (unit < n_st) {
          set(st_in[unit], occ[unit] > 0 && stop[st_out[unit]] &&
                               (strict || v0[unit]));
          return;
        }
        const std::size_t k = unit - n_st;
        bool ready = true;
        for (std::uint32_t i = in_begin[k]; ready && i < in_begin[k + 1];
             ++i) {
          ready = fwd[in_seg[i]] != 0;
        }
        for (std::uint32_t b = br_begin[k]; ready && b < br_begin[k + 1];
             ++b) {
          ready = !(stop[br_seg[b]] && (strict || pend[b]));
        }
        fire[k] = ready;
        for (std::uint32_t i = in_begin[k]; i < in_begin[k + 1]; ++i) {
          set(in_seg[i], !ready && fwd[in_seg[i]]);
        }
      });
}

void ScalarEngine::attach_probe(probe::Probe& probe) {
  LIPLIB_EXPECT(cycle_ == 0, "attach_probe after stepping");
  LIPLIB_EXPECT(probe_ == nullptr, "attach_probe called twice");
  LIPLIB_EXPECT(!probe.bound(), "probe is already bound to a simulator");
  probe.bind(prog_->topo, prog_->strict);
  probe_ = &probe;
}

void ScalarEngine::observe_probe() {
  const Program& p = *prog_;
  std::uint8_t* valid = probe_->valid_scratch();
  std::uint8_t* stop = probe_->stop_scratch();
  for (std::size_t i = 0; i < fwd_.size(); ++i) {
    valid[i] = fwd_[i];
    stop[i] = stop_[i];
  }
  probe::Activity* act = probe_->activity_scratch();
  for (std::size_t k = 0; k < p.num_shells(); ++k) {
    const std::uint32_t* in = p.shell_in_seg.data();
    const bool missing =
        std::any_of(in + p.shell_in_begin[k], in + p.shell_in_begin[k + 1],
                    [&](std::uint32_t seg) { return !fwd_[seg]; });
    act[k] = fire_[k] ? probe::Activity::kFired
             : missing ? probe::Activity::kWaitingInput
                       : probe::Activity::kStoppedOutput;
  }
  probe_->commit_cycle(cycle_);
}

void ScalarEngine::step() { advance(nullptr); }

ScalarEngine::StepReport ScalarEngine::step(std::uint64_t sink_stops) {
  StepReport r;
  r.fired = advance(&sink_stops);
  r.pending = std::any_of(fwd_.begin(), fwd_.end(),
                          [](std::uint8_t v) { return v != 0; });
  return r;
}

bool ScalarEngine::advance(const std::uint64_t* sink_stops) {
  const Program& p = *prog_;

  // Phase 1: forward validity.
  for (std::size_t b = 0; b < p.shell_br_seg.size(); ++b) {
    fwd_[p.shell_br_seg[b]] = pend_[b];
  }
  for (std::size_t b = 0; b < p.src_br_seg.size(); ++b) {
    fwd_[p.src_br_seg[b]] = src_pend_[b];
  }
  for (std::size_t s = 0; s < p.num_stations(); ++s) {
    fwd_[p.st_out[s]] = (st_occ_[s] > 0 && st_v0_[s]) ? 1 : 0;
  }

  // Phase 2: stops.
  settle_stops(sink_stops);

  if (probe_) observe_probe();

  // Phase 3: clock edge.
  bool any_fired = false;
  for (std::size_t k = 0; k < p.num_shells(); ++k) {
    for (std::uint32_t b = p.shell_br_begin[k]; b < p.shell_br_begin[k + 1];
         ++b) {
      if (pend_[b] && !stop_[p.shell_br_seg[b]]) pend_[b] = 0;
    }
    if (fire_[k]) {
      for (std::uint32_t b = p.shell_br_begin[k]; b < p.shell_br_begin[k + 1];
           ++b) {
        LIPLIB_ENSURE(pend_[b] == 0, "xir shell fired while pending");
        pend_[b] = 1;
      }
      ++fire_count_[k];
      any_fired = true;
    }
  }
  for (const std::uint32_t s : p.src_fed_sinks) {
    if (fwd_[p.sink_seg[s]] && !stop_[p.sink_seg[s]]) ++sink_tokens_;
  }
  for (std::size_t s = 0; s < p.num_stations(); ++s) {
    const bool in_valid = fwd_[p.st_in[s]] != 0;
    const bool front_valid = st_occ_[s] > 0 && st_v0_[s];
    const bool s_eff = p.strict ? (stop_[p.st_out[s]] != 0)
                                : (stop_[p.st_out[s]] && front_valid);
    const bool consumed = st_occ_[s] > 0 && !s_eff;
    if (!p.st_half[s]) {
      const bool accept = !st_stop_reg_[s] && (p.strict || in_valid);
      if (consumed) {
        st_v0_[s] = st_v1_[s];
        --st_occ_[s];
      }
      if (accept) {
        LIPLIB_ENSURE(st_occ_[s] < 2, "xir full station overflow");
        (st_occ_[s] == 0 ? st_v0_[s] : st_v1_[s]) = in_valid ? 1 : 0;
        ++st_occ_[s];
      }
      st_stop_reg_[s] = (st_occ_[s] == 2) ? 1 : 0;
    } else {
      const bool stop_up = st_occ_[s] > 0 && s_eff;
      const bool accept = !stop_up && (p.strict || in_valid);
      if (consumed) st_occ_[s] = 0;
      if (accept) {
        LIPLIB_ENSURE(st_occ_[s] == 0, "xir half station overflow");
        st_v0_[s] = in_valid ? 1 : 0;
        st_occ_[s] = 1;
      }
    }
  }
  for (std::size_t s = 0; s < p.num_sources(); ++s) {
    bool all_clear = true;
    for (std::uint32_t b = p.src_br_begin[s]; b < p.src_br_begin[s + 1]; ++b) {
      if (src_pend_[b] && !stop_[p.src_br_seg[b]]) src_pend_[b] = 0;
      if (src_pend_[b]) all_clear = false;
    }
    if (all_clear) {  // always-ready source reloads immediately
      for (std::uint32_t b = p.src_br_begin[s]; b < p.src_br_begin[s + 1];
           ++b) {
        src_pend_[b] = 1;
      }
    }
  }
  ++cycle_;
  return any_fired;
}

std::uint64_t ScalarEngine::fires(graph::NodeId process) const {
  const Program& p = *prog_;
  LIPLIB_EXPECT(process < p.topo.nodes().size() &&
                    p.topo.node(process).kind == graph::NodeKind::kProcess,
                "node is not a process");
  return fire_count_[p.node_index[process]];
}

namespace {

// analyze() builds a plane key every cycle, so the key is packed eight
// planes at a time from the engine's byte arrays, whose flags are all 0
// or 1 (occupancy 0 to 2); bit by bit it cost station-heavy screens
// about a quarter of their time.
std::uint64_t load_bytes(const std::uint8_t* p, std::size_t n) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, n);
  return w;
}

// Gathers the low bit of each byte of `w` into bits 0..7.
std::uint64_t low_bits(std::uint64_t w) {
  return ((w & 0x0101010101010101ull) * 0x0102040810204080ull) >> 56;
}

}  // namespace

std::string ScalarEngine::state_key() const {
  const KeyLayout L(*prog_);
  std::string key(L.key_bytes(), '\0');
  char* out = key.data();
  std::uint64_t word = 0;
  unsigned bits = 0;
  // Appends the planes of `count` elements, eight at a time; flags(i, n)
  // holds element i + k's plane in the low bit of byte k.
  auto put = [&](std::size_t count, auto flags) {
    for (std::size_t i = 0; i < count; i += 8) {
      const auto n = static_cast<unsigned>(std::min<std::size_t>(8, count - i));
      const std::uint64_t b = low_bits(flags(i, n));
      word |= b << bits;
      bits += n;
      if (bits >= 64) {
        std::memcpy(out, &word, 8);
        out += 8;
        bits -= 64;
        word = bits != 0 ? b >> (n - bits) : 0;
      }
    }
  };
  const std::uint8_t* occ = st_occ_.data();
  auto occupied = [occ](std::size_t i, std::size_t n) {
    const std::uint64_t o = load_bytes(occ + i, n);
    return o | (o >> 1);
  };
  auto full = [occ](std::size_t i, std::size_t n) {
    return load_bytes(occ + i, n) >> 1;
  };
  put(L.n_pend, [&](std::size_t i, std::size_t n) {
    return load_bytes(pend_.data() + i, n);
  });
  put(L.n_src, [&](std::size_t i, std::size_t n) {
    return load_bytes(src_pend_.data() + i, n);
  });
  put(L.n_st, occupied);
  put(L.n_st, full);
  put(L.n_st, [&](std::size_t i, std::size_t n) {
    return load_bytes(st_v0_.data() + i, n) & occupied(i, n);
  });
  put(L.n_st, [&](std::size_t i, std::size_t n) {
    return load_bytes(st_v1_.data() + i, n) & full(i, n);
  });
  put(L.n_st, [&](std::size_t i, std::size_t n) {
    return load_bytes(st_stop_reg_.data() + i, n);
  });
  if (bits != 0) std::memcpy(out, &word, 8);
  return key;
}

void ScalarEngine::load_state_key(const std::string& key) {
  // Planes are unpacked in KeyLayout order, one word at a time.
  LIPLIB_EXPECT(key.size() == KeyLayout(*prog_).key_bytes(),
                "state key of wrong size");
  const char* in = key.data();
  std::uint64_t word = 0;
  unsigned bits = 64;
  auto get = [&]() -> std::uint8_t {
    if (bits == 64) {
      std::memcpy(&word, in, 8);
      in += 8;
      bits = 0;
    }
    return (word >> bits++) & 1;
  };
  for (std::uint8_t& b : pend_) b = get();
  for (std::uint8_t& b : src_pend_) b = get();
  for (std::uint8_t& occ : st_occ_) occ = get();
  for (std::uint8_t& occ : st_occ_) occ += get();
  for (std::uint8_t& v : st_v0_) v = get();
  for (std::uint8_t& v : st_v1_) v = get();
  for (std::uint8_t& r : st_stop_reg_) r = get();
}

lip::SteadyState ScalarEngine::analyze(std::uint64_t max_cycles) {
  std::uint64_t env_period = 1;
  for (const auto& pat : sink_pattern_) {
    env_period =
        lip::lcm_period(env_period, std::max<std::size_t>(pat.size(), 1));
  }
  // A hit between checkpoints is replayed from the one before it, on an
  // engine built from the program, so a replay never drives a probe.
  const std::size_t stride = repeat_stride(*prog_);
  const std::uint64_t start = cycle_;
  std::vector<std::pair<std::string, lip::RunCounts>> checkpoints;
  RepeatIndex index;
  std::optional<ScalarEngine> replay;
  lip::RunCounts then;
  for (std::uint64_t i = 0; i <= max_cycles; ++i) {
    const std::string key = state_key();
    if (i % stride == 0) {
      checkpoints.emplace_back(key, lip::RunCounts{cycle_, fire_count_,
                                                   sink_tokens_});
    }
    const auto seen = index.find_or_insert(
        RepeatIndex::hash(key, cycle_ % env_period), cycle_,
        [&](std::uint64_t at) {
          if ((cycle_ - at) % env_period != 0) return false;
          const auto& [cp_key, cp] = checkpoints[(at - start) / stride];
          then = cp;
          if (at == cp.cycle) return cp_key == key;
          if (!replay || replay->cycle_ < cp.cycle || replay->cycle_ > at) {
            if (!replay) replay.emplace(prog_).sink_pattern_ = sink_pattern_;
            replay->load_state_key(cp_key);
            replay->fire_count_ = cp.fires;
            replay->sink_tokens_ = cp.sink_tokens;
            replay->cycle_ = cp.cycle;
          }
          replay->run(at - replay->cycle_);
          then = {at, replay->fire_count_, replay->sink_tokens_};
          return replay->state_key() == key;
        });
    if (seen) {
      return lip::derive_steady_state(
          then, {cycle_, fire_count_, sink_tokens_}, prog_->shell_node);
    }
    step();
  }
  lip::SteadyState none;
  none.cycles = cycle_;
  return none;
}

lip::SteadyState screen_for_deadlock(const ProgramRef& prog,
                                     bool worst_case_occupancy,
                                     std::uint64_t max_cycles) {
  ScalarEngine eng(prog);
  if (worst_case_occupancy) eng.saturate_stations();
  return eng.analyze(max_cycles);
}

lip::SteadyState screen_for_deadlock(const graph::Topology& topo,
                                     skeleton::ScreeningOptions opts,
                                     std::uint64_t max_cycles) {
  return screen_for_deadlock(lower(topo, opts.skeleton),
                             opts.worst_case_occupancy, max_cycles);
}

skeleton::CureResult cure_deadlocks(const graph::Topology& topo,
                                    skeleton::ScreeningOptions opts,
                                    std::uint64_t max_cycles) {
  skeleton::CureResult result;
  result.cured = topo;
  for (;;) {
    const auto verdict = screen_for_deadlock(result.cured, opts, max_cycles);
    if (verdict.found && !verdict.deadlock_found()) {
      result.success = true;
      return result;
    }
    // Substitute one half relay station on a cycle with a full one; the
    // combinational stop loop it participated in is then broken there.
    const auto on_cycle = result.cured.channels_on_cycles();
    bool substituted = false;
    for (graph::ChannelId c = 0;
         c < result.cured.channels().size() && !substituted; ++c) {
      if (!on_cycle[c]) continue;
      for (auto& kind : result.cured.stations_mut(c)) {
        if (kind == graph::RsKind::kHalf) {
          kind = graph::RsKind::kFull;
          result.touched_channels.push_back(c);
          ++result.substitutions;
          substituted = true;
          break;
        }
      }
    }
    if (!substituted) return result;  // nothing left to cure; failed
  }
}

}  // namespace liplib::xir
