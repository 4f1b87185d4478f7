// The compiled scalar engine: lip::System's protocol dynamics, minus
// data and pearls, replayed as straight-line sweeps over the lowered CSR
// arrays.  The differential suite keeps the two locked together bit for
// bit.

#include <algorithm>
#include <cstring>

#include "liplib/probe/probe.hpp"
#include "liplib/support/check.hpp"
#include "liplib/xir/xir.hpp"

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

bool ScalarEngine::shell_ready(std::size_t k) const {
  const Program& p = *prog_;
  for (std::uint32_t i = p.shell_in_begin[k]; i < p.shell_in_begin[k + 1];
       ++i) {
    if (!fwd_[p.shell_in_seg[i]]) return false;
  }
  for (std::uint32_t b = p.shell_br_begin[k]; b < p.shell_br_begin[k + 1];
       ++b) {
    const bool stopped = stop_[p.shell_br_seg[b]] != 0;
    if (p.strict) {
      if (stopped) return false;
    } else if (stopped && pend_[b]) {
      return false;
    }
  }
  return true;
}

void ScalarEngine::eval_settle_unit(std::uint32_t unit) {
  const Program& p = *prog_;
  if (unit < p.num_stations()) {
    const std::size_t s = unit;
    const bool front_valid = st_occ_[s] > 0 && st_v0_[s];
    const bool s_eff = p.strict ? (stop_[p.st_out[s]] != 0)
                                : (stop_[p.st_out[s]] && front_valid);
    stop_[p.st_in[s]] = (st_occ_[s] > 0 && s_eff) ? 1 : 0;
  } else {
    const std::size_t k = unit - p.num_stations();
    const bool stalled = !shell_ready(k);
    for (std::uint32_t i = p.shell_in_begin[k]; i < p.shell_in_begin[k + 1];
         ++i) {
      const std::uint32_t in = p.shell_in_seg[i];
      stop_[in] = (stalled && fwd_[in]) ? 1 : 0;
    }
  }
}

bool ScalarEngine::eval_settle_unit_changed(std::uint32_t unit) {
  const Program& p = *prog_;
  bool changed = false;
  if (unit < p.num_stations()) {
    const std::size_t s = unit;
    const bool front_valid = st_occ_[s] > 0 && st_v0_[s];
    const bool s_eff = p.strict ? (stop_[p.st_out[s]] != 0)
                                : (stop_[p.st_out[s]] && front_valid);
    const std::uint8_t up = (st_occ_[s] > 0 && s_eff) ? 1 : 0;
    if (stop_[p.st_in[s]] != up) {
      stop_[p.st_in[s]] = up;
      changed = true;
    }
  } else {
    const std::size_t k = unit - p.num_stations();
    const bool stalled = !shell_ready(k);
    for (std::uint32_t i = p.shell_in_begin[k]; i < p.shell_in_begin[k + 1];
         ++i) {
      const std::uint32_t in = p.shell_in_seg[i];
      const std::uint8_t up = (stalled && fwd_[in]) ? 1 : 0;
      if (stop_[in] != up) {
        stop_[in] = up;
        changed = true;
      }
    }
  }
  return changed;
}

void ScalarEngine::settle_stops(const std::uint64_t* sink_stops) {
  const Program& p = *prog_;
  const std::uint8_t init = p.pessimistic ? 1 : 0;
  for (auto& s : stop_) s = init;
  for (std::size_t s = 0; s < p.num_sinks(); ++s) {
    const auto& pat = sink_pattern_[s];
    const bool stopped = sink_stops != nullptr
                             ? sink_stopped(*sink_stops, s)
                             : !pat.empty() && pat[cycle_ % pat.size()];
    stop_[p.sink_seg[s]] = stopped ? 1 : 0;
  }
  for (std::size_t s = 0; s < p.num_stations(); ++s) {
    if (!p.st_half[s]) stop_[p.st_in[s]] = st_stop_reg_[s];
  }
  // The acyclic part of the stop network: every unit's inputs are final
  // when it is visited, so a single ordered pass lands directly on the
  // fixpoint System's repeated sweeps converge to (the stop system is
  // monotone from its extreme init, so the extreme fixpoint is
  // order-independent).
  for (std::uint32_t unit : p.schedule.order) eval_settle_unit(unit);
  // The combinational-cycle remainder iterates, exactly like System but
  // over only the cyclic units.
  if (!p.schedule.iterate.empty()) {
    const std::size_t guard = 2 * stop_.size() + 4;
    std::size_t sweeps = 0;
    bool changed = true;
    while (changed) {
      LIPLIB_ENSURE(++sweeps <= guard, "stop fixpoint failed to converge");
      changed = false;
      for (std::uint32_t unit : p.schedule.iterate) {
        changed = eval_settle_unit_changed(unit) || changed;
      }
    }
  }
}

void ScalarEngine::attach_probe(probe::Probe& probe) {
  LIPLIB_EXPECT(cycle_ == 0, "attach_probe after stepping");
  LIPLIB_EXPECT(probe_ == nullptr, "attach_probe called twice");
  LIPLIB_EXPECT(!probe.bound(), "probe is already bound to a simulator");
  probe::Wiring w;
  build_probe_wiring(*prog_, &w);
  probe.bind(prog_->topo, std::move(w));
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
    if (shell_ready(k)) {
      act[k] = probe::Activity::kFired;
    } else {
      bool missing = false;
      for (std::uint32_t i = p.shell_in_begin[k]; i < p.shell_in_begin[k + 1];
           ++i) {
        if (!fwd_[p.shell_in_seg[i]]) {
          missing = true;
          break;
        }
      }
      act[k] = missing ? probe::Activity::kWaitingInput
                       : probe::Activity::kStoppedOutput;
    }
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
    const bool fire = shell_ready(k);
    for (std::uint32_t b = p.shell_br_begin[k]; b < p.shell_br_begin[k + 1];
         ++b) {
      if (pend_[b] && !stop_[p.shell_br_seg[b]]) pend_[b] = 0;
    }
    if (fire) {
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
  return lip::first_repeat(
      env_period, max_cycles, prog_->shell_node, [this] { return state_key(); },
      [this] { return lip::RunCounts{cycle_, fire_count_, sink_tokens_}; },
      [this] { step(); });
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
