#include "liplib/telemetry/watchdog.hpp"

#include <sstream>

#include "liplib/graph/netlist_io.hpp"
#include "liplib/probe/trace.hpp"
#include "liplib/support/check.hpp"

namespace liplib::telemetry {

namespace {

const char* activity_str(probe::Activity a) {
  switch (a) {
    case probe::Activity::kFired: return "fire";
    case probe::Activity::kWaitingInput: return "wait";
    case probe::Activity::kStoppedOutput: return "stall";
  }
  return "?";
}

const char* why_str(probe::Activity a) {
  return a == probe::Activity::kWaitingInput ? "waiting" : "stopped";
}

const char* kind_str(probe::UnitKind k) {
  switch (k) {
    case probe::UnitKind::kShell: return "shell";
    case probe::UnitKind::kSource: return "source";
    case probe::UnitKind::kSink: return "sink";
    case probe::UnitKind::kStation: return "station";
  }
  return "?";
}

/// Same trace process id as the live probe, so a bundle trace opens in
/// Perfetto with the familiar layout.
constexpr std::uint64_t kTracePid = 1;

TripReason parse_reason(const std::string& s) {
  if (s == "no_progress") return TripReason::kNoProgress;
  if (s == "stop_saturation") return TripReason::kStopSaturation;
  if (s == "none") return TripReason::kNone;
  throw ApiError("post-mortem bundle has unknown trip reason \"" + s + "\"");
}

/// Runs `prog` from the occupancy `dog`'s options name under `dog` for
/// at most `max_cycles` — the one deterministic re-run behind replay()
/// and deadlock_evidence().
void rerun(const xir::ProgramRef& prog, Watchdog& dog,
           std::uint64_t max_cycles) {
  xir::ScalarEngine eng(prog);
  if (dog.options().worst_case_occupancy) eng.saturate_stations();
  dog.attach(eng);
  run_guarded(eng, dog, max_cycles);
}

}  // namespace

const char* trip_reason_str(TripReason r) {
  switch (r) {
    case TripReason::kNone: return "none";
    case TripReason::kNoProgress: return "no_progress";
    case TripReason::kStopSaturation: return "stop_saturation";
  }
  return "?";
}

// ---- PostMortem ---------------------------------------------------------

Json PostMortem::to_json() const {
  Json j = Json::object();
  j.set("schema", "liplib.postmortem/1");
  j.set("reason", trip_reason_str(reason));
  j.set("trip_cycle", trip_cycle);
  j.set("no_progress_since", no_progress_since);
  j.set("no_progress_threshold", no_progress_threshold);
  j.set("ring_cycles", ring_cycles);
  j.set("seed", seed);
  j.set("strict", strict);
  j.set("optimistic", optimistic);
  j.set("worst_case_occupancy", worst_case_occupancy);
  j.set("netlist", netlist);
  Json bl = Json::array();
  for (const auto& b : blame) {
    bl.push(Json::object()
                .set("victim", b.victim)
                .set("why", b.why)
                .set("culprit", b.culprit)
                .set("culprit_kind", b.culprit_kind)
                .set("cycles", b.cycles));
  }
  j.set("blame", std::move(bl));
  j.set("trace", trace_json);
  return j;
}

PostMortem PostMortem::from_json(const Json& j) {
  LIPLIB_EXPECT(j.is_object(), "post-mortem bundle must be a JSON object");
  const Json* schema = j.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "liplib.postmortem/1") {
    throw ApiError("not a liplib.postmortem/1 bundle");
  }
  // Bundle fields and blame rows alike: a missing member is named.
  auto member = [](const Json& obj, const char* name) -> const Json& {
    const Json* f = obj.find(name);
    if (f == nullptr) {
      throw ApiError(std::string("post-mortem bundle missing field \"") +
                     name + "\"");
    }
    return *f;
  };
  PostMortem pm;
  pm.reason = parse_reason(member(j, "reason").as_string());
  pm.trip_cycle = member(j, "trip_cycle").as_uint();
  pm.no_progress_since = member(j, "no_progress_since").as_uint();
  pm.no_progress_threshold = member(j, "no_progress_threshold").as_uint();
  pm.ring_cycles = member(j, "ring_cycles").as_uint();
  pm.seed = member(j, "seed").as_uint();
  pm.strict = member(j, "strict").as_bool();
  pm.optimistic = member(j, "optimistic").as_bool();
  pm.worst_case_occupancy = member(j, "worst_case_occupancy").as_bool();
  pm.netlist = member(j, "netlist").as_string();
  const Json& bl = member(j, "blame");
  LIPLIB_EXPECT(bl.is_array(), "post-mortem bundle: blame must be an array");
  for (const Json& e : bl.elements()) {
    BlameSummary b;
    b.victim = member(e, "victim").as_string();
    b.why = member(e, "why").as_string();
    b.culprit = member(e, "culprit").as_string();
    b.culprit_kind = member(e, "culprit_kind").as_string();
    b.cycles = member(e, "cycles").as_uint();
    pm.blame.push_back(std::move(b));
  }
  pm.trace_json = member(j, "trace").as_string();
  return pm;
}

// ---- Watchdog -----------------------------------------------------------

// Attribution gives the bundle its blame histogram; the bundle's trace
// is replayed from the ring, and `trace` streams the run's own.
Watchdog::Watchdog(WatchdogOptions opts, probe::TraceSink* trace)
    : opts_(opts),
      probe_({.counters = true, .attribution = true, .trace = trace,
              .observer = this}) {
  LIPLIB_EXPECT(opts_.no_progress_threshold > 0,
                "watchdog no_progress_threshold must be positive");
  LIPLIB_EXPECT(opts_.ring_cycles > 0, "watchdog ring_cycles must be positive");
}

void Watchdog::on_bind(const probe::Probe& p) {
  bound_ = &p;
  segs_ = p.wiring().segments.size();
  shells_ = p.wiring().shells.size();
  const std::size_t n = static_cast<std::size_t>(opts_.ring_cycles);
  ring_valid_.assign(n * segs_, 0);
  ring_stop_.assign(n * segs_, 0);
  ring_act_.assign(n * shells_, 0);
  ring_cycle_.assign(n, 0);
  frames_ = 0;
  frozen_run_ = 0;
  frozen_since_ = 0;
  reason_ = TripReason::kNone;
  trip_cycle_ = 0;
  trip_saturated_ = false;
}

bool Watchdog::frame_frozen(const std::uint8_t* valid,
                            const std::uint8_t* stop,
                            const probe::Activity* activity,
                            bool* saturated) const {
  bool pending = false;
  bool moved = false;
  bool all_stopped = true;
  for (std::size_t i = 0; i < segs_; ++i) {
    if (valid[i] == 0) continue;
    pending = true;
    if (stop[i] == 0) {
      moved = true;       // a valid token advances at the clock edge
      all_stopped = false;
    }
  }
  bool fired = false;
  for (std::size_t k = 0; k < shells_; ++k) {
    if (activity[k] == probe::Activity::kFired) {
      fired = true;
      break;
    }
  }
  *saturated = pending && all_stopped;
  return pending && !moved && !fired;
}

void Watchdog::on_cycle(std::uint64_t cycle, const std::uint8_t* valid,
                        const std::uint8_t* stop,
                        const probe::Activity* activity) {
  if (tripped()) return;  // flight recorder frozen at the trip frame

  const std::size_t n = static_cast<std::size_t>(opts_.ring_cycles);
  const std::size_t slot = static_cast<std::size_t>(frames_ % n);
  for (std::size_t i = 0; i < segs_; ++i) {
    ring_valid_[slot * segs_ + i] = valid[i];
    ring_stop_[slot * segs_ + i] = stop[i];
  }
  for (std::size_t k = 0; k < shells_; ++k) {
    ring_act_[slot * shells_ + k] = static_cast<std::uint8_t>(activity[k]);
  }
  ring_cycle_[slot] = cycle;
  ++frames_;

  bool saturated = false;
  if (frame_frozen(valid, stop, activity, &saturated)) {
    if (frozen_run_ == 0) frozen_since_ = cycle;
    ++frozen_run_;
    if (frozen_run_ >= opts_.no_progress_threshold) {
      reason_ = saturated ? TripReason::kStopSaturation
                          : TripReason::kNoProgress;
      trip_cycle_ = cycle;
      trip_saturated_ = saturated;
    }
  } else {
    frozen_run_ = 0;
  }
}

std::uint64_t Watchdog::recorded_cycles() const {
  return frames_ < opts_.ring_cycles ? frames_ : opts_.ring_cycles;
}

std::string Watchdog::render_ring_trace() const {
  LIPLIB_EXPECT(bound_ != nullptr, "watchdog never bound");
  const probe::Wiring& w = bound_->wiring();
  const graph::Topology& topo = bound_->topology();

  std::ostringstream os;
  probe::TraceSink sink(os);
  sink.name_process(kTracePid, "lid-postmortem");
  std::vector<std::string> shell_names(shells_);
  for (std::size_t k = 0; k < shells_; ++k) {
    shell_names[k] = topo.node(w.shells[k].node).name;
    sink.name_thread(kTracePid, k + 1, shell_names[k]);
  }

  struct Span {
    std::uint8_t act = 0;
    std::uint64_t start = 0;
    bool open = false;
  };
  std::vector<Span> span(shells_);
  struct ChanSample {
    std::uint64_t valid = ~0ull;
    std::uint64_t stopped = ~0ull;
  };
  std::vector<ChanSample> chan(topo.channels().size());

  const std::size_t n = static_cast<std::size_t>(opts_.ring_cycles);
  const std::uint64_t count = recorded_cycles();
  const std::size_t start =
      frames_ <= n ? 0 : static_cast<std::size_t>(frames_ % n);
  std::uint64_t last_cycle = 0;
  for (std::uint64_t f = 0; f < count; ++f) {
    const std::size_t slot = (start + static_cast<std::size_t>(f)) % n;
    const std::uint64_t cycle = ring_cycle_[slot];
    last_cycle = cycle;
    for (std::size_t k = 0; k < shells_; ++k) {
      const std::uint8_t a = ring_act_[slot * shells_ + k];
      Span& sp = span[k];
      if (sp.open && sp.act == a) continue;
      if (sp.open) {
        sink.complete_event(activity_str(static_cast<probe::Activity>(sp.act)),
                            "shell", sp.start, cycle - sp.start, kTracePid,
                            k + 1);
      }
      sp = {a, cycle, true};
    }
    for (graph::ChannelId c = 0; c < chan.size(); ++c) {
      std::uint64_t v = 0;
      std::uint64_t s = 0;
      for (std::size_t seg : bound_->channel_segments(c)) {
        v += ring_valid_[slot * segs_ + seg];
        s += ring_stop_[slot * segs_ + seg];
      }
      if (v != chan[c].valid || s != chan[c].stopped) {
        sink.counter_event(bound_->channel_track(c), cycle, kTracePid,
                           {{"valid", v}, {"stop", s}});
        chan[c] = {v, s};
      }
    }
  }
  for (std::size_t k = 0; k < shells_; ++k) {
    if (span[k].open) {
      sink.complete_event(
          activity_str(static_cast<probe::Activity>(span[k].act)), "shell",
          span[k].start, last_cycle + 1 - span[k].start, kTracePid, k + 1);
    }
  }
  sink.finish();
  return os.str();
}

PostMortem Watchdog::post_mortem() const {
  LIPLIB_EXPECT(tripped(), "post_mortem on an untripped watchdog");
  LIPLIB_EXPECT(bound_ != nullptr, "watchdog never bound");
  PostMortem pm;
  pm.reason = reason_;
  pm.trip_cycle = trip_cycle_;
  pm.no_progress_since = frozen_since_;
  pm.no_progress_threshold = opts_.no_progress_threshold;
  pm.ring_cycles = opts_.ring_cycles;
  pm.seed = opts_.seed;
  pm.strict = bound_->wiring().strict;
  pm.optimistic = opts_.optimistic;
  pm.worst_case_occupancy = opts_.worst_case_occupancy;
  pm.netlist = graph::write_netlist(bound_->topology());
  for (const auto& b : bound_->report().blame) {
    BlameSummary s;
    s.victim = b.victim_name;
    s.why = why_str(b.why);
    s.culprit = b.culprit_name;
    s.culprit_kind = kind_str(b.culprit.kind);
    s.cycles = b.cycles;
    pm.blame.push_back(std::move(s));
  }
  pm.trace_json = render_ring_trace();
  return pm;
}

// ---- whole-period profile -----------------------------------------------

GuardedRun run_profiled(lip::System& sys, Watchdog& dog,
                        std::uint64_t max_cycles) {
  LIPLIB_EXPECT(dog.bound_ == &dog.probe_,
                "run_profiled needs the watchdog attached to the system");
  sys.finalize();
  // A trace cannot skip cycles: a traced run steps them all, as an
  // aperiodic one does.
  const std::uint64_t env =
      dog.probe_.config().trace ? 0 : sys.environment_period();
  // Two cycles with equal protocol state and environment phase see the
  // same valid/stop/activity frames from then on.
  auto state = [&] {
    std::string s = sys.protocol_state();
    const std::uint64_t phase = sys.cycle() % env;
    s.append(reinterpret_cast<const char*>(&phase), sizeof phase);
    return s;
  };
  std::optional<lip::PeriodSearch> search;
  if (env != 0) search = lip::PeriodSearch{state()};
  const std::uint64_t start = sys.cycle();
  std::uint64_t period = 0;      // found, and its growth not yet counted
  std::uint64_t count_from = 0;  // first cycle of the counted period
  probe::Probe::WindowCounters from;

  GuardedRun r;
  while (r.cycles < max_cycles && !dog.tripped()) {
    const std::uint64_t now = sys.cycle();
    if (search && now > start) {
      period = search->offer(state());
      if (period != 0) {
        search.reset();
        // (b): every frozen run of the periodic regime has ended or
        // tripped by now + K - 1.
        count_from = now + dog.options().no_progress_threshold;
      }
    }
    if (period != 0 && now == count_from) {
      from = dog.probe_.window_counters();
    } else if (period != 0 && now == count_from + period) {
      const std::uint64_t whole = (max_cycles - r.cycles) / period;
      dog.probe_.advance(from, dog.probe_.window_counters(), whole);
      r.cycles += whole * period;
      period = 0;
      continue;
    }
    sys.step();
    ++r.cycles;
  }
  r.deadlocked = dog.tripped();
  return r;
}

// ---- re-runs: replay and deadlock evidence ------------------------------

std::optional<PostMortem> deadlock_evidence(const xir::ProgramRef& prog,
                                            const lip::SteadyState& verdict,
                                            WatchdogOptions opts) {
  if (!verdict.deadlock_found()) return std::nullopt;
  opts.optimistic = !prog->pessimistic;
  Watchdog dog(opts);
  rerun(prog, dog,
        verdict.transient + verdict.period + opts.no_progress_threshold);
  if (!dog.tripped()) return std::nullopt;
  return dog.post_mortem();
}

ReplayResult replay(const PostMortem& pm) {
  skeleton::SkeletonOptions sopts;
  sopts.policy = pm.strict ? lip::StopPolicy::kCarloniStrict
                           : lip::StopPolicy::kCasuDiscardOnVoid;
  sopts.resolution = pm.optimistic ? lip::StopResolution::kOptimistic
                                   : lip::StopResolution::kPessimistic;
  WatchdogOptions wopts;
  wopts.no_progress_threshold = pm.no_progress_threshold;
  wopts.ring_cycles = pm.ring_cycles;
  wopts.seed = pm.seed;
  wopts.worst_case_occupancy = pm.worst_case_occupancy;
  wopts.optimistic = pm.optimistic;
  Watchdog dog(wopts);
  // The failure, if it reproduces, reproduces by the bundle's own trip
  // cycle; the margin absorbs nothing more than off-by-one drift.
  rerun(xir::lower(graph::parse_netlist_string(pm.netlist), sopts), dog,
        pm.trip_cycle + pm.no_progress_threshold + 16);

  ReplayResult r;
  r.tripped = dog.tripped();
  r.trip_cycle = dog.trip_cycle();
  r.no_progress_since = dog.no_progress_since();
  r.reason = dog.reason();
  r.reproduced = r.tripped && r.reason == pm.reason &&
                 r.trip_cycle == pm.trip_cycle &&
                 r.no_progress_since == pm.no_progress_since;
  return r;
}

// ---- KernelWatchdog -----------------------------------------------------

KernelWatchdog::KernelWatchdog(std::uint64_t max_deltas_per_time)
    : max_deltas_(max_deltas_per_time) {
  LIPLIB_EXPECT(max_deltas_ > 0, "kernel watchdog threshold must be positive");
}

void KernelWatchdog::on_delta(sim::Time now, std::size_t /*changes*/,
                              std::size_t /*wakeups*/) {
  if (!any_delta_ || now != current_time_) {
    current_time_ = now;
    deltas_this_time_ = 0;
    any_delta_ = true;
  }
  ++deltas_this_time_;
  if (!tripped_ && deltas_this_time_ >= max_deltas_) {
    tripped_ = true;
    trip_time_ = now;
    deltas_at_trip_ = deltas_this_time_;
  }
}

void KernelWatchdog::on_time_serviced(sim::Time /*now*/,
                                      std::uint64_t /*deltas*/) {}

}  // namespace liplib::telemetry
