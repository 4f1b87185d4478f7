// The search half of liplib::prove: the BFS/BMC driver over the
// bit-sliced frontier (a xir::SlicedEngine stepping 64 (state,
// environment) expansions per settle pass), the k-induction decision
// procedure, counterexample finishing (trace, token audit, culprit,
// replayable post-mortem) and the result renderings.

#include <algorithm>
#include <array>
#include <unordered_map>

#include "internal.hpp"
#include "liplib/graph/analysis.hpp"
#include "liplib/support/check.hpp"
#include "liplib/xir/sliced.hpp"

namespace liplib::prove {

const char* method_name(Method m) {
  switch (m) {
    case Method::kAuto: return "auto";
    case Method::kReachability: return "reach";
    case Method::kBmc: return "bmc";
    case Method::kInduction: return "induction";
  }
  return "?";
}

bool parse_method(std::string_view name, Method* out) {
  for (Method m : {Method::kAuto, Method::kReachability, Method::kBmc,
                   Method::kInduction}) {
    if (name == method_name(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kProved: return "proved";
    case Verdict::kCounterexample: return "counterexample";
    case Verdict::kUnknown: return "unknown";
  }
  return "?";
}

namespace detail {
namespace {

constexpr std::size_t kLanes = xir::SlicedEngine::kLanes;

/// Parent link of a visited state in the sliced search.
struct Par {
  const std::string* parent;  ///< nullptr for the initial state
  std::uint32_t env_idx;      ///< environment choice taken from the parent
  std::uint32_t depth;        ///< BFS layer (transitions from init)
};

struct SearchStats {
  std::uint64_t states = 0;       ///< states expanded
  std::uint64_t transitions = 0;  ///< (state, env) pairs stepped
  std::uint64_t depth_reached = 0;
  bool drained = false;       ///< the queue emptied without a dead state
  bool budget = false;        ///< max_states hit before closure
  bool depth_cut = false;     ///< some successor fell beyond the bound
  const std::string* dead = nullptr;  ///< dead state (key in `visited`)
  std::uint32_t dead_depth = 0;
};

/// Layered BFS/BMC over the bit-sliced frontier.  Expands states of
/// depth <= `bound`; successors past the bound are recorded (so the
/// caller knows the space did not close) but not expanded.  Returns on
/// the first dead state (minimal depth: the queue is FIFO over layers).
SearchStats sliced_search(const xir::ProgramRef& prog, const EnvChoices& env,
                          bool worst_case, std::uint64_t max_states,
                          std::uint64_t bound,
                          std::unordered_map<std::string, Par>* visited) {
  const xir::Program& p = *prog;
  SearchStats stats;
  xir::SlicedEngine frontier(prog);
  const std::size_t env_count = env.masks.size();
  // Power-of-two choice counts (2^sinks, or the {greedy, all-stop}
  // pair) tile the 64 lanes exactly; one task spans several batches
  // when the choice set outgrows a word.
  const std::size_t tasks_per_batch = std::max<std::size_t>(
      1, env_count >= kLanes ? 1 : kLanes / env_count);
  const std::size_t envs_per_task =
      std::min<std::size_t>(env_count, kLanes);

  struct Task {
    const std::string* state;
    std::uint32_t depth;
  };
  std::vector<Task> queue;
  std::size_t head = 0;

  const std::string init = initial_key(prog, worst_case);
  const auto& slot = *visited->emplace(init, Par{nullptr, 0, 0}).first;
  queue.push_back(Task{&slot.first, 0});

  std::array<const std::string*, kLanes> keys;
  std::array<std::uint64_t, kLanes> masks;
  std::array<Task, kLanes> lane_task;
  std::array<std::uint32_t, kLanes> lane_env;
  std::vector<std::uint64_t> sink_stops(p.num_sinks());
  std::vector<std::string> succs;

  while (head < queue.size()) {
    // Snapshot the batch size before processing: successors inserted
    // below belong to later batches.
    const std::size_t batch_tasks =
        std::min(tasks_per_batch, queue.size() - head);
    // One environment chunk per task in this batch.
    for (std::size_t chunk = 0; chunk * envs_per_task < env_count; ++chunk) {
      const std::size_t env_base = chunk * envs_per_task;
      std::size_t lanes = 0;
      for (std::size_t t = 0; t < batch_tasks; ++t) {
        const Task task = queue[head + t];
        for (std::size_t j = 0; j < envs_per_task; ++j) {
          keys[lanes] = task.state;
          masks[lanes] = env.masks[env_base + j];
          lane_task[lanes] = task;
          lane_env[lanes] = static_cast<std::uint32_t>(env_base + j);
          ++lanes;
        }
      }
      const std::size_t live = lanes;
      for (; lanes < kLanes; ++lanes) {  // pad with a duplicate live lane
        keys[lanes] = keys[0];
        masks[lanes] = env.masks[0];
      }

      frontier.load_state_keys(keys);
      for (std::size_t s = 0; s < p.num_sinks(); ++s) {
        std::uint64_t w = 0;
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          if (xir::sink_stopped(masks[lane], s)) w |= 1ull << lane;
        }
        sink_stops[s] = w;
      }
      const auto step = frontier.step(sink_stops);
      frontier.state_keys(&succs);

      for (std::size_t l = 0; l < live; ++l) {
        ++stats.transitions;
        const Task task = lane_task[l];
        const std::string& succ = succs[l];
        if (lane_env[l] == 0 && !((step.fired >> l) & 1) &&
            ((step.pending >> l) & 1) && p.num_shells() > 0 &&
            succ == *task.state) {
          // Greedy fixed point with tokens pending: frozen forever.
          stats.dead = task.state;
          stats.dead_depth = task.depth;
          // Count the batch prefix up to and including the dead state as
          // expanded, matching the scalar reference's accounting (it
          // dequeues one state at a time and counts the violating one).
          for (std::size_t t = 0; t <= l / envs_per_task; ++t) {
            stats.depth_reached = std::max<std::uint64_t>(
                stats.depth_reached, queue[head + t].depth);
            ++stats.states;
          }
          return stats;
        }
        if (visited->contains(succ)) continue;
        if (visited->size() >= max_states) {
          stats.budget = true;
          continue;
        }
        const auto [it, inserted] = visited->emplace(
            succ, Par{task.state, lane_env[l], task.depth + 1});
        LIPLIB_ENSURE(inserted, "prove visited insert raced");
        if (task.depth + 1 <= bound) {
          queue.push_back(Task{&it->first, task.depth + 1});
        } else {
          stats.depth_cut = true;
        }
      }
    }
    // The whole env alphabet of these tasks is done; retire them.
    for (std::size_t t = 0; t < batch_tasks; ++t) {
      stats.depth_reached = std::max<std::uint64_t>(stats.depth_reached,
                                                    queue[head + t].depth);
      ++stats.states;
    }
    head += batch_tasks;
  }
  stats.drained = true;
  return stats;
}

std::string hex_encode(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    hex += digits[c >> 4];
    hex += digits[c & 15];
  }
  return hex;
}

std::vector<graph::NodeId> stopped_sink_nodes(const xir::Program& p,
                                              std::uint64_t mask) {
  std::vector<graph::NodeId> out;
  for (std::size_t s = 0; s < p.num_sinks(); ++s) {
    if (xir::sink_stopped(mask, s)) out.push_back(p.sink_node[s]);
  }
  return out;
}

/// Rebuilds the full counterexample record from the environment-mask
/// path: replays it scalar (verifying the recorded states), audits
/// per-cycle token conservation, blames the saturated certificate
/// cycle, and attaches the replayable greedy post-mortem bundle.
void finish_counterexample(const graph::Topology& topo,
                           const xir::ProgramRef& prog, const ChannelMap& cm,
                           const std::vector<std::uint64_t>& path_masks,
                           const ProveOptions& opts, ProveResult* r) {
  const xir::Program& p = *prog;
  Counterexample cex;
  cex.depth = path_masks.size();

  xir::ScalarEngine eng(prog);
  if (opts.worst_case_occupancy) eng.saturate_stations();
  const bool audit_tokens = !p.strict && p.pessimistic;
  std::vector<std::size_t> tokens0(r->certificates.size(), 0);
  for (std::size_t c = 0; c < r->certificates.size(); ++c) {
    tokens0[c] = cycle_tokens(eng, cm, r->certificates[c]);
  }
  for (std::size_t i = 0; i < path_masks.size(); ++i) {
    eng.step(path_masks[i]);
    CexStep step;
    step.cycle = i;
    step.stopped_sinks = stopped_sink_nodes(p, path_masks[i]);
    step.state = eng.state_key();
    cex.steps.push_back(std::move(step));
    if (audit_tokens) {
      for (std::size_t c = 0; c < r->certificates.size(); ++c) {
        if (cycle_tokens(eng, cm, r->certificates[c]) != tokens0[c]) {
          r->token_conservation_ok = false;  // a prover bug, not a design bug
        }
      }
    }
  }
  cex.dead_state = eng.state_key();

  // Blame: the first cycle that is stop-saturated in the dead state
  // under the most permissive environment — every hop channel's every
  // segment carries a back-pressured valid token.
  eng.step(0);
  for (const CycleCertificate& cert : r->certificates) {
    bool saturated = true;
    for (graph::ChannelId c : cert.channels) {
      const auto segs =
          static_cast<std::uint32_t>(topo.channel(c).num_stations()) + 1;
      for (std::uint32_t i = 0; i < segs && saturated; ++i) {
        const std::uint32_t seg = cm.seg_begin[c] + i;
        saturated = eng.valid_wire(seg) && eng.stop_wire(seg);
      }
      if (!saturated) break;
    }
    if (saturated) {
      cex.culprit_shells = cert.nodes;
      cex.culprit_channels = cert.channels;
      break;
    }
  }
  if (cex.culprit_shells.empty()) {
    for (const CycleCertificate& cert : r->certificates) {
      if (!cert.holds) {
        cex.culprit_shells = cert.nodes;
        cex.culprit_channels = cert.channels;
        break;
      }
    }
  }

  // Concrete reproduction: the greedy environment's screen of the same
  // design, and the watchdog's evidence when the whole design freezes.
  // Its bundle is what `lidtool replay` consumes.
  telemetry::WatchdogOptions wopts;
  wopts.worst_case_occupancy = opts.worst_case_occupancy;
  r->postmortem = telemetry::deadlock_evidence(
      prog, xir::screen_for_deadlock(prog, opts.worst_case_occupancy), wopts);
  cex.greedy_reproduces = r->postmortem.has_value();
  r->counterexample = std::move(cex);
  r->verdict = Verdict::kCounterexample;
}

/// Walks a sliced-search parent chain back to the initial state.
std::vector<std::uint64_t> path_from_parents(
    const std::unordered_map<std::string, Par>& visited,
    const EnvChoices& env, const std::string* dead) {
  std::vector<std::uint64_t> rev;
  for (const std::string* cur = dead; cur != nullptr;) {
    const Par& par = visited.find(*cur)->second;
    if (par.parent == nullptr) break;
    rev.push_back(env.masks[par.env_idx]);
    cur = par.parent;
  }
  return {rev.rbegin(), rev.rend()};
}

/// Parses the mask path out of a formal::check_safety counterexample
/// (choices carry the kChoicePrefix labels the SkeletonModel emits).
std::vector<std::uint64_t> path_from_trace(const formal::CheckResult& cr) {
  std::vector<std::uint64_t> masks;
  for (const formal::TraceStep& s : cr.steps) {
    if (s.choice.empty()) continue;  // the initial step
    masks.push_back(std::stoull(s.choice.substr(
        std::string_view(kChoicePrefix).size())));
  }
  // The violation fires on the greedy successor edge of the last state:
  // the last state itself is the dead one, so the path above is already
  // complete.
  return masks;
}

}  // namespace
}  // namespace detail

int ProveResult::exit_code() const {
  switch (verdict) {
    case Verdict::kProved: return 0;
    case Verdict::kCounterexample: return 1;
    case Verdict::kUnknown: return 2;
  }
  return 2;
}

Json ProveResult::to_json(const graph::Topology& topo) const {
  auto node_list = [&](const std::vector<graph::NodeId>& ids) {
    Json arr = Json::array();
    for (graph::NodeId n : ids) {
      Json j = Json::object();
      j.set("id", static_cast<std::uint64_t>(n));
      j.set("name", topo.node(n).name);
      arr.push(std::move(j));
    }
    return arr;
  };
  auto channel_list = [&](const std::vector<graph::ChannelId>& ids) {
    Json arr = Json::array();
    for (graph::ChannelId c : ids) {
      const auto& ch = topo.channel(c);
      Json j = Json::object();
      j.set("id", static_cast<std::uint64_t>(c));
      j.set("from", topo.node(ch.from.node).name);
      j.set("to", topo.node(ch.to.node).name);
      arr.push(std::move(j));
    }
    return arr;
  };

  Json doc = Json::object();
  doc.set("schema", "liplib.prove/1");
  doc.set("verdict", verdict_name(verdict));
  doc.set("exit_code", exit_code());
  doc.set("method", method_name(method));
  doc.set("method_used", method_name(method_used));
  doc.set("worst_case_occupancy", worst_case_occupancy);
  doc.set("closed", closed);
  doc.set("induction_closed", induction_closed);
  doc.set("env_exhaustive", env_exhaustive);
  doc.set("states_explored", states_explored);
  doc.set("transitions", transitions);
  doc.set("depth_reached", depth_reached);
  doc.set("depth_bound", depth_bound);
  doc.set("token_conservation_ok", token_conservation_ok);
  doc.set("cycle_bound", cycle_bound);
  if (!note.empty()) doc.set("note", note);

  Json certs = Json::array();
  for (const CycleCertificate& c : certificates) {
    Json j = Json::object();
    j.set("nodes", node_list(c.nodes));
    j.set("channels", channel_list(c.channels));
    j.set("shells", static_cast<std::uint64_t>(c.shells));
    j.set("half_stations", static_cast<std::uint64_t>(c.half_stations));
    j.set("full_stations", static_cast<std::uint64_t>(c.full_stations));
    j.set("tokens", static_cast<std::uint64_t>(c.tokens));
    j.set("dead_threshold", static_cast<std::uint64_t>(c.dead_threshold));
    j.set("holds", c.holds);
    certs.push(std::move(j));
  }
  doc.set("certificates", std::move(certs));

  if (counterexample) {
    const Counterexample& cex = *counterexample;
    Json j = Json::object();
    j.set("depth", cex.depth);
    j.set("dead_state", detail::hex_encode(cex.dead_state));
    j.set("greedy_reproduces", cex.greedy_reproduces);
    j.set("culprit_shells", node_list(cex.culprit_shells));
    j.set("culprit_channels", channel_list(cex.culprit_channels));
    Json steps = Json::array();
    for (const CexStep& s : cex.steps) {
      Json sj = Json::object();
      sj.set("cycle", s.cycle);
      sj.set("stopped_sinks", node_list(s.stopped_sinks));
      sj.set("state", detail::hex_encode(s.state));
      steps.push(std::move(sj));
    }
    j.set("steps", std::move(steps));
    doc.set("counterexample", std::move(j));
  }
  if (postmortem) doc.set("postmortem", postmortem->to_json());
  return doc;
}

std::string ProveResult::to_string(const graph::Topology& topo) const {
  std::string out = "prove: ";
  out += verdict_name(verdict);
  out += " (method ";
  out += method_name(method_used);
  out += worst_case_occupancy ? ", worst-case occupancy" : ", from reset";
  out += ")\n";
  out += "  states explored: " + std::to_string(states_explored) +
         ", transitions: " + std::to_string(transitions);
  if (depth_bound != 0) {
    out += ", depth " + std::to_string(depth_reached) + "/" +
           std::to_string(depth_bound);
  }
  out += "\n";
  std::size_t failing = 0;
  for (const CycleCertificate& c : certificates) {
    if (!c.holds) ++failing;
  }
  out += "  cycle certificates: " + std::to_string(certificates.size()) +
         " (" + std::to_string(failing) + " failing)\n";
  for (const CycleCertificate& c : certificates) {
    if (c.holds) continue;
    out += "    cycle";
    for (graph::NodeId n : c.nodes) out += " " + topo.node(n).name;
    out += ": " + std::to_string(c.tokens) + " tokens >= threshold " +
           std::to_string(c.dead_threshold) + "\n";
  }
  if (counterexample) {
    out += "  deadlock after " + std::to_string(counterexample->depth) +
           " cycle(s); culprit shells:";
    for (graph::NodeId n : counterexample->culprit_shells) {
      out += " " + topo.node(n).name;
    }
    out += "\n";
    out += counterexample->greedy_reproduces
               ? "  greedy replay reproduces the deadlock "
                 "(post-mortem bundle attached)\n"
               : "  deadlock requires sink stop choices "
                 "(no greedy post-mortem)\n";
  }
  if (!note.empty()) out += "  note: " + note + "\n";
  return out;
}

ProveResult prove(const graph::Topology& topo, ProveOptions opts) {
  using detail::Par;
  using detail::SearchStats;

  const xir::ProgramRef prog = xir::lower(topo, opts.skeleton);
  const detail::ChannelMap cm(*prog);
  const detail::EnvChoices env = detail::env_choices(*prog, opts.max_env_sinks);

  ProveResult r;
  r.method = opts.method;
  r.method_used = opts.method;
  r.worst_case_occupancy = opts.worst_case_occupancy;
  r.env_exhaustive = env.exhaustive;
  r.cycle_bound = graph::predict_throughput(topo).cycle_bound;
  r.depth_bound = opts.depth != 0 ? opts.depth
                                  : graph::transient_bound(topo) + 64;

  // The certificates are reported by every method (they double as the
  // lint LIP006 cross-check surface); the induction *proof* additionally
  // needs the variant protocol under pessimistic resolution, where a
  // cycle's resident token count is conserved.
  bool have_certs = true;
  try {
    r.certificates =
        detail::enumerate_certificates(topo, opts.worst_case_occupancy);
  } catch (const ApiError&) {
    have_certs = false;
  }
  const bool induction_sound = have_certs && !prog->strict && prog->pessimistic;
  bool certs_hold = have_certs;
  for (const CycleCertificate& c : r.certificates) certs_hold &= c.holds;

  auto append_note = [&](const std::string& n) {
    if (!r.note.empty()) r.note += "; ";
    r.note += n;
  };
  if (!have_certs) append_note("cycle enumeration budget exceeded");

  auto run_search = [&](std::uint64_t bound, Method used) {
    r.method_used = used;
    if (used == Method::kReachability && !opts.sliced_frontier) {
      // The scalar frontier: exhaustive BFS via formal::check_safety
      // over the Model adapter.
      const auto model = make_skeleton_model(topo, opts);
      const formal::CheckResult cr =
          formal::check_safety(*model, opts.max_states);
      r.states_explored = cr.states_explored;
      r.transitions = cr.transitions;
      r.depth_reached = cr.depth_reached;
      if (!cr.ok && !cr.exhausted_budget) {
        detail::finish_counterexample(topo, prog, cm,
                                      detail::path_from_trace(cr), opts, &r);
        return;
      }
      if (cr.ok) {
        r.closed = true;
        if (env.exhaustive) {
          r.verdict = Verdict::kProved;
        } else {
          append_note("environment not exhaustive (too many sinks)");
        }
      } else {
        append_note("state budget exhausted before closing the space");
      }
      return;
    }
    std::unordered_map<std::string, Par> visited;
    visited.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(opts.max_states, 1u << 16)));
    const SearchStats ss = detail::sliced_search(
        prog, env, opts.worst_case_occupancy, opts.max_states, bound,
        &visited);
    r.states_explored = ss.states;
    r.transitions = ss.transitions;
    r.depth_reached = std::max(r.depth_reached, ss.depth_reached);
    if (ss.dead != nullptr) {
      r.depth_reached = ss.dead_depth;
      detail::finish_counterexample(
          topo, prog, cm, detail::path_from_parents(visited, env, ss.dead),
          opts, &r);
      return;
    }
    if (ss.drained && !ss.budget && !ss.depth_cut) {
      r.closed = true;
      if (env.exhaustive) {
        r.verdict = Verdict::kProved;
      } else {
        append_note("environment not exhaustive (too many sinks)");
      }
      return;
    }
    if (ss.budget) append_note("state budget exhausted before closing the space");
    if (ss.depth_cut) {
      append_note("no counterexample within depth " + std::to_string(bound));
    }
  };

  auto run_induction = [&] {
    r.method_used = Method::kInduction;
    if (!induction_sound) {
      if (have_certs) {
        append_note(prog->strict
                        ? "induction needs the variant protocol "
                          "(token conservation fails under kCarloniStrict)"
                        : "induction needs pessimistic stop resolution");
      }
      return;
    }
    if (certs_hold) {
      // Every simple cycle stays strictly below its latch threshold and
      // the count is invariant under every transition and environment:
      // an unbounded proof, no search needed.
      r.induction_closed = true;
      r.verdict = Verdict::kProved;
      return;
    }
    // A certificate fails: hunt the concrete reachable latch with the
    // bounded base case.
    run_search(r.depth_bound, Method::kInduction);
    if (r.verdict != Verdict::kCounterexample && r.verdict != Verdict::kProved) {
      append_note("induction certificate fails at the initial token count");
    }
  };

  switch (opts.method) {
    case Method::kReachability:
      run_search(~0ull, Method::kReachability);
      break;
    case Method::kBmc:
      run_search(r.depth_bound, Method::kBmc);
      break;
    case Method::kInduction:
      run_induction();
      break;
    case Method::kAuto:
      // Exhaustive reachability first (it yields minimal counterexamples
      // and exact state counts); fall back to the certificates when the
      // space or the environment alphabet is out of reach.
      if (env.exhaustive) {
        run_search(~0ull, Method::kReachability);
        if (r.verdict != Verdict::kUnknown) {
          r.method_used = Method::kReachability;
          break;
        }
      }
      run_induction();
      break;
  }

  // Token-conservation spot check on proved runs (counterexample paths
  // are audited in full while finishing): replay the greedy environment
  // over the transient and require every certificate count to hold
  // still.
  if (r.verdict == Verdict::kProved && induction_sound) {
    xir::ScalarEngine eng(prog);
    if (opts.worst_case_occupancy) eng.saturate_stations();
    std::vector<std::size_t> tokens0(r.certificates.size());
    for (std::size_t c = 0; c < r.certificates.size(); ++c) {
      tokens0[c] = detail::cycle_tokens(eng, cm, r.certificates[c]);
    }
    const std::uint64_t probe_cycles = graph::transient_bound(topo);
    for (std::uint64_t i = 0; i < probe_cycles; ++i) {
      eng.step();
      for (std::size_t c = 0; c < r.certificates.size(); ++c) {
        if (detail::cycle_tokens(eng, cm, r.certificates[c]) != tokens0[c]) {
          r.token_conservation_ok = false;
        }
      }
    }
    if (!r.token_conservation_ok) {
      r.verdict = Verdict::kUnknown;  // a broken lemma voids the proof
      append_note("token conservation audit failed (prover bug)");
    }
  }
  return r;
}

}  // namespace liplib::prove
