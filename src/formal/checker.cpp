#include "liplib/formal/checker.hpp"

#include <algorithm>
#include <unordered_map>

namespace liplib::formal {

namespace {

// Per-record bookkeeping overhead charged to peak_tracked_bytes: the
// hash-map node (key string header + Parent + bucket link) and the
// frontier slot.  An estimate, not an exact allocator audit — what the
// accounting must capture is the asymptotic per-state cost, which the
// formal_test memory bound locks at ~one state copy per state (the
// previous implementation kept three: map key, parent copy, frontier
// copy).
constexpr std::uint64_t kRecordOverhead =
    2 * sizeof(std::string) + 4 * sizeof(void*);

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

}  // namespace

Json CheckResult::to_json() const {
  Json j = Json::object();
  j.set("schema", "liplib.check/1");
  j.set("ok", ok);
  j.set("exhausted_budget", exhausted_budget);
  j.set("states_explored", states_explored);
  j.set("transitions", transitions);
  j.set("peak_tracked_bytes", peak_tracked_bytes);
  j.set("violation", violation);
  j.set("violation_choice", violation_choice);
  Json tr = Json::array();
  for (const TraceStep& s : steps) {
    Json step = Json::object();
    step.set("choice", s.choice);
    step.set("state", hex_encode(s.state));
    step.set("described", s.described);
    tr.push(std::move(step));
  }
  j.set("trace", std::move(tr));
  return j;
}

CheckResult check_safety(const Model& model, std::uint64_t max_states) {
  CheckResult result;

  struct Parent {
    const std::string* state;  // predecessor key (nullptr for the initial
                               // state); points into `visited` — node-based
                               // unordered_map keys are stable under rehash
    std::string choice;        // environment choice taken from there
  };
  std::unordered_map<std::string, Parent> visited;
  // The frontier holds pointers into the visited set instead of copies of
  // the encoded states: one state copy per explored state total.
  std::vector<const std::string*> frontier;
  const std::size_t reserve =
      static_cast<std::size_t>(std::min<std::uint64_t>(max_states, 1u << 16));
  visited.reserve(reserve);
  frontier.reserve(reserve);

  std::uint64_t tracked_bytes = 0;
  auto track = [&](const std::string& key, const std::string& choice) {
    tracked_bytes += key.size() + choice.size() + kRecordOverhead +
                     sizeof(const std::string*);
    result.peak_tracked_bytes =
        std::max(result.peak_tracked_bytes, tracked_bytes);
  };

  const std::string init = model.initial();
  const auto& init_slot = *visited.emplace(init, Parent{nullptr, ""}).first;
  frontier.push_back(&init_slot.first);
  track(init, "");

  auto build_trace = [&](const std::string* last, const std::string& choice,
                         const std::string& violation) {
    result.ok = false;
    result.violation = violation;
    result.violation_choice = choice;
    // Walk parents back to the initial state.
    std::vector<TraceStep> rev;
    for (const std::string* cur = last; cur != nullptr;) {
      const Parent& par = visited.find(*cur)->second;
      rev.push_back(TraceStep{par.choice, *cur, model.describe(*cur)});
      cur = par.state;
    }
    result.steps.assign(rev.rbegin(), rev.rend());
    for (const TraceStep& s : result.steps) {
      if (!s.choice.empty()) result.trace.push_back("  choice [" + s.choice + "]");
      result.trace.push_back(s.described);
    }
    result.trace.push_back("VIOLATION after choice [" + choice +
                           "]: " + violation);
  };

  std::size_t head = 0;
  std::size_t layer_end = frontier.size();  // one past the current layer
  while (head < frontier.size()) {
    if (head == layer_end) {  // the BFS queue holds layers back to back
      ++result.depth_reached;
      layer_end = frontier.size();
    }
    const std::string* state = frontier[head++];
    ++result.states_explored;

    for (const Succ& succ : model.successors(*state)) {
      ++result.transitions;
      if (succ.violation) {
        build_trace(state, succ.choice, *succ.violation);
        return result;
      }
      if (visited.size() >= max_states) {
        // Keep exploring already-found states but stop adding new ones;
        // if the frontier drains we did not close the state space.
        if (!visited.contains(succ.state)) result.exhausted_budget = true;
        continue;
      }
      auto [it, inserted] =
          visited.emplace(succ.state, Parent{state, succ.choice});
      if (inserted) {
        frontier.push_back(&it->first);
        track(it->first, succ.choice);
      }
    }
  }

  result.ok = !result.exhausted_budget;
  if (result.exhausted_budget) {
    result.violation = "state budget exhausted before closing the space";
  }
  return result;
}

}  // namespace liplib::formal
