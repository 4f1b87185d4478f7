// The scalar half of liplib::prove: the formal::Model adapter over
// xir::ScalarEngine (each successor is one engine step under an explicit
// sink-stop mask), state rendering from plane keys, and the channel-cycle
// token certificates and their token counts.

#include <memory>

#include "internal.hpp"
#include "liplib/graph/analysis.hpp"
#include "liplib/support/check.hpp"

namespace liplib::prove::detail {

std::string initial_key(const xir::ProgramRef& prog, bool worst_case) {
  xir::ScalarEngine eng(prog);
  if (worst_case) eng.saturate_stations();
  return eng.state_key();
}

std::string describe_state(const xir::Program& p, const std::string& key) {
  const xir::KeyLayout L(p);
  auto bit = [&key](std::size_t plane) {
    return xir::KeyLayout::bit(key, plane);
  };
  std::string out = "pend:";
  for (std::size_t b = 0; b < L.n_pend; ++b) {
    out += bit(L.pend_plane(b)) ? '1' : '0';
  }
  out += " src:";
  for (std::size_t b = 0; b < L.n_src; ++b) {
    out += bit(L.src_plane(b)) ? '1' : '0';
  }
  out += " st:[";
  for (std::size_t s = 0; s < L.n_st; ++s) {
    if (s > 0) out += ',';
    if (!bit(L.occ1_plane(s))) {
      out += '-';
      continue;
    }
    out += bit(L.occ2_plane(s)) ? '2' : '1';
    if (bit(L.v0_plane(s))) out += 'v';
    if (bit(L.v1_plane(s))) out += 'v';
    if (bit(L.sreg_plane(s))) out += '!';
  }
  out += ']';
  return out;
}

EnvChoices env_choices(const xir::Program& p, std::size_t max_env_sinks) {
  EnvChoices env;
  const std::size_t n = p.num_sinks();
  if (n <= max_env_sinks && n < 64) {
    const std::uint64_t count = 1ull << n;
    env.masks.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t m = 0; m < count; ++m) env.masks.push_back(m);
    env.exhaustive = true;
  } else {
    env.masks = {0, ~0ull};  // the two extreme environments only
    env.exhaustive = false;
  }
  return env;
}

ChannelMap::ChannelMap(const xir::Program& p) {
  const auto& channels = p.topo.channels();
  seg_begin.resize(channels.size());
  st_begin.resize(channels.size());
  branch_of_channel.assign(channels.size(), npos32);
  std::uint32_t seg = 0;
  std::uint32_t st = 0;
  std::vector<std::uint32_t> seg_to_channel(p.num_segments, npos32);
  for (std::size_t c = 0; c < channels.size(); ++c) {
    seg_begin[c] = seg;
    st_begin[c] = st;
    const auto n = static_cast<std::uint32_t>(channels[c].num_stations());
    for (std::uint32_t i = 0; i <= n; ++i) seg_to_channel[seg + i] = static_cast<std::uint32_t>(c);
    seg += n + 1;
    st += n;
  }
  LIPLIB_ENSURE(seg == p.num_segments && st == p.num_stations(),
                "prove channel map does not cover the program");
  for (std::size_t k = 0; k < p.num_shells(); ++k) {
    for (std::uint32_t b = p.shell_br_begin[k]; b < p.shell_br_begin[k + 1];
         ++b) {
      branch_of_channel[seg_to_channel[p.shell_br_seg[b]]] = b;
    }
  }
}

std::vector<CycleCertificate> enumerate_certificates(
    const graph::Topology& topo, bool worst_case, std::size_t max_cycles) {
  std::vector<CycleCertificate> certs;
  for (graph::CycleInfo& cycle : graph::enumerate_cycles(topo, max_cycles)) {
    CycleCertificate cert;
    cert.nodes = std::move(cycle.nodes);
    cert.channels = std::move(cycle.channels);
    cert.shells = cert.nodes.size();
    for (graph::ChannelId c : cert.channels) {
      cert.half_stations += topo.channel(c).num_half();
      cert.full_stations += topo.channel(c).num_full();
    }
    cert.dead_threshold =
        cert.shells + cert.half_stations + 2 * cert.full_stations;
    cert.tokens = cert.shells +
                  (worst_case ? cert.half_stations + cert.full_stations : 0);
    cert.holds = cert.tokens < cert.dead_threshold;
    certs.push_back(std::move(cert));
  }
  return certs;
}

std::size_t cycle_tokens(const xir::ScalarEngine& eng, const ChannelMap& cm,
                         const CycleCertificate& cert) {
  const graph::Topology& topo = eng.program().topo;
  std::size_t tokens = 0;
  for (graph::ChannelId c : cert.channels) {
    const std::uint32_t b = cm.branch_of_channel[c];
    LIPLIB_ENSURE(b != ChannelMap::npos32,
                  "prove cycle channel has no shell branch");
    tokens += eng.branch_tokens(b);
    const auto n = static_cast<std::uint32_t>(topo.channel(c).num_stations());
    for (std::uint32_t i = 0; i < n; ++i) {
      tokens += eng.station_tokens(cm.st_begin[c] + i);
    }
  }
  return tokens;
}

namespace {

/// The whole-skeleton transition system as a formal::Model — the scalar
/// frontier of the prover, and the oracle the bit-sliced frontier is
/// differentially tested against.
class SkeletonModelImpl final : public SkeletonModel {
 public:
  SkeletonModelImpl(const xir::ProgramRef& prog, const ProveOptions& opts)
      : engine_(prog),
        env_(env_choices(*prog, opts.max_env_sinks)),
        initial_(initial_key(prog, opts.worst_case_occupancy)) {}

  std::string initial() const override { return initial_; }

  std::vector<formal::Succ> successors(const std::string& state) const override {
    std::vector<formal::Succ> out;
    out.reserve(env_.masks.size());
    for (const std::uint64_t mask : env_.masks) {
      engine_.load_state_key(state);
      const auto step = engine_.step(mask);
      formal::Succ succ;
      succ.state = engine_.state_key();
      succ.choice = kChoicePrefix + std::to_string(mask);
      // Dead-state monitor on the greedy choice: a state that maps to
      // itself with no sink stopping, no shell firing and valid tokens
      // pending is frozen forever (stops only restrict motion).
      if (mask == 0 && !step.fired && step.pending &&
          engine_.program().num_shells() > 0 && succ.state == state) {
        succ.violation = kDeadlockViolation;
      }
      out.push_back(std::move(succ));
    }
    return out;
  }

  std::string describe(const std::string& state) const override {
    return describe_state(engine_.program(), state);
  }

  std::uint64_t num_env_choices() const override { return env_.masks.size(); }
  bool env_exhaustive() const override { return env_.exhaustive; }

 private:
  mutable xir::ScalarEngine engine_;
  EnvChoices env_;
  std::string initial_;
};

}  // namespace

}  // namespace liplib::prove::detail

namespace liplib::prove {

std::unique_ptr<SkeletonModel> make_skeleton_model(const graph::Topology& topo,
                                                   const ProveOptions& opts) {
  return std::make_unique<detail::SkeletonModelImpl>(
      xir::lower(topo, opts.skeleton), opts);
}

std::vector<CycleCertificate> cycle_certificates(const graph::Topology& topo,
                                                 const ProveOptions& opts) {
  return detail::enumerate_certificates(topo, opts.worst_case_occupancy,
                                        opts.max_cycles);
}

}  // namespace liplib::prove
