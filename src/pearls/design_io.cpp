#include "liplib/pearls/design_io.hpp"

#include <sstream>

#include "liplib/pearls/pearls.hpp"
#include "liplib/pearls/video.hpp"
#include "liplib/support/check.hpp"

namespace liplib::pearls {

namespace {

/// "name(1,2,3)" -> {"name", {1,2,3}};  "name" -> {"name", {}}.
struct Spec {
  std::string name;
  std::vector<std::uint64_t> args;
};

Spec parse_spec(const std::string& text) {
  Spec spec;
  const auto open = text.find('(');
  if (open == std::string::npos) {
    spec.name = text;
    LIPLIB_EXPECT(!spec.name.empty(), "empty spec");
    return spec;
  }
  spec.name = text.substr(0, open);
  LIPLIB_EXPECT(!spec.name.empty(), "spec with empty name: " + text);
  LIPLIB_EXPECT(text.back() == ')', "spec missing ')': " + text);
  const std::string inner = text.substr(open + 1, text.size() - open - 2);
  std::uint64_t value = 0;
  bool in_number = false;
  for (char c : inner) {
    if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
      in_number = true;
    } else if (c == ',') {
      LIPLIB_EXPECT(in_number, "empty argument in spec: " + text);
      spec.args.push_back(value);
      value = 0;
      in_number = false;
    } else {
      throw ApiError("bad character '" + std::string(1, c) + "' in spec: " +
                     text);
    }
  }
  if (in_number) spec.args.push_back(value);
  LIPLIB_EXPECT(!(inner.size() && !in_number && spec.args.empty()),
                "malformed arguments in spec: " + text);
  return spec;
}

std::uint64_t arg_or(const Spec& s, std::size_t i, std::uint64_t dflt) {
  return i < s.args.size() ? s.args[i] : dflt;
}

void expect_args(const Spec& s, std::size_t lo, std::size_t hi) {
  LIPLIB_EXPECT(s.args.size() >= lo && s.args.size() <= hi,
                "spec " + s.name + " takes " + std::to_string(lo) + ".." +
                    std::to_string(hi) + " arguments, got " +
                    std::to_string(s.args.size()));
}

std::unique_ptr<lip::Pearl> default_pearl(std::size_t num_in,
                                          std::size_t num_out) {
  if (num_in == 1 && num_out == 1) return make_identity();
  if (num_in == 2 && num_out == 1) return make_adder();
  if (num_in == 1 && num_out == 2) return make_fork2();
  if (num_in == 2 && num_out == 2) return make_butterfly();
  if (num_in == 0 && num_out == 1) return make_generator(0, 1);
  throw ApiError("no default pearl for arity " + std::to_string(num_in) +
                 "->" + std::to_string(num_out) +
                 "; annotate the process with a pearl spec");
}

}  // namespace

std::unique_ptr<lip::Pearl> pearl_from_spec(const std::string& text,
                                            std::size_t num_inputs,
                                            std::size_t num_outputs) {
  if (text.empty()) return default_pearl(num_inputs, num_outputs);
  const Spec s = parse_spec(text);
  std::unique_ptr<lip::Pearl> pearl;
  if (s.name == "identity") {
    expect_args(s, 0, 1);
    pearl = make_identity(arg_or(s, 0, 0));
  } else if (s.name == "add_const") {
    expect_args(s, 1, 2);
    pearl = make_add_const(s.args[0], arg_or(s, 1, 0));
  } else if (s.name == "adder") {
    expect_args(s, 0, 1);
    pearl = make_adder(arg_or(s, 0, 0));
  } else if (s.name == "multiplier") {
    expect_args(s, 0, 1);
    pearl = make_multiplier(arg_or(s, 0, 0));
  } else if (s.name == "max") {
    expect_args(s, 0, 1);
    pearl = make_max(arg_or(s, 0, 0));
  } else if (s.name == "fork2") {
    expect_args(s, 0, 1);
    pearl = make_fork2(arg_or(s, 0, 0));
  } else if (s.name == "accumulator") {
    expect_args(s, 0, 1);
    pearl = make_accumulator(arg_or(s, 0, 0));
  } else if (s.name == "delay") {
    expect_args(s, 1, 2);
    pearl = make_delay(s.args[0], arg_or(s, 1, 0));
  } else if (s.name == "fir") {
    LIPLIB_EXPECT(!s.args.empty(), "fir needs taps");
    pearl = make_fir(s.args);
  } else if (s.name == "leaky") {
    expect_args(s, 2, 3);
    pearl = make_leaky_integrator(s.args[0], s.args[1], arg_or(s, 2, 0));
  } else if (s.name == "mixer") {
    expect_args(s, 0, 1);
    pearl = make_bit_mixer(arg_or(s, 0, 0));
  } else if (s.name == "saturate") {
    expect_args(s, 1, 2);
    pearl = make_saturate(s.args[0], arg_or(s, 1, 0));
  } else if (s.name == "tagger") {
    expect_args(s, 0, 1);
    pearl = make_sequence_tagger(arg_or(s, 0, 0));
  } else if (s.name == "generator") {
    expect_args(s, 2, 2);
    pearl = make_generator(s.args[0], s.args[1]);
  } else if (s.name == "butterfly") {
    expect_args(s, 0, 2);
    pearl = make_butterfly(arg_or(s, 0, 0), arg_or(s, 1, 0));
  } else if (s.name == "cordic") {
    expect_args(s, 1, 3);
    pearl = make_cordic_stage(static_cast<unsigned>(s.args[0]),
                              arg_or(s, 1, 0), arg_or(s, 2, 0));
  } else if (s.name == "mac") {
    expect_args(s, 0, 1);
    pearl = make_mac(arg_or(s, 0, 0));
  } else if (s.name == "blender") {
    expect_args(s, 1, 2);
    pearl = make_blender(s.args[0], arg_or(s, 1, 0));
  } else if (s.name == "transform8") {
    expect_args(s, 0, 1);
    pearl = make_block_transform8(arg_or(s, 0, 0));
  } else if (s.name == "quantizer") {
    expect_args(s, 1, 2);
    pearl = make_quantizer(s.args[0], arg_or(s, 1, 0));
  } else if (s.name == "rle") {
    expect_args(s, 0, 1);
    pearl = make_rle_marker(arg_or(s, 0, 0));
  } else {
    throw ApiError("unknown pearl spec '" + s.name + "'");
  }
  LIPLIB_EXPECT(pearl->num_inputs() == num_inputs &&
                    pearl->num_outputs() == num_outputs,
                "pearl spec '" + text + "' has arity " +
                    std::to_string(pearl->num_inputs()) + "->" +
                    std::to_string(pearl->num_outputs()) +
                    " but the node needs " + std::to_string(num_inputs) +
                    "->" + std::to_string(num_outputs));
  return pearl;
}

lip::SourceBehavior source_from_spec(const std::string& text) {
  if (text.empty()) return lip::SourceBehavior::counter();
  const Spec s = parse_spec(text);
  if (s.name == "counter") {
    expect_args(s, 0, 0);
    return lip::SourceBehavior::counter();
  }
  if (s.name == "cyclic") {
    LIPLIB_EXPECT(!s.args.empty(), "cyclic needs values");
    return lip::SourceBehavior::cyclic(s.args);
  }
  if (s.name == "sparse") {
    expect_args(s, 3, 3);
    LIPLIB_EXPECT(s.args[2] > 0, "sparse denominator must be > 0");
    return lip::SourceBehavior::sparse_counter(s.args[0], s.args[1],
                                               s.args[2]);
  }
  throw ApiError("unknown source spec '" + s.name + "'");
}

lip::SinkBehavior sink_from_spec(const std::string& text) {
  if (text.empty()) return lip::SinkBehavior::greedy();
  const Spec s = parse_spec(text);
  if (s.name == "greedy") {
    expect_args(s, 0, 0);
    return lip::SinkBehavior::greedy();
  }
  if (s.name == "periodic") {
    expect_args(s, 1, 2);
    LIPLIB_EXPECT(s.args[0] > 0, "periodic needs period > 0");
    return lip::SinkBehavior::periodic(s.args[0], arg_or(s, 1, 0));
  }
  if (s.name == "random") {
    expect_args(s, 3, 3);
    LIPLIB_EXPECT(s.args[2] > 0, "random denominator must be > 0");
    return lip::SinkBehavior::random_stop(s.args[0], s.args[1], s.args[2]);
  }
  if (s.name == "script") {
    LIPLIB_EXPECT(!s.args.empty(), "script needs bits");
    std::vector<bool> bits;
    for (auto v : s.args) bits.push_back(v != 0);
    return lip::SinkBehavior::script(std::move(bits));
  }
  throw ApiError("unknown sink spec '" + s.name + "'");
}

lip::Design build_design(graph::AnnotatedNetlist net) {
  lip::Design design(std::move(net.topo));
  const auto& topo = design.topology();
  for (graph::NodeId v = 0; v < topo.nodes().size(); ++v) {
    const auto& node = topo.node(v);
    const std::string& ann = net.node_annotation[v];
    try {
      switch (node.kind) {
        case graph::NodeKind::kProcess:
          design.set_pearl(
              v, pearl_from_spec(ann, node.num_inputs, node.num_outputs));
          break;
        case graph::NodeKind::kSource:
          design.set_source(v, source_from_spec(ann));
          break;
        case graph::NodeKind::kSink:
          design.set_sink(v, sink_from_spec(ann));
          break;
      }
    } catch (const ApiError& e) {
      throw ApiError("node '" + node.name + "': " + e.what());
    }
  }
  return design;
}

lip::Design parse_design(std::istream& in) {
  return build_design(graph::parse_netlist_annotated(in));
}

lip::Design parse_design_string(const std::string& text) {
  std::istringstream in(text);
  return parse_design(in);
}

}  // namespace liplib::pearls
