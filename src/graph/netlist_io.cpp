#include "liplib/graph/netlist_io.hpp"

#include <istream>
#include <map>
#include <optional>
#include <sstream>

#include "liplib/support/flags.hpp"

namespace liplib::graph {

namespace {

/// The line being parsed: its number plus the text as read, so parse
/// errors can show the offending line with a caret under the bad token.
struct LineRef {
  std::size_t number = 0;
  const std::string* text = nullptr;
};

[[noreturn]] void fail(const LineRef& line, const std::string& msg,
                       const std::string& token = {}) {
  std::string out = "netlist line " + std::to_string(line.number) + ": " + msg;
  if (line.text != nullptr && !line.text->empty()) {
    out += "\n  " + *line.text;
    std::size_t col =
        token.empty() ? std::string::npos : line.text->find(token);
    if (col == std::string::npos) col = line.text->find_first_not_of(" \t");
    if (col != std::string::npos) {
      // Pad with the line's own tabs so the caret lines up in terminals.
      std::string pad;
      for (std::size_t i = 0; i < col; ++i) {
        pad += (*line.text)[i] == '\t' ? '\t' : ' ';
      }
      const std::size_t width = token.empty() ? 1 : token.size();
      out += "\n  " + pad + "^" + std::string(width - 1, '~');
    }
  }
  throw ApiError(out);
}

/// A count or port number: plain decimal digits no greater than
/// kMaxProcessPorts, or nullopt.  parse_digits rejects overflow, so no
/// number can wrap around to a small one.
std::optional<std::size_t> parse_decimal(const std::string& digits) {
  std::uint64_t v = 0;
  if (!parse_digits(digits, &v) || v > kMaxProcessPorts) return std::nullopt;
  return static_cast<std::size_t>(v);
}

/// Splits "name.port" into its parts.
std::pair<std::string, std::size_t> parse_port_ref(const LineRef& line,
                                                   const std::string& tok) {
  const auto dot = tok.rfind('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == tok.size()) {
    fail(line, "expected <name>.<port>, got '" + tok + "'", tok);
  }
  // A port number past the bound fails here; one past the node's own
  // arity fails in Topology::connect.
  const auto port = parse_decimal(tok.substr(dot + 1));
  if (!port) fail(line, "bad port number in '" + tok + "'", tok);
  return {tok.substr(0, dot), *port};
}

std::size_t parse_count(const LineRef& line, const std::string& tok,
                        const char* what) {
  const auto v = parse_decimal(tok);
  if (!v) {
    fail(line,
         std::string("bad ") + what + " '" + tok + "' (expected 0 to " +
             std::to_string(kMaxProcessPorts) + ")",
         tok);
  }
  return *v;
}

RsKind parse_station(const LineRef& line, const std::string& tok) {
  if (tok == "F" || tok == "f" || tok == "full") return RsKind::kFull;
  if (tok == "H" || tok == "h" || tok == "half") return RsKind::kHalf;
  fail(line, "unknown relay station kind '" + tok + "' (use F or H)", tok);
}

}  // namespace

namespace {

AnnotatedNetlist parse_impl(std::istream& in, bool allow_annotations) {
  AnnotatedNetlist result;
  Topology& topo = result.topo;
  std::map<std::string, NodeId> by_name;
  std::string raw;
  std::string original;  // the line as read, for diagnostics
  std::size_t line_no = 0;

  auto declare = [&](const LineRef& line, const std::string& name,
                     NodeId id) {
    if (!by_name.emplace(name, id).second) {
      fail(line, "duplicate node name '" + name + "'", name);
    }
  };
  auto lookup = [&](const LineRef& line, const std::string& name) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) fail(line, "unknown node '" + name + "'", name);
    return it->second;
  };

  while (std::getline(in, raw)) {
    ++line_no;
    original = raw;
    const LineRef line{line_no, &original};
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream ls(raw);
    std::string kw;
    if (!(ls >> kw)) continue;  // blank or comment-only line

    auto take_annotation = [&](NodeId id) {
      std::string extra;
      if (ls >> extra) {
        if (!allow_annotations) {
          fail(line, "unexpected token '" + extra + "'", extra);
        }
        result.node_annotation.resize(topo.nodes().size());
        result.node_annotation[id] = extra;
        std::string more;
        if (ls >> more) fail(line, "unexpected token '" + more + "'", more);
      }
    };
    if (kw == "source" || kw == "sink") {
      std::string name;
      if (!(ls >> name)) fail(line, kw + " needs a name", kw);
      const NodeId id =
          kw == "source" ? topo.add_source(name) : topo.add_sink(name);
      declare(line, name, id);
      take_annotation(id);
    } else if (kw == "process") {
      std::string name, ins, outs;
      if (!(ls >> name >> ins >> outs)) {
        fail(line, "process needs <name> <num_inputs> <num_outputs>", kw);
      }
      const auto ni = parse_count(line, ins, "input count");
      const auto no = parse_count(line, outs, "output count");
      if (ni + no == 0) fail(line, "process with no ports", name);
      const NodeId id = topo.add_process(name, ni, no);
      declare(line, name, id);
      take_annotation(id);
    } else if (kw == "channel") {
      std::string from_tok, arrow, to_tok;
      if (!(ls >> from_tok >> arrow >> to_tok) || arrow != "->") {
        fail(line, "channel needs <name>.<port> -> <name>.<port>",
             arrow.empty() ? kw : arrow);
      }
      const auto [from_name, from_port] = parse_port_ref(line, from_tok);
      const auto [to_name, to_port] = parse_port_ref(line, to_tok);
      std::vector<RsKind> stations;
      std::string tok;
      if (ls >> tok) {
        if (tok != ":") fail(line, "expected ':' before stations", tok);
        while (ls >> tok) stations.push_back(parse_station(line, tok));
      }
      const NodeId from = lookup(line, from_name);
      const NodeId to = lookup(line, to_name);
      try {
        topo.connect({from, from_port}, {to, to_port}, std::move(stations));
      } catch (const ApiError& e) {
        fail(line, e.what(), kw);
      }
    } else {
      fail(line, "unknown keyword '" + kw + "'", kw);
    }
  }
  result.node_annotation.resize(topo.nodes().size());
  return result;
}

}  // namespace

Topology parse_netlist(std::istream& in) {
  return parse_impl(in, /*allow_annotations=*/false).topo;
}

Topology parse_netlist_string(const std::string& text) {
  std::istringstream in(text);
  return parse_netlist(in);
}

AnnotatedNetlist parse_netlist_annotated(std::istream& in) {
  return parse_impl(in, /*allow_annotations=*/true);
}

AnnotatedNetlist parse_netlist_annotated_string(const std::string& text) {
  std::istringstream in(text);
  return parse_netlist_annotated(in);
}

std::string write_netlist(const Topology& topo) {
  std::ostringstream os;
  for (const auto& node : topo.nodes()) {
    switch (node.kind) {
      case NodeKind::kSource:
        os << "source " << node.name << "\n";
        break;
      case NodeKind::kSink:
        os << "sink " << node.name << "\n";
        break;
      case NodeKind::kProcess:
        os << "process " << node.name << ' ' << node.num_inputs << ' '
           << node.num_outputs << "\n";
        break;
    }
  }
  for (const auto& ch : topo.channels()) {
    os << "channel " << topo.node(ch.from.node).name << '.' << ch.from.port
       << " -> " << topo.node(ch.to.node).name << '.' << ch.to.port;
    if (!ch.stations.empty()) {
      os << " :";
      for (RsKind k : ch.stations) {
        os << ' ' << (k == RsKind::kFull ? 'F' : 'H');
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace liplib::graph
