// liplib/graph/netlist_io.hpp
//
// A small human-writable netlist format for latency-insensitive designs,
// so topologies can live in files, be diffed, and drive the lidtool CLI.
//
// Grammar (one statement per line, '#' starts a comment):
//
//   source  <name>
//   sink    <name>
//   process <name> <num_inputs> <num_outputs>
//   channel <name>.<port> -> <name>.<port> [ : <stations> ]
//
// where <stations> is a whitespace-separated list of station kinds,
// each `F`/`full` or `H`/`half`, ordered from producer to consumer.
// Example:
//
//   # the paper's Fig. 1
//   source src
//   process A 1 2
//   process B 1 1
//   process C 2 1
//   sink out
//   channel src.0 -> A.0
//   channel A.0 -> B.0 : F
//   channel B.0 -> C.0 : F
//   channel A.1 -> C.1 : F
//   channel C.0 -> out.0

#pragma once

#include <iosfwd>
#include <string>

#include "liplib/graph/topology.hpp"

namespace liplib::graph {

/// The most input or output ports a netlist process may declare.  Counts
/// and port numbers are text any daemon tenant can send; the bound keeps
/// `process A 4000000000 1` from allocating four billion ports.
inline constexpr std::size_t kMaxProcessPorts = std::size_t{1} << 16;

/// Parses the netlist format.  Throws ApiError with a line number on any
/// syntax or semantic problem (unknown node, bad port, duplicate name, a
/// count or port number beyond kMaxProcessPorts).
Topology parse_netlist(std::istream& in);

/// A topology plus the optional per-node annotation token (empty when
/// absent).  Node statements may carry one trailing annotation:
///
///   process fir0 1 1  fir(1,2,1)
///   source  cam       sparse(7,1,3)
///   sink    out       periodic(2)
///
/// The structural layer stores annotations verbatim; the behavioural
/// layer (liplib/pearls/design_io.hpp) interprets them as pearl and
/// environment specs.
struct AnnotatedNetlist {
  Topology topo;
  std::vector<std::string> node_annotation;  // indexed by NodeId
};

/// Like parse_netlist but keeps annotations (plain parse_netlist rejects
/// them, keeping the structural format strict).
AnnotatedNetlist parse_netlist_annotated(std::istream& in);
AnnotatedNetlist parse_netlist_annotated_string(const std::string& text);

/// Convenience overload on a string.
Topology parse_netlist_string(const std::string& text);

/// Renders a topology in the netlist format.  parse(write(t))
/// reconstructs an identical topology (same node order, channel order and
/// station chains).
std::string write_netlist(const Topology& topo);

}  // namespace liplib::graph
