// liplib/pearls/design_io.hpp
//
// Behavioural netlists: interprets the annotations of an annotated .lid
// file (liplib/graph/netlist_io.hpp) as pearl and environment specs and
// produces a ready-to-run lip::Design.  This is what lets lidtool run a
// full-data simulation straight from a file:
//
//   source  cam      sparse(7,1,3)      # counter stream, ready 1/3
//   process fir0 1 1 fir(1,2,1)
//   process acc  1 1 accumulator
//   sink    out      periodic(2)        # consume every 2nd cycle
//   channel cam.0 -> fir0.0
//   channel fir0.0 -> acc.0 : F H
//   channel acc.0 -> out.0
//
// Spec grammar: name or name(arg,...) with unsigned integer arguments
// and no spaces.  Unannotated processes default per arity (identity,
// adder, fork2, butterfly, generator); unannotated sources are counters,
// unannotated sinks greedy.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "liplib/graph/netlist_io.hpp"
#include "liplib/lip/design.hpp"
#include "liplib/lip/environment.hpp"
#include "liplib/lip/pearl.hpp"

namespace liplib::pearls {

/// Builds a pearl from a spec string.  `num_inputs`/`num_outputs` is the
/// arity the node demands; specs with mismatched arity throw ApiError.
/// Known specs: identity[(init)], add_const(k[,init]), adder, multiplier,
/// max, fork2[(init)], accumulator[(init)], delay(d), fir(t1,...),
/// leaky(num,den), mixer, saturate(cap), tagger, generator(seed,stride),
/// butterfly[(i0,i1)], cordic(k), mac, blender(w), transform8,
/// quantizer(q), rle.
std::unique_ptr<lip::Pearl> pearl_from_spec(const std::string& spec,
                                            std::size_t num_inputs,
                                            std::size_t num_outputs);

/// Builds a source behaviour from a spec: counter, cyclic(v1,...),
/// sparse(seed,num,den).
lip::SourceBehavior source_from_spec(const std::string& spec);

/// Builds a sink behaviour from a spec: greedy, periodic(p[,phase]),
/// random(seed,num,den), script(b1,b2,...) with bits.
lip::SinkBehavior sink_from_spec(const std::string& spec);

/// Builds a ready-to-run Design from an already parsed annotated
/// netlist: each node's annotation becomes its pearl or environment.
lip::Design build_design(graph::AnnotatedNetlist net);

/// Parses an annotated netlist into a ready-to-run Design.
lip::Design parse_design(std::istream& in);
lip::Design parse_design_string(const std::string& text);

}  // namespace liplib::pearls
