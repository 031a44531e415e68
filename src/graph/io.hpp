// Graph serialization: a plain edge-list format and DIMACS. Lets the
// examples and the CLI operate on external graphs and makes experiment
// inputs exchangeable.
//
// Edge-list format (0-based):
//   n m
//   u v
//   ...
//
// DIMACS format (1-based, 'c' comment lines allowed):
//   p edge n m
//   e u v
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace csd::io {

/// Write/read the plain edge-list format. Readers throw CheckFailure with a
/// line-numbered message on malformed input.
void write_edge_list(std::ostream& os, const Graph& g);
Graph read_edge_list(std::istream& is);

/// Write/read DIMACS "p edge". The reader holds the same rules as
/// read_edge_list: exactly m edge lines, no trailing tokens on any line.
void write_dimacs(std::ostream& os, const Graph& g);
Graph read_dimacs(std::istream& is);

/// Detect the format from the first non-comment token ("p" -> DIMACS,
/// a number -> edge list) and read accordingly.
Graph read_any(std::istream& is);

/// File helpers (throw CheckFailure if the file cannot be opened).
void save(const std::string& path, const Graph& g, bool dimacs = false);
Graph load(const std::string& path);

}  // namespace csd::io
