#include "graph/io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "support/check.hpp"

namespace csd::io {

namespace {

/// Line-based reader that skips blank and comment lines and reports
/// positions in errors.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next meaningful line, or false at EOF. 'c'- and '#'-prefixed lines are
  /// comments.
  bool next(std::string& line) {
    while (std::getline(is_, line)) {
      ++line_number_;
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos) continue;
      if (line[first] == '#' || (line[first] == 'c' &&
                                 (first + 1 == line.size() ||
                                  line[first + 1] == ' '))) {
        continue;
      }
      return true;
    }
    return false;
  }

  std::size_t line_number() const { return line_number_; }

 private:
  std::istream& is_;
  std::size_t line_number_ = 0;
};

/// Reject tokens left on `line` after its fields were read from `ss`.
void expect_line_end(std::istringstream& ss, const std::string& line,
                     std::size_t line_number) {
  std::string rest;
  ss >> rest;
  CSD_CHECK_MSG(rest.empty(),
                "line " << line_number << ": trailing tokens in '" << line
                        << "'");
}

/// Reject meaningful lines after the `m` edges a header declared: a header
/// that understates m must not silently drop edges.
void expect_input_end(LineReader& reader, std::uint64_t m) {
  std::string line;
  CSD_CHECK_MSG(!reader.next(line),
                "line " << reader.line_number()
                        << ": trailing content after the " << m
                        << " edges the header declares");
}

std::pair<std::uint64_t, std::uint64_t> parse_two(const std::string& line,
                                                  std::size_t line_number,
                                                  const char* what) {
  std::istringstream ss(line);
  std::uint64_t a = 0, b = 0;
  ss >> a >> b;
  CSD_CHECK_MSG(!ss.fail(), "line " << line_number << ": expected two "
                                    << what << " values in '" << line << "'");
  expect_line_end(ss, line, line_number);
  return {a, b};
}

}  // namespace

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edges()) os << u << ' ' << v << '\n';
}

Graph read_edge_list(std::istream& is) {
  LineReader reader(is);
  std::string line;
  CSD_CHECK_MSG(reader.next(line), "empty graph input");
  const auto [n, m] = parse_two(line, reader.line_number(), "header");
  CSD_CHECK_MSG(n <= kNoVertex, "vertex count too large");
  Graph g(static_cast<Vertex>(n));
  for (std::uint64_t i = 0; i < m; ++i) {
    CSD_CHECK_MSG(reader.next(line),
                  "expected " << m << " edges, got " << i);
    const auto [u, v] = parse_two(line, reader.line_number(), "endpoint");
    CSD_CHECK_MSG(u < n && v < n, "line " << reader.line_number()
                                          << ": endpoint out of range");
    g.add_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }
  expect_input_end(reader, m);
  return g;
}

void write_dimacs(std::ostream& os, const Graph& g) {
  os << "c written by congest-subgraph-detection\n";
  os << "p edge " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edges())
    os << "e " << (u + 1) << ' ' << (v + 1) << '\n';
}

Graph read_dimacs(std::istream& is) {
  LineReader reader(is);
  std::string line;
  CSD_CHECK_MSG(reader.next(line), "empty DIMACS input");
  std::istringstream header(line);
  std::string p, kind;
  std::uint64_t n = 0, m = 0;
  header >> p >> kind >> n >> m;
  CSD_CHECK_MSG(p == "p" && !header.fail(),
                "line " << reader.line_number() << ": expected 'p edge n m'");
  CSD_CHECK_MSG(kind == "edge", "line " << reader.line_number()
                                        << ": problem kind '" << kind
                                        << "' is not 'edge'");
  expect_line_end(header, line, reader.line_number());
  CSD_CHECK_MSG(n <= kNoVertex, "vertex count too large");
  Graph g(static_cast<Vertex>(n));
  for (std::uint64_t i = 0; i < m; ++i) {
    CSD_CHECK_MSG(reader.next(line), "expected " << m << " edges, got " << i);
    std::istringstream ss(line);
    std::string e;
    std::uint64_t u = 0, v = 0;
    ss >> e >> u >> v;
    CSD_CHECK_MSG(e == "e" && !ss.fail(),
                  "line " << reader.line_number() << ": expected 'e u v'");
    expect_line_end(ss, line, reader.line_number());
    CSD_CHECK_MSG(u >= 1 && v >= 1 && u <= n && v <= n,
                  "line " << reader.line_number()
                          << ": endpoint out of range (DIMACS is 1-based)");
    g.add_edge(static_cast<Vertex>(u - 1), static_cast<Vertex>(v - 1));
  }
  expect_input_end(reader, m);
  return g;
}

Graph read_any(std::istream& is) {
  // Peek at the first meaningful character without consuming the stream:
  // buffer everything (inputs are experiment-sized).
  std::stringstream buffer;
  buffer << is.rdbuf();
  std::string content = buffer.str();
  std::istringstream probe(content);
  LineReader reader(probe);
  std::string line;
  CSD_CHECK_MSG(reader.next(line), "empty graph input");
  const auto first = line.find_first_not_of(" \t");
  std::istringstream replay(content);
  if (line[first] == 'p') return read_dimacs(replay);
  return read_edge_list(replay);
}

void save(const std::string& path, const Graph& g, bool dimacs) {
  std::ofstream os(path);
  CSD_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  if (dimacs)
    write_dimacs(os, g);
  else
    write_edge_list(os, g);
  CSD_CHECK_MSG(os.good(), "write to " << path << " failed");
}

Graph load(const std::string& path) {
  std::ifstream is(path);
  CSD_CHECK_MSG(is.good(), "cannot open " << path);
  return read_any(is);
}

}  // namespace csd::io
