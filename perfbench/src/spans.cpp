#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

int Spans::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.run_id = run_id_;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  if (stack_.empty() || stack_.back() != id)
    throw std::logic_error("spans: close out of order");
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

void Spans::add(std::string name, std::int64_t start_ns, std::int64_t end_ns) {
  Span span;
  span.name = std::move(name);
  span.run_id = run_id_;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
}

double Spans::child_s(std::size_t id) const {
  double sum = 0;
  for (const Span& s : spans_)
    if (s.parent == static_cast<int>(id)) sum += s.seconds();
  return sum;
}

double Spans::self_s(const std::string& name) const {
  double sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) sum += spans_[i].seconds() - child_s(i);
  return sum;
}

double Spans::median_s(const std::string& name) const {
  std::vector<double> xs;
  for (const Span& s : spans_)
    if (s.name == name) xs.push_back(s.seconds());
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : (xs[m - 1] + xs[m]) / 2;
}

void Spans::write_jsonl(const std::string& path,
                        const std::string& stamp_json) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("spans: cannot write " + path);
  out << "{\"schema\":\"perfbench-spans-v1\",\"stamp\":" << stamp_json
      << "}\n";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"run\":\"" << s.run_id
        << "\",\"start_ns\":" << s.start_ns - t0
        << ",\"end_ns\":" << s.end_ns - t0 << "}\n";
  }
}

}  // namespace perfbench
