#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace mmbench {

int Tracer::begin(std::string name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), now(), 0.0,
                    open_.empty() ? -1 : open_.back(), run_});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = now();
  // Spans nest strictly (one driving thread), so `id` is the innermost.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::self_seconds(std::size_t index) const {
  const Span& s = spans_[index];
  std::vector<std::pair<double, double>> kids;
  for (std::size_t i = index + 1; i < spans_.size(); ++i)
    if (spans_[i].parent == static_cast<int>(index))
      kids.emplace_back(std::max(spans_[i].start_s, s.start_s),
                        std::min(spans_[i].end_s, s.end_s));
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double reach = s.start_s;
  for (const auto& [a, b] : kids) {
    const double lo = std::max(a, reach);
    if (b > lo) {
      covered += b - lo;
      reach = b;
    }
  }
  return (s.end_s - s.start_s) - covered;
}

std::map<std::string, double> Tracer::layer_self_seconds(int run) const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].run != run) continue;
    const std::string& name = spans_[i].name;
    out[name.substr(0, name.find('.'))] += self_seconds(i);
  }
  return out;
}

bool Tracer::write_json(const std::string& path, const std::string& stamp,
                        const std::map<int, std::string>& run_names) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\n  \"stamp\": \"%s\",\n  \"runs\": {", stamp.c_str());
  const char* sep = "";
  for (const auto& [id, name] : run_names) {
    std::fprintf(f, "%s\"%d\": \"%s\"", sep, id, name.c_str());
    sep = ", ";
  }
  std::fprintf(f, "},\n  \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "    {\"id\": %zu, \"name\": \"%s\", \"run\": %d, "
                 "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"self_s\": %.9f}%s\n",
                 i, s.name.c_str(), s.run, s.parent, s.start_s, s.end_s,
                 self_seconds(i), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace mmbench
