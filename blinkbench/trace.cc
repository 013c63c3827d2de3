#include "blinkbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace bench {

double MedianSeconds(const std::vector<const Tracer*>& tracers, const std::string& name) {
  std::vector<double> d;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      if (name == s.name) {
        d.push_back(s.seconds());
      }
    }
  }
  if (d.empty()) {
    return 0.0;
  }
  const size_t mid = d.size() / 2;
  std::nth_element(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(mid), d.end());
  if (d.size() % 2 == 1) {
    return d[mid];
  }
  const double upper = d[mid];
  return (*std::max_element(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(mid)) + upper) /
         2.0;
}

bool WriteSpans(const std::vector<const Tracer*>& tracers, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (size_t t = 0; t < tracers.size(); ++t) {
    for (const Span& s : tracers[t]->spans()) {
      std::fprintf(f,
                   "{\"tracer\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%lld,\"query\":%llu}\n",
                   t, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.query_id));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace bench
