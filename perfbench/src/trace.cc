#include "trace.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

size_t Tracer::Begin(const char* name, uint64_t query) {
  const int64_t parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(Span{name, NowSeconds(), 0, parent, query});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(size_t span) {
  spans_[span].end = NowSeconds();
  open_.pop_back();  // ScopedSpan closes innermost-first
}

void Tracer::Add(const char* name, double start, double end, uint64_t query) {
  spans_.push_back(Span{name, start, end, -1, query});
}

std::map<std::string, double> Tracer::SelfMillis() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += (s.end - s.start - child_time[i]) * 1e3;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.1f,"
                 "\"end_us\":%.1f,\"parent\":%lld,\"query\":%llu}\n",
                 i, s.name, (s.start - origin) * 1e6, (s.end - origin) * 1e6,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.query));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
