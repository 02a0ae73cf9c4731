// In-memory span trace for the traced run. Spans are recorded by the
// benchmark around its own calls into each layer (the library itself is not
// instrumented); each has a name, start, end, parent and query id. Spans are
// kept in memory and written out once, at exit.
#ifndef KWSDBG_PERFBENCH_TRACE_H_
#define KWSDBG_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    double start;  ///< Seconds on the monotonic clock.
    double end;
    int64_t parent;  ///< Index of the enclosing span, or -1.
    uint64_t query;  ///< Query id shared by the spans of one request.
  };

  /// Opens a span nested in the innermost open one; returns its index.
  /// Single-threaded: every span is recorded from the driving thread.
  size_t Begin(const char* name, uint64_t query);
  void End(size_t span);
  /// Records an already finished span (for requests completed elsewhere).
  void Add(const char* name, double start, double end, uint64_t query);

  /// Per span name: summed duration minus the time its child spans cover
  /// (self time), in milliseconds.
  std::map<std::string, double> SelfMillis() const;

  /// Writes one JSON object per span, one per line. Returns false on error.
  bool Write(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Opens a span for the enclosing scope; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t query)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, query) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t id_;
};

}  // namespace perfbench

#endif  // KWSDBG_PERFBENCH_TRACE_H_
