// In-memory span log for the traced run. One SpanLog per client thread;
// each span records one call the benchmark made into a public function of
// the program: name, start, end, the span that caused it, the request id
// its operation shares, the op round it belongs to, and up to four
// numeric attributes (counts the call returned). Nothing is formatted
// until the run ends, when WriteSpans dumps every log as TSV.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t parent = -1;  ///< index into the same log, -1 for a root
  uint64_t request = 0;
  int64_t round = -1;   ///< op round, -1 for set-up and recovery spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::array<double, 6> attrs{};
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled = false, uint32_t thread = 0)
      : enabled_(enabled), thread_(thread) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its index (or -1 when disabled) so
  /// later spans can name it as their parent.
  int64_t Add(const char* name, int64_t parent, uint64_t request,
              int64_t round, int64_t start_ns, int64_t end_ns,
              std::array<double, 6> attrs = {}) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, request, round, start_ns, end_ns, attrs});
    return int64_t(spans_.size()) - 1;
  }

  /// Reserves a slot for a parent span whose end is not known yet.
  int64_t Open(const char* name, uint64_t request, int64_t round,
               int64_t start_ns) {
    return Add(name, -1, request, round, start_ns, start_ns);
  }
  void Close(int64_t idx, int64_t end_ns, std::array<double, 6> attrs = {}) {
    if (idx < 0) return;
    spans_[size_t(idx)].end_ns = end_ns;
    spans_[size_t(idx)].attrs = attrs;
  }

  uint32_t thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint32_t thread_;
  std::vector<Span> spans_;
};

/// Writes every log as one TSV file. Span ids are (thread << 32) | index,
/// so parents resolve across the merged file.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tround\tname\tstart_ns\tend_ns\ta0\ta1\ta2\ta3\ta4\ta5\n");
  for (const SpanLog* log : logs) {
    const uint64_t base = uint64_t(log->thread()) << 32;
    for (size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      const long long parent =
          s.parent < 0 ? -1 : static_cast<long long>(base + uint64_t(s.parent));
      std::fprintf(f, "%llu\t%lld\t%llu\t%lld\t%s\t%lld\t%lld\t%.17g\t%.17g\t%.17g\t%.17g\t%.17g\t%.17g\n",
                   static_cast<unsigned long long>(base + i), parent,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.round), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.attrs[0], s.attrs[1],
                   s.attrs[2], s.attrs[3], s.attrs[4], s.attrs[5]);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
