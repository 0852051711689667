// Clocks, resource probes and small statistics shared by the workloads.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU of the whole process (every thread, worker pools
/// included).
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

inline constexpr double kMiB = 1024.0 * 1024.0;

/// Resident set of this process, in MB (2^20 bytes).
inline double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return double(resident_pages) * double(sysconf(_SC_PAGESIZE)) / kMiB;
}

/// Bytes the allocator has handed out and not yet had back.
inline uint64_t HeapBytesInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return uint64_t(mi.uordblks) + uint64_t(mi.hblkhd);
}

/// Wall and CPU time of a timed loop, with pauses for work that is not
/// part of the workload (input generation, oracle checks).
class LoopTimer {
 public:
  void Start() {
    running_ = true;
    wall0_ = NowNs();
    cpu0_ = ProcessCpuSeconds();
  }
  /// Stops the clock; returns whether it was running.
  bool Pause() {
    if (!running_) return false;
    wall_ns_ += NowNs() - wall0_;
    cpu_s_ += ProcessCpuSeconds() - cpu0_;
    running_ = false;
    return true;
  }
  /// Runs `fn` with the clock stopped, then restarts it if it was running.
  template <typename Fn>
  void Paused(const Fn& fn) {
    const bool was_running = Pause();
    fn();
    if (was_running) Start();
  }
  double WallSeconds() const {
    return double(wall_ns_ + (running_ ? NowNs() - wall0_ : 0)) * 1e-9;
  }
  double CpuSeconds() const {
    return cpu_s_ + (running_ ? ProcessCpuSeconds() - cpu0_ : 0);
  }

 private:
  bool running_ = false;
  int64_t wall0_ = 0;
  double cpu0_ = 0;
  int64_t wall_ns_ = 0;
  double cpu_s_ = 0;
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = size_t(std::ceil(q * double(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Host speed. On a shared host the program's loops run up to 1.5x slower
/// while a neighbour is busy, in spells of seconds to minutes -- as long as
/// a whole run -- so a run's raw wall-clock figures say as much about the
/// neighbours as about the program. The benchmark therefore times, with the
/// loop clock stopped, a fixed kernel of its own that the program's code
/// cannot change: a branchy filter over a 1 MiB array, the kind of loop the
/// serving code's row filter and scans are, which slows with them. It runs
/// around every set-up and, on the single-client workloads, on the client's
/// thread after every op round; those figures are scaled to the speed at
/// which the kernel takes kReferenceProbeMs (about its time on the
/// development host when no neighbour is busy), and the raw figures and
/// the kernel's median time are reported beside them.
inline constexpr double kReferenceProbeMs = 0.5;

/// One sample of the host-speed kernel, in ms: an untimed pass that brings
/// the array into cache (so the program's own footprint does not show),
/// then eight timed passes.
inline double SampleHostMs() {
  static const std::vector<uint32_t> data = [] {
    std::vector<uint32_t> v(1 << 18);
    for (size_t i = 0; i < v.size(); ++i) v[i] = uint32_t(i * 2654435761u);
    return v;
  }();
  thread_local volatile uint64_t sink = 0;
  const auto pass = [&](uint32_t threshold) {
    uint64_t c = 0;
    for (uint32_t x : data) {
      if (x > threshold) c += x & 7;
    }
    return c;
  };
  sink = sink + pass(0);
  const int64_t t0 = NowNs();
  uint64_t c = 0;
  for (uint32_t r = 0; r < 8; ++r) c += pass(r * 1000000000u);
  const int64_t t1 = NowNs();
  sink = sink + c;
  return double(t1 - t0) * 1e-6;
}

/// Factor that scales a time measured while the kernel took `host_ms` to
/// the reference speed.
inline double ToReference(double host_ms) { return kReferenceProbeMs / host_ms; }

/// The timed loop is cut into windows of whole op rounds, each with the
/// same op mix (and, where the workload compacts, exactly one compaction).
/// Every wall-clock metric is the median of its windows, so a drift across
/// the run (a cost that grows as the run goes on) stays in it.
class WindowSeries {
 public:
  /// Closes one window: `ops` completed in `wall_s` seconds using `cpu_s`
  /// of process CPU, with these select and append latencies (us). A
  /// window with `host_ms` > 0 (the mean host-speed kernel time over it)
  /// is scaled to the reference speed; with 0 it is taken as measured.
  void Add(uint64_t ops, double wall_s, double cpu_s,
           const std::vector<double>& select_us,
           const std::vector<double>& append_us, double host_ms) {
    const double scale = host_ms > 0 ? ToReference(host_ms) : 1;
    if (host_ms > 0) host_ms_.push_back(host_ms);
    Push("ops_per_s", double(ops) / wall_s, 1 / scale);
    Push("cpu_us_per_op", cpu_s * 1e6 / double(ops), scale);
    Push("select_p50_us", Quantile(select_us, 0.50), scale);
    Push("select_p99_us", Quantile(select_us, 0.99), scale);
    if (!append_us.empty()) Push("append_p50_us", Median(append_us), scale);
  }

  /// Writes each metric (the median of its windows); for scaled windows
  /// also the raw median as `<name>_raw` and the kernel's median as host_ms.
  template <typename Metrics>
  void Report(Metrics* m) const {
    for (const auto& [name, v] : scaled_) (*m)[name] = Median(v);
    if (host_ms_.empty()) return;
    for (const auto& [name, v] : raw_) (*m)[name + "_raw"] = Median(v);
    (*m)["host_ms"] = Median(host_ms_);
  }

 private:
  void Push(const std::string& name, double raw, double scale) {
    raw_[name].push_back(raw);
    scaled_[name].push_back(raw * scale);
  }

  std::vector<double> host_ms_;
  std::map<std::string, std::vector<double>> raw_, scaled_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
