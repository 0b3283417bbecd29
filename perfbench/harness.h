// Measurement plumbing for the colored-tree benchmark: the clock, latency
// samples with a sample-count guard on percentiles, in-memory spans with
// per-name self time, result digests, and the result line.
//
// Everything here lives in the benchmark's own files; the engine is only
// called through its public headers.

#ifndef COLORFUL_XML_PERFBENCH_HARNESS_H_
#define COLORFUL_XML_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double SecondsSince(Clock::time_point t) {
  return Seconds(Clock::now() - t);
}

/// A run that cannot be measured or whose outputs are wrong. Thrown out of
/// the workload, caught in main, and turned into a non-zero exit.
struct BenchError {
  std::string what;
};

[[noreturn]] inline void Fail(std::string what) {
  throw BenchError{std::move(what)};
}

/// Latency samples in milliseconds. Percentiles are nearest-rank and are
/// refused (the run fails) unless at least ten samples lie beyond them.
class Samples {
 public:
  void Add(double ms) { v_.push_back(ms); }
  size_t size() const { return v_.size(); }
  bool Supports(double p) const { return BeyondCount(p, v_.size()) >= 10; }

  double Percentile(double p, const char* what) const {
    if (!Supports(p)) {
      Fail(std::string("refusing ") + what + ": " + std::to_string(v_.size()) +
           " samples leave fewer than 10 beyond p" +
           std::to_string(static_cast<int>(p * 100)));
    }
    std::vector<double> s = v_;
    const size_t k = RankIndex(p, s.size());
    std::nth_element(s.begin(), s.begin() + static_cast<long>(k), s.end());
    return s[k];
  }
  double Median(const char* what) const { return Percentile(0.5, what); }

  /// Samples needed so that `p` has ten beyond it.
  static size_t MinFor(double p) {
    size_t n = 10;
    while (BeyondCount(p, n) < 10) ++n;
    return n;
  }

 private:
  static size_t RankIndex(double p, size_t n) {
    size_t k = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
    return k == 0 ? 0 : k - 1;
  }
  static size_t BeyondCount(double p, size_t n) {
    return n == 0 ? 0 : n - 1 - RankIndex(p, n);
  }
  std::vector<double> v_;
};

/// Median of a small set of repeated measurements (set-up repetitions).
inline double MedianOf(std::vector<double> v) {
  if (v.empty()) Fail("median of nothing");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Order-sensitive digest of a statement result: item count plus an FNV-1a
/// hash over the atomized values.
struct Digest {
  uint64_t count = 0;
  uint64_t hash = 1469598103934665603ull;

  void Add(const std::string& v) {
    ++count;
    for (unsigned char c : v) Mix(c);
    Mix(0xff);  // value separator
  }
  bool operator==(const Digest&) const = default;
  std::string ToString() const {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%llu/%016llx",
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(hash));
    return buf;
  }

 private:
  void Mix(unsigned char c) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
};

/// One recorded interval. `parent` is the id of the enclosing span on the
/// same thread (0 = none); `request` groups the spans of one request.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder. Disabled tracers cost one branch per span.
/// Spans are kept until WriteJsonl at exit.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  bool on() const { return on_; }

  uint64_t Begin() { return on_ ? next_id_.fetch_add(1) : 0; }
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  void Record(const Span& s) {
    std::lock_guard<std::mutex> g(mu_);
    spans_.push_back(s);
  }

  /// Per span name: number of spans and summed self time in seconds (the
  /// span's duration minus what its direct children cover).
  struct SelfTime {
    uint64_t calls = 0;
    double self_s = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const {
    std::lock_guard<std::mutex> g(mu_);
    std::map<uint64_t, int64_t> child_ns;
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, SelfTime> out;
    for (const Span& s : spans_) {
      SelfTime& t = out[s.name];
      ++t.calls;
      auto it = child_ns.find(s.id);
      const int64_t self =
          (s.end_ns - s.start_ns) - (it == child_ns.end() ? 0 : it->second);
      t.self_s += static_cast<double>(self) * 1e-9;
    }
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return spans_.size();
  }

  bool WriteJsonl(const std::string& path) const {
    std::lock_guard<std::mutex> g(mu_);
    std::ofstream f(path, std::ios::trunc);
    for (const Span& s : spans_) {
      f << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
    }
    return static_cast<bool>(f);
  }

 private:
  const bool on_;
  const Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span. Nesting is tracked per thread, so a span opened while
/// another is open on the same thread becomes its child.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, uint64_t request = 0) : t_(t) {
    if (!t_.on()) return;
    s_.id = t_.Begin();
    s_.parent = Current();
    s_.request = request != 0 ? request : CurrentRequest();
    s_.name = name;
    Current() = s_.id;
    CurrentRequest() = s_.request;
    s_.start_ns = t_.Now();
  }
  ~ScopedSpan() {
    if (!t_.on()) return;
    s_.end_ns = t_.Now();
    Current() = s_.parent;
    if (s_.parent == 0) CurrentRequest() = 0;
    t_.Record(s_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static uint64_t& Current() {
    thread_local uint64_t id = 0;
    return id;
  }
  static uint64_t& CurrentRequest() {
    thread_local uint64_t id = 0;
    return id;
  }
  Tracer& t_;
  Span s_;
};

/// Peak resident set of this process in MiB (VmHWM).
inline double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  Fail("VmHWM not found in /proc/self/status");
}

/// Name -> (value, unit), printed in insertion order by the result line.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
    for (auto& m : m_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    m_.push_back({name, value, unit});
  }
  std::string ToJson() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < m_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", m_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + m_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             m_[i].unit + "\"}";
    }
    return out + "}";
  }
  void PrintLines(std::FILE* f) const {
    for (const auto& m : m_) {
      std::fprintf(f, "  %-44s %16.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> m_;
};

}  // namespace perfbench

#endif  // COLORFUL_XML_PERFBENCH_HARNESS_H_
