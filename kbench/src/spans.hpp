#pragma once

// In-memory span recorder for the traced run.  Spans are recorded by the
// benchmark's own code around calls into the program's public functions —
// the program's own obs::Tracer stays off — and written out at the end as
// Chrome/Perfetto trace JSON.  Single-threaded: only the benchmark's main
// thread records.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace kbench {

struct Span {
  const char* name = "";  ///< "layer.call", e.g. "protocol.parse_request"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 for a root
  std::uint64_t request = 0;  ///< request id shared by one request's spans
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; returns its index, or -1 when recording is off or the
  /// buffer is full (counted as dropped).
  int begin(const char* name, int parent = -1, std::uint64_t request = 0);
  void end(int index);
  /// Forget the most recent span when it is `index` (a call that turned
  /// out to do no work, e.g. a decode that found no complete frame).
  void discard(int index) {
    if (index >= 0 && static_cast<std::size_t>(index) + 1 == spans_.size()) {
      spans_.pop_back();
    }
  }
  /// Rename an open or closed span (the engine path is known only after
  /// the call returns).
  void rename(int index, const char* name) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].name = name;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the time covered by child spans) summed per
  /// layer — the name up to its first '.' — over spans [from, to).
  [[nodiscard]] std::map<std::string, double> self_us_by_layer(
      std::size_t from, std::size_t to) const;

  /// Chrome trace-event JSON ("X" complete events, microsecond times) of
  /// every span, except that of each range [from, to) in `capped` only the
  /// first `cap` spans are written.  Returns the number of spans written,
  /// or nullopt when the file cannot be written.
  std::optional<std::size_t> write_chrome_trace(
      const std::string& path,
      const std::vector<std::pair<std::size_t, std::size_t>>& capped,
      std::size_t cap) const;

 private:
  std::size_t capacity_;
  bool enabled_ = false;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// RAII span; inert when `rec` is null or recording is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int parent = -1,
             std::uint64_t request = 0)
      : rec_(rec), index_(rec != nullptr ? rec->begin(name, parent, request)
                                         : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }
  void rename(const char* name) {
    if (rec_ != nullptr) rec_->rename(index_, name);
  }

 private:
  SpanRecorder* rec_;
  int index_;
};

}  // namespace kbench
