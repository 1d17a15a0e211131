#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "common.hpp"

namespace kbench {

int SpanRecorder::begin(const char* name, int parent, std::uint64_t request) {
  if (!enabled_) return -1;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::map<std::string, double> SpanRecorder::self_us_by_layer(
    std::size_t from, std::size_t to) const {
  to = std::min(to, spans_.size());
  std::vector<double> child_us(to > from ? to - from : 0, 0.0);
  auto dur_us = [](const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
  };
  for (std::size_t i = from; i < to; ++i) {
    const Span& s = spans_[i];
    if (s.parent >= static_cast<int>(from) && s.end_ns != 0) {
      child_us[static_cast<std::size_t>(s.parent) - from] += dur_us(s);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = from; i < to; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    const std::string_view name(s.name);
    const std::string layer(name.substr(0, name.find('.')));
    out[layer] += dur_us(s) - child_us[i - from];
  }
  return out;
}

std::optional<std::size_t> SpanRecorder::write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::size_t, std::size_t>>& capped,
    std::size_t cap) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return std::nullopt;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[512];
  std::size_t written = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    const bool cut = std::any_of(capped.begin(), capped.end(), [&](const auto& r) {
      return i >= r.first + cap && i < r.second;
    });
    if (cut) continue;
    const std::string_view name(s.name);
    const std::string layer(name.substr(0, name.find('.')));
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"request\":%llu}}",
                  written == 0 ? "" : ",\n", s.name, layer.c_str(),
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, static_cast<unsigned long long>(s.request));
    out << buf;
    ++written;
  }
  out << "]}\n";
  if (!out) return std::nullopt;
  return written;
}

}  // namespace kbench
