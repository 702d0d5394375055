#include "trace.hpp"

#include <algorithm>
#include <cmath>

namespace campaign_bench {

namespace {

thread_local TraceBuffer* t_buffer = nullptr;
thread_local Span* t_open = nullptr;

}  // namespace

void TraceBuffer::add(SpanId id, std::int64_t duration_ns, std::int64_t self_ns) {
  auto& s = spans[static_cast<std::size_t>(id)];
  s.duration_ns.push_back(duration_ns);
  s.self_ns += self_ns;
}

void TraceBuffer::merge(const TraceBuffer& other) {
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    auto& dst = spans[i];
    const auto& src = other.spans[i];
    dst.duration_ns.insert(dst.duration_ns.end(), src.duration_ns.begin(),
                           src.duration_ns.end());
    dst.self_ns += src.self_ns;
  }
}

TraceScope::TraceScope(TraceBuffer& buffer) : previous_(t_buffer) { t_buffer = &buffer; }

TraceScope::~TraceScope() { t_buffer = previous_; }

Span::Span(SpanId id) : id_(id), parent_(t_open), start_(TraceClock::now()) {
  t_open = this;
}

Span::~Span() {
  const std::int64_t duration = ns_between(start_, TraceClock::now());
  if (t_buffer != nullptr) t_buffer->add(id_, duration, duration - child_ns_);
  if (parent_ != nullptr) parent_->child_ns_ += duration;
  t_open = parent_;
}

SpanSummary summarize(const SpanSamples& samples) {
  SpanSummary out;
  out.calls = samples.duration_ns.size();
  out.self_ms = static_cast<double>(samples.self_ns) / 1e6;
  if (out.calls == 0) return out;
  std::vector<std::int64_t> sorted = samples.duration_ns;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = [&](double q) {
    const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
    return static_cast<double>(sorted[std::max<std::size_t>(k, 1) - 1]) / 1e3;
  };
  out.p50_us = rank(0.50);
  out.p99_us = rank(0.99);
  return out;
}

}  // namespace campaign_bench
