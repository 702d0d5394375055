#include "fleet.hpp"

#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ffis/dist/coordinator.hpp"
#include "ffis/dist/worker.hpp"
#include "ffis/net/socket.hpp"

namespace campaign_bench {

namespace {

using ffis::dist::MsgType;

/// State shared by every worker's probe stream.
struct FleetProbe {
  explicit FleetProbe(bool timing_on) : timing(timing_on), origin(TraceClock::now()) {}

  void on_run_batch(TraceClock::time_point at, ffis::util::ByteSpan payload) {
    const std::int64_t ns = ns_between(origin, at);
    std::lock_guard lock(mutex);
    if (!first_batch_ns.has_value()) {
      first_batch_ns = ns;
      first_batch_rows = ffis::dist::decode_run_batch(payload).rows.size();
    }
    last_batch_ns = ns;
  }

  const bool timing;
  const TraceClock::time_point origin;
  std::mutex mutex;  // guards everything below
  std::optional<std::int64_t> first_batch_ns;
  std::int64_t last_batch_ns = 0;
  std::uint64_t first_batch_rows = 0;
  TraceBuffer trace;
  std::uint64_t wire_bytes = 0;
  std::array<std::uint64_t, kMsgTypeSlots> frames{};
};

std::uint32_t frame_length(ffis::util::ByteSpan prefix) {
  std::uint32_t n = 0;
  for (std::size_t i = 0; i < 4 && i < prefix.size(); ++i) {
    n |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  }
  return n;
}

/// Forwards to the worker's socket and follows net::send_frame/recv_frame's
/// framing: a 4-byte length prefix, then the payload whose first byte is the
/// protocol type tag.
class ProbeStream final : public ffis::net::Stream {
 public:
  ProbeStream(ffis::net::Socket socket, FleetProbe& probe)
      : socket_(std::move(socket)), probe_(probe) {}

  ~ProbeStream() override {
    std::lock_guard lock(probe_.mutex);
    probe_.trace.merge(trace_);
    probe_.wire_bytes += bytes_;
    for (std::size_t i = 0; i < kMsgTypeSlots; ++i) probe_.frames[i] += frames_[i];
  }

  ProbeStream(const ProbeStream&) = delete;
  ProbeStream& operator=(const ProbeStream&) = delete;

  void send_all(ffis::util::ByteSpan data) override {
    const auto start = TraceClock::now();
    socket_.send_all(data);
    const auto end = TraceClock::now();
    bytes_ += data.size();
    if (!send_in_payload_) {
      send_frame_ns_ = ns_between(start, end);
      send_in_payload_ = frame_length(data) > 0;
      return;
    }
    send_in_payload_ = false;
    send_frame_ns_ += ns_between(start, end);
    const auto type = static_cast<MsgType>(data[0]);
    count(type);
    if (probe_.timing) trace_.add(SpanId::NetSend, send_frame_ns_);
    if (type == MsgType::WorkRequest) request_sent_ = end;
    if (type == MsgType::RunBatch) probe_.on_run_batch(end, data);
  }

  bool recv_exact(ffis::util::MutableByteSpan out) override {
    const auto start = TraceClock::now();
    const bool ok = socket_.recv_exact(out);
    const auto end = TraceClock::now();
    if (!ok) return false;
    bytes_ += out.size();
    if (!recv_in_payload_) {
      recv_frame_ns_ = ns_between(start, end);
      recv_in_payload_ = frame_length(out) > 0;
      return true;
    }
    recv_in_payload_ = false;
    recv_frame_ns_ += ns_between(start, end);
    const auto type = static_cast<MsgType>(out[0]);
    count(type);
    if (probe_.timing) trace_.add(SpanId::NetRecvWait, recv_frame_ns_);
    if (request_sent_.has_value() &&
        (type == MsgType::WorkGrant || type == MsgType::Shutdown)) {
      if (probe_.timing) trace_.add(SpanId::GrantWait, ns_between(*request_sent_, end));
      request_sent_.reset();
    }
    return true;
  }

  void shutdown_both() noexcept override { socket_.shutdown_both(); }

 private:
  void count(MsgType type) {
    const auto slot = static_cast<std::size_t>(type);
    if (slot < kMsgTypeSlots) ++frames_[slot];
  }

  ffis::net::Socket socket_;
  FleetProbe& probe_;
  bool send_in_payload_ = false;
  bool recv_in_payload_ = false;
  std::int64_t send_frame_ns_ = 0;
  std::int64_t recv_frame_ns_ = 0;
  std::optional<TraceClock::time_point> request_sent_;
  TraceBuffer trace_;
  std::uint64_t bytes_ = 0;
  std::array<std::uint64_t, kMsgTypeSlots> frames_{};
};

}  // namespace

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::Hello: return "Hello";
    case MsgType::HelloAck: return "HelloAck";
    case MsgType::HelloReject: return "HelloReject";
    case MsgType::WorkRequest: return "WorkRequest";
    case MsgType::WorkGrant: return "WorkGrant";
    case MsgType::CellInfo: return "CellInfo";
    case MsgType::RunRow: return "RunRow";
    case MsgType::UnitDone: return "UnitDone";
    case MsgType::Shutdown: return "Shutdown";
    case MsgType::Ping: return "Ping";
    case MsgType::Pong: return "Pong";
    case MsgType::RunBatch: return "RunBatch";
  }
  return "unknown";
}

FleetResult run_fleet(const Workload& w, const std::string& store_dir, bool timing,
                      bool keep_details) {
  ffis::dist::CoordinatorOptions options;
  options.unit_runs = w.unit_runs;
  options.engine.checkpoint_dir = store_dir;
  options.engine.keep_details = keep_details;
  ffis::dist::Coordinator coordinator(*w.plan, options);
  const std::uint16_t port = coordinator.port();

  FleetResult out;
  FleetProbe probe(timing);
  std::mutex error_mutex;
  std::string error;
  const auto fail = [&](const std::string& what) {
    std::lock_guard lock(error_mutex);
    if (error.empty()) error = what;
  };

  std::thread serve([&] {
    try {
      out.report = coordinator.run();
    } catch (const std::exception& e) {
      fail(std::string("coordinator: ") + e.what());
    }
  });
  std::vector<std::thread> fleet;
  for (std::size_t i = 0; i < w.workers; ++i) {
    fleet.emplace_back([&, i] {
      ffis::dist::WorkerOptions wo;
      wo.name = "bench-worker-" + std::to_string(i);
      wo.threads = 1;
      wo.plan = w.plan.get();
      wo.transport = [&probe](ffis::net::Socket socket) -> std::unique_ptr<ffis::net::Stream> {
        return std::make_unique<ProbeStream>(std::move(socket), probe);
      };
      try {
        const auto stats = ffis::dist::run_worker("127.0.0.1", port, wo);
        if (!stats.reject_reason.empty()) fail("worker rejected: " + stats.reject_reason);
      } catch (const std::exception& e) {
        fail(std::string("worker: ") + e.what());
      }
    });
  }
  for (auto& t : fleet) t.join();
  {
    std::lock_guard lock(error_mutex);
    if (!error.empty()) coordinator.request_cancel();
  }
  serve.join();
  out.campaign_s = static_cast<double>(ns_between(probe.origin, TraceClock::now())) / 1e9;
  if (!error.empty()) throw std::runtime_error(error);

  std::lock_guard lock(probe.mutex);
  if (!probe.first_batch_ns.has_value()) throw std::runtime_error("no RunBatch was sent");
  out.setup_s = static_cast<double>(*probe.first_batch_ns) / 1e9;
  const double window_s =
      static_cast<double>(probe.last_batch_ns - *probe.first_batch_ns) / 1e9;
  if (window_s > 0.0 && out.report.total_runs > probe.first_batch_rows) {
    out.runs_per_s =
        static_cast<double>(out.report.total_runs - probe.first_batch_rows) / window_s;
  }
  out.trace = probe.trace;
  out.wire_bytes = probe.wire_bytes;
  out.frames = probe.frames;
  return out;
}

}  // namespace campaign_bench
