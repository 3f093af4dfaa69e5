#include "client/presentation.hpp"

#include <algorithm>

#include "media/frame.hpp"
#include "net/wire.hpp"
#include "util/log.hpp"

namespace hyms::client {

std::vector<std::pair<std::string, double>> qos_metrics(
    const buffer::MediaBuffer& buffer, const rtp::RtpReceiver& receiver) {
  return {
      {"buffer_ms", buffer.occupancy_time().to_ms()},
      {"jitter_ms", receiver.stats().jitter_ms},
      {"incomplete", static_cast<double>(receiver.stats().frames_incomplete)},
  };
}

PresentationRuntime::PresentationRuntime(net::Network& net, net::NodeId node,
                                         core::PresentationScenario scenario,
                                         Config config)
    : net_(net), sim_(net.sim_at(node)), node_(node),
      scenario_(std::move(scenario)), config_(config) {
  core::PlayoutConfig playout;
  playout.initial_delay = config_.time_window;
  playout.sync = config_.sync;
  playout.rebuffer = config_.rebuffer;
  playout.drop_on_overflow = config_.drop_on_overflow;
  playout.record_events = config_.record_events;
  playout.start_offset = config_.start_offset;
  scheduler_ =
      std::make_unique<core::PlayoutScheduler>(sim_, scenario_, playout);
}

PresentationRuntime::~PresentationRuntime() = default;

proto::StreamSetup PresentationRuntime::prepare_setup(
    const std::string& document_name) {
  proto::StreamSetup setup;
  setup.document = document_name;
  setup.time_window_us = config_.time_window.us();
  setup.resume_offset_us = config_.start_offset.us();

  streams_.reserve(scenario_.streams.size());
  for (const auto& spec : scenario_.streams) {
    StreamRuntime& rt = streams_.emplace_back(spec);
    buffer::MediaBuffer::Config bc;
    bc.time_window = config_.time_window;
    bc.low_watermark = config_.low_watermark;
    bc.high_watermark = config_.high_watermark;
    rt.buffer = std::make_unique<buffer::MediaBuffer>(spec.id, bc);

    proto::StreamSetup::StreamPort port;
    port.stream_id = spec.id;
    if (spec.type == media::MediaType::kAudio ||
        spec.type == media::MediaType::kVideo) {
      // Bind the RTP receive port now; sender RTCP endpoint arrives with the
      // setup reply, so pass a placeholder and fix it in activate().
      rtp::RtpReceiver::Params rp;
      rp.local_ssrc = media::hash_source_name("client/" + spec.id) | 1u;
      rp.rr_interval = config_.rtcp_rr_interval;
      rp.label = "client/" + spec.id + "/rtp";
      rt.receiver = std::make_unique<rtp::RtpReceiver>(
          net_, node_, 0, net::Endpoint{}, rp);
      port.rtp_port = rt.receiver->rtp_endpoint().port;
    }
    setup.streams.push_back(port);
  }
  return setup;
}

void PresentationRuntime::activate(const proto::StreamSetupReply& reply,
                                   const net::TcpParams& tcp) {
  for (const auto& info : reply.streams) {
    StreamRuntime* found = find(info.stream_id);
    if (found == nullptr) {
      LOG_WARN << "setup reply names unknown stream '" << info.stream_id << "'";
      continue;
    }
    StreamRuntime& rt = *found;
    rt.frame_interval = Time::usec(info.frame_interval_us);
    rt.frame_count = info.frame_count;
    // Playout length is bounded by the scenario DURATION when present.
    if (rt.spec.duration && rt.frame_interval > Time::zero()) {
      rt.frame_count = std::min<std::int64_t>(
          rt.frame_count, rt.spec.duration->us() / rt.frame_interval.us());
    }

    if (info.via_rtp && rt.receiver != nullptr) {
      rt.receiver->set_clock(rtp::MediaClock{info.clock_rate});
      rt.receiver->set_sender_rtcp(net::Endpoint{
          static_cast<net::NodeId>(info.sender_rtcp_node),
          info.sender_rtcp_port});
      rt.receiver->set_extra_metrics(
          [&buffer = *rt.buffer, &receiver = *rt.receiver] {
            return qos_metrics(buffer, receiver);
          });
      StreamRuntime* rt_ptr = &rt;
      rt.receiver->set_on_frame(
          [this, rt_ptr](const rtp::ReceivedFrame& frame) {
            on_frame(*rt_ptr, frame);
          });
    } else if (!info.via_rtp) {
      fetch_object(rt, info, tcp);
    }

    scheduler_->attach_stream(rt.spec.id, rt.buffer.get(), rt.frame_interval,
                              rt.frame_count);
  }
  scheduler_->start();
}

void PresentationRuntime::on_frame(StreamRuntime& rt,
                                   const rtp::ReceivedFrame& frame) {
  ++stats_.frames_received;
  // Checked in place, in the wire buffers the fragments arrived in; the
  // media buffer takes the frame's playout metadata only.
  if (!media::verify_frame_payload(frame.fragments)) {
    ++stats_.payload_corruptions;
    return;
  }
  buffer::BufferedFrame bf;
  bf.media_time = frame.media_time;
  bf.index = rt.frame_interval > Time::zero()
                 ? frame.media_time.us() / rt.frame_interval.us()
                 : 0;
  bf.duration = rt.frame_interval;
  bf.arrival = frame.arrival;
  LOG_TRACE << "push " << rt.spec.id << " idx " << bf.index;
  if (rt.buffer->push(bf)) ++stats_.frames_buffered;
}

void PresentationRuntime::fetch_object(
    StreamRuntime& rt, const proto::StreamSetupReply::StreamInfo& info,
    const net::TcpParams& tcp) {
  // The object lives on its media server's host (which may differ from the
  // control server when media servers run on their own machines, Fig. 3).
  rt.object_conn = net::StreamConnection::connect(
      net_, node_,
      net::Endpoint{static_cast<net::NodeId>(info.tcp_node), info.tcp_port},
      tcp);
  StreamRuntime* rt_ptr = &rt;
  rt.object_conn->set_on_data([this, rt_ptr](
                                  std::span<const std::uint8_t> chunk) {
    StreamRuntime& stream = *rt_ptr;
    constexpr std::size_t kPrefix = sizeof(stream.object_prefix);
    if (stream.object_received < kPrefix) {
      const std::size_t take = std::min(
          kPrefix - static_cast<std::size_t>(stream.object_received),
          chunk.size());
      std::copy_n(chunk.begin(), take,
                  stream.object_prefix.begin() +
                      static_cast<std::ptrdiff_t>(stream.object_received));
    }
    stream.object_received += chunk.size();
    if (stream.object_done || stream.object_received < kPrefix) return;
    // Compared as received-after-prefix against the declared length, so a
    // hostile length near 2^64 cannot wrap the test: such an object never
    // completes, and a closed transport then shows as objects_stalled().
    const std::uint64_t declared =
        net::WireReader(stream.object_prefix.data(), kPrefix).u64();
    if (stream.object_received - kPrefix < declared) return;
    stream.object_done = true;
    ++stats_.objects_fetched;
    buffer::BufferedFrame bf;
    bf.index = 0;
    bf.media_time = Time::zero();
    bf.duration = stream.spec.duration.value_or(Time::zero());
    bf.arrival = sim_.now();
    stream.buffer->push(bf);
  });
}

void PresentationRuntime::pause() { scheduler_->pause(); }

void PresentationRuntime::resume() { scheduler_->resume(); }

PresentationRuntime::StreamRuntime* PresentationRuntime::find(
    std::string_view stream_id) {
  for (StreamRuntime& rt : streams_) {
    if (rt.spec.id == stream_id) return &rt;
  }
  return nullptr;
}

void PresentationRuntime::disable_stream(std::string_view stream_id) {
  StreamRuntime* rt = find(stream_id);
  if (rt == nullptr) return;
  rt->receiver.reset();  // stop consuming packets
  rt->buffer->clear();
}

rtp::RtpReceiver* PresentationRuntime::receiver(std::string_view stream_id) {
  StreamRuntime* rt = find(stream_id);
  return rt == nullptr ? nullptr : rt->receiver.get();
}

void PresentationRuntime::flush_telemetry() {
  auto* hub = sim_.telemetry();
  if (hub == nullptr) return;
  auto& m = hub->metrics();
  m.set("client/frames_received", static_cast<double>(stats_.frames_received));
  m.set("client/frames_buffered", static_cast<double>(stats_.frames_buffered));
  m.set("client/payload_corruptions",
        static_cast<double>(stats_.payload_corruptions));
  m.set("client/objects_fetched", static_cast<double>(stats_.objects_fetched));
  for (const StreamRuntime& rt : streams_) {
    if (rt.buffer != nullptr) {
      const auto& bs = rt.buffer->stats();
      const std::string prefix = "client/buffer/" + rt.spec.id;
      m.set(prefix + "/pushed", static_cast<double>(bs.pushed));
      m.set(prefix + "/popped", static_cast<double>(bs.popped));
      m.set(prefix + "/dropped", static_cast<double>(bs.dropped));
      if (bs.occupancy_samples > 0) {
        m.set(prefix + "/occupancy_ms_mean",
              bs.occupancy_ms_sum / static_cast<double>(bs.occupancy_samples));
      }
    }
    if (rt.receiver != nullptr) rt.receiver->flush_telemetry();
  }
}

bool PresentationRuntime::objects_stalled() const {
  for (const StreamRuntime& rt : streams_) {
    if (rt.object_conn != nullptr && !rt.object_done &&
        rt.object_conn->closed()) {
      return true;
    }
  }
  return false;
}

Time PresentationRuntime::playout_position() const {
  Time least = Time::zero();
  bool any = false;
  for (const StreamRuntime& rt : streams_) {
    if (rt.frame_interval <= Time::zero()) continue;
    const Time pos = scheduler_->content_position(rt.spec.id);
    if (!any || pos < least) least = pos;
    any = true;
  }
  return least;
}

}  // namespace hyms::client
