// E7 — Fig. 5: the protocol stack split. Time-sensitive media ride RTP/UDP
// (timely but lossy); non-time-sensitive objects ride the TCP-like transport
// (complete but head-of-line blocked). This bench races the same 25 fps
// stream over both transports across a lossy link and reports the
// deadline-miss behaviour, plus the RTCP feedback overhead.

#include <cstdio>
#include <map>

#include "harness.hpp"
#include "net/loss.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "rtp/session.hpp"
#include "sim/simulator.hpp"

using namespace hyms;
using namespace hyms::bench;

namespace {

constexpr int kFrames = 750;  // 30 s at 25 fps
constexpr std::size_t kFrameBytes = 6000;
constexpr Time kInterval = Time::msec(40);
constexpr Time kWindow = Time::msec(500);  // playout delay budget

struct TransportResult {
  int delivered = 0;
  int on_time = 0;
  double mean_lateness_ms = 0.0;  // among late frames
};

net::LinkParams lossy_link(double loss) {
  net::LinkParams lp;
  lp.bandwidth_bps = 10e6;
  lp.propagation = Time::msec(10);
  lp.queue_capacity_bytes = 256 * 1024;
  if (loss > 0) lp.loss = std::make_shared<net::BernoulliLoss>(loss);
  return lp;
}

/// Frame k's playout deadline: stream epoch + window + k * interval.
Time deadline(int k) { return kWindow + kInterval * k; }

TransportResult run_rtp(double loss, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  const auto a = net.add_host("srv");
  const auto b = net.add_host("cli");
  net.connect(a, b, lossy_link(loss));

  TransportResult result;
  util::Sampler lateness;

  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rtp::RtpReceiver receiver(net, b, 0, net::Endpoint{}, rp);
  receiver.set_on_frame([&](const rtp::ReceivedFrame& frame) {
    ++result.delivered;
    const Time due = deadline(static_cast<int>(frame.media_time.us() /
                                               kInterval.us()));
    if (frame.arrival <= due) {
      ++result.on_time;
    } else {
      lateness.add((frame.arrival - due).to_ms());
    }
  });

  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.clock.clock_rate = 90'000;
  rtp::RtpSender sender(net, a, receiver.rtp_endpoint(), net::Endpoint{}, sp);
  for (int k = 0; k < kFrames; ++k) {
    sim.schedule_at(kInterval * k, [&, k] {
      sender.send_frame(std::vector<std::uint8_t>(kFrameBytes, 0x11),
                        kInterval * k);
    });
  }
  sim.run_until(Time::sec(60));
  result.mean_lateness_ms = lateness.mean();
  return result;
}

TransportResult run_tcp(double loss, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  const auto a = net.add_host("srv");
  const auto b = net.add_host("cli");
  net.connect(a, b, lossy_link(loss));

  TransportResult result;
  util::Sampler lateness;

  std::unique_ptr<net::StreamConnection> server_conn;
  std::vector<std::uint8_t> rx;
  net::StreamListener listener(
      net, b, 100, [&](std::unique_ptr<net::StreamConnection> c) {
        server_conn = std::move(c);
        server_conn->set_on_data([&](std::span<const std::uint8_t> chunk) {
          rx.insert(rx.end(), chunk.begin(), chunk.end());
          // Parse [u32 frame_index][u32 len][payload] records.
          std::size_t pos = 0;
          while (rx.size() - pos >= 8) {
            net::WireReader r(rx.data() + pos, rx.size() - pos);
            const std::uint32_t index = r.u32();
            const std::uint32_t len = r.u32();
            if (rx.size() - pos - 8 < len) break;
            pos += 8 + len;
            ++result.delivered;
            const Time due = deadline(static_cast<int>(index));
            if (sim.now() <= due) {
              ++result.on_time;
            } else {
              lateness.add((sim.now() - due).to_ms());
            }
          }
          if (pos > 0) {
            rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(pos));
          }
        });
      });

  auto client = net::StreamConnection::connect(net, a, net::Endpoint{b, 100});
  for (int k = 0; k < kFrames; ++k) {
    sim.schedule_at(kInterval * k, [&, k] {
      net::Payload record;
      net::WireWriter w(record);
      w.u32(static_cast<std::uint32_t>(k));
      w.u32(kFrameBytes);
      record.resize(record.size() + kFrameBytes, 0x22);
      client->send(record);
    });
  }
  sim.run_until(Time::sec(120));
  result.mean_lateness_ms = lateness.mean();
  return result;
}

void rtcp_overhead() {
  std::printf("\nE7b: RTCP feedback overhead vs media volume (30 s lecture,\n"
              "1 s report interval, clean link)\n\n");
  SessionParams params;
  params.markup = lecture_markup(30);
  const auto metrics = run_session(params);
  // A compound RR + APP("QOSM") report is ~110 bytes on the wire; the
  // lecture moves ~7 MB of media. Reports arrive once per second per stream.
  const double report_bytes = 110.0;
  const double reports =
      static_cast<double>(metrics.qos.reports);
  const double media_bytes = 30.0 * (1.2e6 + 0.7e6) / 8.0;
  table_header({"RTCP reports", "~feedback bytes", "media bytes",
                "overhead"});
  table_row({fmt(reports, 0), fmt(reports * report_bytes, 0),
             fmt(media_bytes, 0),
             fmt_pct(reports * report_bytes / media_bytes)});
}

}  // namespace

int main() {
  std::printf(
      "E7a: the same 25 fps / %.1f Mbps stream over RTP/UDP vs the TCP-like\n"
      "transport, 500 ms playout budget, Bernoulli loss sweep.\n"
      "usable = delivered before the playout deadline.\n\n",
      kFrameBytes * 8.0 * 25 / 1e6);
  table_header({"loss", "transport", "delivered", "usable", "usable%",
                "mean lateness ms"});
  for (const double loss : {0.0, 0.01, 0.02, 0.05, 0.10}) {
    const auto rtp = run_rtp(loss, 9);
    const auto tcp = run_tcp(loss, 9);
    table_row({fmt_pct(loss), "RTP/UDP", std::to_string(rtp.delivered),
               std::to_string(rtp.on_time),
               fmt_pct(static_cast<double>(rtp.on_time) / kFrames),
               fmt(rtp.mean_lateness_ms, 1)});
    table_row({"", "TCP-like", std::to_string(tcp.delivered),
               std::to_string(tcp.on_time),
               fmt_pct(static_cast<double>(tcp.on_time) / kFrames),
               fmt(tcp.mean_lateness_ms, 1)});
  }
  rtcp_overhead();
  std::printf(
      "\nPaper claim (Fig. 5): time-sensitive media use RTP because TCP's\n"
      "retransmission delays make frames miss their playout deadlines under\n"
      "loss (head-of-line blocking), while RTP sacrifices the lost frames\n"
      "and keeps the rest on time; TCP stays the right choice for the\n"
      "scenario text and images, which need completeness, not timeliness.\n");
  return 0;
}
