// Micro-benchmarks of the substrates (google-benchmark): DES event
// throughput, media buffer operations, RTP/RTCP serialization, frame
// generation, the RTP receive and TCP bulk paths, and the end-to-end
// emulated packet path.
//
// `bench_micro --json` additionally writes the full results to
// BENCH_micro.json (google-benchmark's JSON schema), so the perf trajectory
// of the hot paths is machine-readable run over run.

#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "buffer/media_buffer.hpp"
#include "harness.hpp"
#include "media/frame.hpp"
#include "media/frame_cache.hpp"
#include "media/source.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"
#include "rtp/packets.hpp"
#include "rtp/session.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace hyms;

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(Time::usec(i), [&fired] { ++fired; });
    }
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEventThroughput)->Arg(1000)->Arg(100000);

void BM_SimulatorScheduleFire(benchmark::State& state) {
  // The kernel's end-to-end hot path: schedule n events and drain them, both
  // phases timed. The simulator lives across iterations — a streaming session
  // runs one kernel for millions of events, so the steady-state regime (slab
  // and heap storage warm, slots recycling through the free list) is the one
  // that matters. This is the headline events/sec number for the event kernel
  // (slab + SBO callback + lazy-delete heap).
  const int n = static_cast<int>(state.range(0));
  sim::Simulator sim;
  int fired = 0;
  for (auto _ : state) {
    const Time base = sim.now();
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(base + Time::usec(i % 1000), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleFire)->Arg(1000)->Arg(100000);

void BM_SimulatorScheduleCancel(benchmark::State& state) {
  // Schedule n events, cancel every one, then drain the (all-stale) heap —
  // the cost of timer churn, e.g. retransmit timers that almost never fire.
  const int n = static_cast<int>(state.range(0));
  std::vector<sim::EventId> ids(static_cast<std::size_t>(n));
  sim::Simulator sim;
  for (auto _ : state) {
    const Time base = sim.now();
    for (int i = 0; i < n; ++i) {
      ids[static_cast<std::size_t>(i)] =
          sim.schedule_at(base + Time::usec(i % 1000), [] {});
    }
    for (const auto id : ids) sim.cancel(id);
    sim.run();
    benchmark::DoNotOptimize(ids.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleCancel)->Arg(100000);

void BM_SimulatorTimerChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t ticks = 0;
    std::function<void()> tick = [&] {
      if (++ticks < state.range(0)) sim.schedule_after(Time::usec(10), tick);
    };
    sim.schedule_after(Time::usec(10), tick);
    sim.run();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorTimerChain)->Arg(10000);

void BM_MediaBufferPushPop(benchmark::State& state) {
  buffer::MediaBuffer::Config config;
  config.capacity_frames = 1 << 16;
  for (auto _ : state) {
    buffer::MediaBuffer buf("bench", config);
    for (std::int64_t k = 0; k < state.range(0); ++k) {
      buffer::BufferedFrame frame;
      frame.index = k;
      frame.duration = Time::msec(40);
      buf.push(std::move(frame));
    }
    while (buf.pop()) {
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_MediaBufferPushPop)->Arg(1024);

void BM_RtpSerializeParse(benchmark::State& state) {
  const std::vector<std::uint8_t> body(static_cast<std::size_t>(state.range(0)),
                                       0xAB);
  rtp::RtpPacket pkt;
  pkt.header.sequence = 1234;
  pkt.header.timestamp = 567890;
  pkt.header.ssrc = 42;
  pkt.payload = body;
  for (auto _ : state) {
    auto wire = rtp::serialize_rtp(pkt);
    auto parsed = rtp::parse_rtp(wire);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RtpSerializeParse)->Arg(200)->Arg(1400);

void BM_RtcpCompound(benchmark::State& state) {
  rtp::RtcpCompound compound;
  rtp::ReceiverReport rr;
  rr.ssrc = 1;
  rr.reports.push_back(rtp::ReportBlock{2, 10, 100, 5000, 33, 44, 55});
  compound.receiver_reports.push_back(rr);
  rtp::AppQos app;
  app.ssrc = 1;
  app.metrics = {{"buffer_ms", 480.0}, {"jitter_ms", 2.5}};
  compound.app_qos.push_back(app);
  for (auto _ : state) {
    auto wire = rtp::serialize_rtcp(compound);
    auto parsed = rtp::parse_rtcp(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_RtcpCompound);

void BM_FrameSynthesis(benchmark::State& state) {
  // The cost a cache miss pays (and every frame paid before the shared
  // cache): synthesize the payload bytes from scratch. Pairs with
  // BM_FrameCacheHit — their ratio is what a hit saves per frame.
  media::VideoProfile profile;
  media::VideoSource source("video:mpeg:bench", profile, Time::sec(60));
  std::int64_t k = 0;
  for (auto _ : state) {
    auto payload = source.synthesize_payload(k % source.frame_count(), 0);
    benchmark::DoNotOptimize(payload.data());
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(source.frame_bytes(0, 0)));
}
BENCHMARK(BM_FrameSynthesis);

void BM_FrameCacheHit(benchmark::State& state) {
  // Steady-state shared-cache hit: one mutex-guarded map lookup + LRU splice
  // + shared_ptr copy, zero synthesis, zero payload copies.
  media::VideoProfile profile;
  media::VideoSource source("video:mpeg:bench", profile, Time::sec(60));
  media::FrameCache cache;
  const std::int64_t frames = 64;  // warm working set, well under budget
  for (std::int64_t i = 0; i < frames; ++i) {
    auto warm = cache.get(source, i, 0);
    benchmark::DoNotOptimize(warm.get());
  }
  std::int64_t k = 0;
  for (auto _ : state) {
    auto payload = cache.get(source, k % frames, 0);
    benchmark::DoNotOptimize(payload.get());
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameCacheHit);

void BM_FrameVerify(benchmark::State& state) {
  // The one-buffer form: the fragment walker run over a single fragment.
  const auto payload = media::encode_frame_payload(1, 2, 0, 6000);
  for (auto _ : state) {
    auto meta = media::verify_frame_payload(payload);
    benchmark::DoNotOptimize(meta);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 6000);
}
BENCHMARK(BM_FrameVerify);

void BM_RtpReceivePath(benchmark::State& state) {
  // The RTP media path end to end, as a client runs it: 3-fragment frames
  // are packetized, cross a clean link, are reassembled in the wire buffers
  // they arrived in and verified in the frame callback. The session lives
  // across iterations, so pools and reassembly slots are warm. Items are
  // frames.
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkParams lp;
  lp.bandwidth_bps = 100e6;
  lp.queue_capacity_bytes = 1 << 20;
  net.connect(a, b, lp);
  rtp::RtpReceiver::Params rp;
  rp.rr_interval = Time::sec(3600);
  rtp::RtpReceiver receiver(net, b, 0, net::Endpoint{}, rp);
  std::int64_t verified = 0;
  receiver.set_on_frame([&](const rtp::ReceivedFrame& f) {
    if (media::verify_frame_payload(f.fragments)) ++verified;
  });
  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.sr_interval = Time::sec(3600);
  rtp::RtpSender sender(net, a, receiver.rtp_endpoint(), net::Endpoint{}, sp);
  const auto frame = media::encode_frame_payload(1, 2, 0, 3 * sp.max_payload);
  constexpr int kFrames = 100;
  std::int64_t sent = 0;
  for (auto _ : state) {
    for (int k = 0; k < kFrames; ++k) {
      sender.send_frame(frame, Time::msec(40 * sent++));
      sim.run_until(sim.now() + Time::msec(1));
    }
    sim.run_until(sim.now() + Time::msec(50));
    benchmark::DoNotOptimize(verified);
  }
  if (verified != sent) state.SkipWithError("a frame failed verification");
  state.SetItemsProcessed(state.iterations() * kFrames);
}
BENCHMARK(BM_RtpReceivePath);

void BM_TcpBulkTransfer(benchmark::State& state) {
  // The reliable transport's bulk path: 100 KB per iteration over one
  // connection on a clean link. Segments are encoded from the send buffer
  // into pooled wire buffers and checksummed at both ends. The connection
  // lives across iterations, so its window is open, as in the steady state
  // of a large object fetch.
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkParams lp;
  lp.bandwidth_bps = 100e6;
  lp.queue_capacity_bytes = 1 << 20;
  net.connect(a, b, lp);
  std::unique_ptr<net::StreamConnection> server;
  std::int64_t received = 0;
  net::StreamListener listener(
      net, b, 100, [&](std::unique_ptr<net::StreamConnection> conn) {
        server = std::move(conn);
        server->set_on_data([&](std::span<const std::uint8_t> bytes) {
          received += static_cast<std::int64_t>(bytes.size());
        });
      });
  auto client = net::StreamConnection::connect(net, a, net::Endpoint{b, 100});
  sim.run();  // the handshake
  const std::vector<std::uint8_t> data(100 * 1024, 0x5A);
  for (auto _ : state) {
    client->send(data);
    sim.run();
    benchmark::DoNotOptimize(received);
  }
  const auto bytes = static_cast<std::int64_t>(state.iterations()) *
                     static_cast<std::int64_t>(data.size());
  if (received != bytes) state.SkipWithError("bytes were lost");
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_TcpBulkTransfer);

void BM_EmulatedPacketPath(benchmark::State& state) {
  // Cost of pushing one datagram through a 3-hop emulated path, including
  // all simulator events.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    net::Network net(sim);
    const auto a = net.add_host("a");
    const auto r = net.add_router("r");
    const auto b = net.add_host("b");
    net::LinkParams lp;
    net.connect(a, r, lp);
    net.connect(r, b, lp);
    int received = 0;
    net.bind(b, 50, [&](const net::Packet&) { ++received; });
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      net.send(net::Endpoint{a, 1}, net::Endpoint{b, 50},
               net::Payload(1000, 0));
    }
    sim.run();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EmulatedPacketPath);

void BM_PacketForwardingSteadyState(benchmark::State& state) {
  // Steady-state per-packet cost on a 3-hop path: the topology lives across
  // iterations, so route tables are warm and the payload pool is primed —
  // the regime a long-lived streaming session runs in.
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto r = net.add_router("r");
  const auto b = net.add_host("b");
  net::LinkParams lp;
  lp.queue_capacity_bytes = 1 << 20;
  net.connect(a, r, lp);
  net.connect(r, b, lp);
  std::int64_t received = 0;
  net.bind(b, 50, [&](const net::Packet&) { ++received; });
  const std::size_t payload_bytes = 1000;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      auto buf = net.payload_pool().acquire(payload_bytes);
      buf.resize(payload_bytes);
      net.send(net::Endpoint{a, 1}, net::Endpoint{b, 50}, std::move(buf));
    }
    sim.run();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PacketForwardingSteadyState);

void BM_PacketForwardingUnbatched(benchmark::State& state) {
  // The reference per-packet path (LinkParams::batching = false): two
  // scheduled events per packet per hop. The ratio of
  // BM_PacketForwardingSteadyState to this benchmark is the batching win on
  // the forwarding path (the ISSUE's >= 1.5x acceptance bar).
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto r = net.add_router("r");
  const auto b = net.add_host("b");
  net::LinkParams lp;
  lp.queue_capacity_bytes = 1 << 20;
  lp.batching = false;
  net.connect(a, r, lp);
  net.connect(r, b, lp);
  std::int64_t received = 0;
  net.bind(b, 50, [&](const net::Packet&) { ++received; });
  const std::size_t payload_bytes = 1000;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      auto buf = net.payload_pool().acquire(payload_bytes);
      buf.resize(payload_bytes);
      net.send(net::Endpoint{a, 1}, net::Endpoint{b, 50}, std::move(buf));
    }
    sim.run();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PacketForwardingUnbatched);

void BM_PacketTrainForwarding(benchmark::State& state) {
  // The batched fast path end to end: frames fragment into 8-packet trains
  // submitted whole (send_train), so each burst costs ~one chained arrival
  // event per link instead of 16 scheduled events.
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto r = net.add_router("r");
  const auto b = net.add_host("b");
  net::LinkParams lp;
  lp.queue_capacity_bytes = 1 << 20;
  net.connect(a, r, lp);
  net.connect(r, b, lp);
  std::int64_t received = 0;
  net.bind(b, 50, [&](const net::Packet&) { ++received; });
  const std::size_t payload_bytes = 1000;
  std::vector<net::Payload> train;
  for (auto _ : state) {
    for (int burst = 0; burst < 125; ++burst) {
      for (int i = 0; i < 8; ++i) {
        auto buf = net.payload_pool().acquire(payload_bytes);
        buf.resize(payload_bytes);
        train.push_back(std::move(buf));
      }
      net.send_train(net::Endpoint{a, 1}, net::Endpoint{b, 50}, train);
    }
    sim.run();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PacketTrainForwarding);

void BM_PacketForwardingTelemetryOn(benchmark::State& state) {
  // The same steady-state path with a telemetry hub installed and tracing
  // enabled: the delta against BM_PacketForwardingSteadyState is the price
  // of a fully instrumented run (queue-depth counters on every link event).
  // The no-hub case must stay within 3% of the pre-telemetry baseline —
  // tools/check_telemetry_overhead.py enforces that from BENCH_micro.json.
  sim::Simulator sim;
  telemetry::Hub hub;
  hub.set_tracing(true);
  sim.set_telemetry(&hub);
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto r = net.add_router("r");
  const auto b = net.add_host("b");
  net::LinkParams lp;
  lp.queue_capacity_bytes = 1 << 20;
  net.connect(a, r, lp);
  net.connect(r, b, lp);
  std::int64_t received = 0;
  net.bind(b, 50, [&](const net::Packet&) { ++received; });
  const std::size_t payload_bytes = 1000;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      auto buf = net.payload_pool().acquire(payload_bytes);
      buf.resize(payload_bytes);
      net.send(net::Endpoint{a, 1}, net::Endpoint{b, 50}, std::move(buf));
    }
    sim.run();
    benchmark::DoNotOptimize(received);
    // Keep the record vector from growing without bound across iterations;
    // records are trivially destructible so this is O(1).
    hub.tracer().reset();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PacketForwardingTelemetryOn);

void BM_TracerInstant(benchmark::State& state) {
  // One interned-id trace record: a 24-byte push_back behind the enabled
  // branch. Reset once the vector fills so memory stays bounded.
  telemetry::SpanTracer tracer;
  const auto track = tracer.track("bench");
  const auto name = tracer.name("event");
  std::int64_t ts = 0;
  for (auto _ : state) {
    tracer.instant(track, name, Time::usec(ts++), 1.0);
    if (tracer.record_count() >= (1u << 20)) tracer.reset();
  }
  benchmark::DoNotOptimize(tracer);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerInstant);

void BM_SessionLifecycle(benchmark::State& state) {
  // A complete short client-server session with NO telemetry hub: every
  // QoE/flight-recorder/tracing site along the session lifecycle (connect,
  // admission, stream setup, pacing, playout, seal) is one null-check
  // branch. Guarded against the committed baseline by
  // tools/check_telemetry_overhead.py at the same <=3% budget as the
  // packet path.
  bench::SessionParams params;
  params.markup = bench::lecture_markup(2);
  params.seed = 5;
  params.run_for = Time::sec(6);
  for (auto _ : state) {
    const auto metrics = bench::run_session(params);
    benchmark::DoNotOptimize(metrics);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionLifecycle);

void BM_SessionLifecycleQoeOn(benchmark::State& state) {
  // The same session with a hub installed and QoE collection on (tracing
  // off): the delta against BM_SessionLifecycle is the price of the QoE
  // plane + flight recorder — per-session records, playout accounting
  // fold-in, ring events on state transitions, and the terminal seal.
  bench::SessionParams params;
  params.markup = bench::lecture_markup(2);
  params.seed = 5;
  params.run_for = Time::sec(6);
  params.collect_qoe = true;
  for (auto _ : state) {
    const auto metrics = bench::run_session(params);
    benchmark::DoNotOptimize(metrics);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionLifecycleQoeOn);

}  // namespace

int main(int argc, char** argv) {
  // `--json` mirrors the run into BENCH_micro.json via google-benchmark's
  // JSON reporter, over 5 repetitions: the file keeps every repetition plus
  // each benchmark's mean, median, stddev and CV, which the regression
  // gates compare (medians) and report (CV). The console shows the
  // aggregates. These go in ahead of the caller's flags, so an explicit
  // --benchmark_repetitions still wins; all other flags pass through.
  std::vector<char*> args(argv, argv + argc);
  bool json = false;
  for (auto it = args.begin(); it != args.end();) {
    if (std::string_view(*it) == "--json") {
      json = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string out_fmt_flag = "--benchmark_out_format=json";
  std::string reps_flag = "--benchmark_repetitions=5";
  std::string display_flag = "--benchmark_display_aggregates_only=true";
  if (json) {
    args.insert(args.begin() + 1, {out_flag.data(), out_fmt_flag.data(),
                                   reps_flag.data(), display_flag.data()});
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  // Debug builds are not comparable to the committed Release baselines:
  // warn loudly and tag the JSON so a stray regeneration is identifiable.
  hyms::bench::warn_if_debug_build("bench_micro");
  benchmark::AddCustomContext(
      "assertions",
      hyms::bench::built_with_assertions() ? "enabled" : "disabled");
  // google-benchmark emits host_name/num_cpus on its own; record the exact
  // hardware_concurrency alongside so every BENCH_*.json carries the same
  // parallel-capability fields.
  benchmark::AddCustomContext(
      "hardware_concurrency",
      std::to_string(hyms::bench::hardware_threads()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
