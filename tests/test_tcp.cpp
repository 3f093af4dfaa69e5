#include <gtest/gtest.h>

#include <numeric>

#include "net/loss.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"
#include "sim/simulator.hpp"

namespace hyms {
namespace {

class TcpFixture : public ::testing::Test {
 protected:
  TcpFixture() : sim_(99), net_(sim_) {
    a_ = net_.add_host("a");
    b_ = net_.add_host("b");
  }

  void link(double loss_p = 0.0, double bw = 10e6) {
    net::LinkParams lp;
    lp.bandwidth_bps = bw;
    lp.propagation = Time::msec(10);
    lp.queue_capacity_bytes = 256 * 1024;
    if (loss_p > 0) lp.loss = std::make_shared<net::BernoulliLoss>(loss_p);
    net_.connect(a_, b_, lp);
  }

  /// Listener capturing the accepted server-side connection + data.
  struct Server {
    std::unique_ptr<net::StreamListener> listener;
    std::unique_ptr<net::StreamConnection> conn;
    std::vector<std::uint8_t> received;
    bool closed = false;
  };

  Server serve(net::Port port) {
    Server server;
    server.listener = std::make_unique<net::StreamListener>(
        net_, b_, port, [&server](std::unique_ptr<net::StreamConnection> c) {
          server.conn = std::move(c);
          server.conn->set_on_data([&server](std::span<const std::uint8_t> d) {
            server.received.insert(server.received.end(), d.begin(), d.end());
          });
          server.conn->set_on_close([&server] { server.closed = true; });
        });
    return server;
  }

  std::vector<std::uint8_t> pattern(std::size_t n) {
    std::vector<std::uint8_t> data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    return data;
  }

  sim::Simulator sim_;
  net::Network net_;
  net::NodeId a_, b_;
};

TEST_F(TcpFixture, HandshakeEstablishesBothSides) {
  link();
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  bool connected = false;
  client->set_on_connect([&] { connected = true; });
  sim_.run_until(Time::sec(1));
  EXPECT_TRUE(connected);
  EXPECT_TRUE(client->established());
  ASSERT_NE(server.conn, nullptr);
  EXPECT_TRUE(server.conn->established());
}

TEST_F(TcpFixture, SmallTransferIntact) {
  link();
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  const auto data = pattern(100);
  client->send(data);
  sim_.run_until(Time::sec(1));
  EXPECT_EQ(server.received, data);
}

TEST_F(TcpFixture, SendBeforeEstablishedIsQueued) {
  link();
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  const auto data = pattern(5000);
  client->send(data);  // still in SYN_SENT
  sim_.run_until(Time::sec(2));
  EXPECT_EQ(server.received, data);
}

TEST_F(TcpFixture, LargeTransferIntactOnCleanLink) {
  link();
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  const auto data = pattern(500'000);
  client->send(data);
  sim_.run_until(Time::sec(30));
  ASSERT_EQ(server.received.size(), data.size());
  EXPECT_EQ(server.received, data);
  EXPECT_EQ(client->stats().retransmissions, 0);
}

/// A connection that goes idle still takes its armed RTO event, but with
/// nothing outstanding that event is no timeout: a loss-free transfer reads
/// none at either end.
TEST_F(TcpFixture, CleanTransferCountsNoTimeouts) {
  link();
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  const auto data = pattern(10'000);
  client->send(data);
  sim_.run_until(Time::sec(5));
  ASSERT_EQ(server.received, data);
  ASSERT_NE(server.conn, nullptr);
  EXPECT_EQ(client->stats().retransmissions, 0);
  EXPECT_EQ(client->stats().timeouts, 0);
  EXPECT_EQ(server.conn->stats().timeouts, 0);
}

// The transport's core promise as a property: any loss rate, exact bytes.
class TcpLossTransfer : public TcpFixture,
                        public ::testing::WithParamInterface<double> {};

TEST_P(TcpLossTransfer, TransfersExactlyDespiteLoss) {
  link(GetParam());
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  const auto data = pattern(120'000);
  client->send(data);
  sim_.run_until(Time::sec(120));
  ASSERT_EQ(server.received.size(), data.size());
  EXPECT_EQ(server.received, data);
  if (GetParam() > 0.0) {
    EXPECT_GT(client->stats().retransmissions, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(LossSweep, TcpLossTransfer,
                         ::testing::Values(0.0, 0.005, 0.02, 0.05, 0.10));

TEST_F(TcpFixture, BidirectionalTransfer) {
  link();
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  std::vector<std::uint8_t> client_received;
  client->set_on_data([&](std::span<const std::uint8_t> d) {
    client_received.insert(client_received.end(), d.begin(), d.end());
  });
  const auto up = pattern(20'000);
  client->send(up);
  sim_.run_until(Time::sec(1));
  ASSERT_NE(server.conn, nullptr);
  const auto down = pattern(30'000);
  server.conn->send(down);
  sim_.run_until(Time::sec(10));
  EXPECT_EQ(server.received, up);
  EXPECT_EQ(client_received, down);
}

TEST_F(TcpFixture, RttEstimateTracksPathRtt) {
  link();
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  for (int i = 0; i < 20; ++i) {
    sim_.schedule_at(Time::msec(100 * i),
                     [&client, this] { client->send(pattern(500)); });
  }
  sim_.run_until(Time::sec(5));
  // Path RTT ~20ms + serialization.
  EXPECT_GT(client->stats().srtt_ms, 15.0);
  EXPECT_LT(client->stats().srtt_ms, 40.0);
}

TEST_F(TcpFixture, GracefulCloseActiveSide) {
  link();
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  bool client_closed = false;
  client->set_on_close([&] { client_closed = true; });
  client->send(pattern(1000));
  sim_.run_until(Time::sec(1));
  client->close();
  sim_.run_until(Time::sec(5));
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(client->closed());
  EXPECT_TRUE(server.closed);
  ASSERT_NE(server.conn, nullptr);
  EXPECT_TRUE(server.conn->closed());
  EXPECT_EQ(server.received.size(), 1000u);
}

TEST_F(TcpFixture, CloseFlushesPendingData) {
  link();
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  const auto data = pattern(200'000);
  client->send(data);
  client->close();  // immediately after queuing: all bytes must still arrive
  sim_.run_until(Time::sec(60));
  EXPECT_EQ(server.received, data);
  EXPECT_TRUE(client->closed());
}

TEST_F(TcpFixture, CloseUnderLossCompletes) {
  link(0.05);
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  client->send(pattern(50'000));
  client->close();
  sim_.run_until(Time::sec(120));
  EXPECT_EQ(server.received.size(), 50'000u);
  EXPECT_TRUE(client->closed());
  EXPECT_TRUE(server.closed);
}

TEST_F(TcpFixture, AbortTearsDownImmediately) {
  link();
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  sim_.run_until(Time::sec(1));
  client->abort();
  EXPECT_TRUE(client->closed());
}

TEST_F(TcpFixture, ConnectToNothingTimesOut) {
  link();
  net::TcpParams params;
  params.max_syn_retries = 2;
  params.initial_rto = Time::msec(100);
  auto client = net::StreamConnection::connect(net_, a_,
                                               net::Endpoint{b_, 4242}, params);
  bool closed = false;
  client->set_on_close([&] { closed = true; });
  sim_.run_until(Time::sec(10));
  EXPECT_TRUE(closed);
  EXPECT_TRUE(client->closed());
  // Every SYN timeout counts: two retries, then the one that gives up.
  EXPECT_EQ(client->stats().timeouts, 3);
}

TEST_F(TcpFixture, FastRetransmitTriggersOnIsolatedLoss) {
  link(0.02);
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  client->send(pattern(400'000));
  sim_.run_until(Time::sec(120));
  EXPECT_EQ(server.received.size(), 400'000u);
  EXPECT_GT(client->stats().fast_retransmits, 0);
}

TEST_F(TcpFixture, ThroughputReasonableOnCleanLink) {
  link(0.0, 8e6);
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  const std::size_t size = 1'000'000;
  client->send(pattern(size));
  Time done;
  // Poll for completion.
  std::function<void()> poll = [&] {
    if (server.received.size() == size) {
      done = sim_.now();
      return;
    }
    sim_.schedule_after(Time::msec(50), poll);
  };
  sim_.schedule_after(Time::msec(50), poll);
  sim_.run_until(Time::sec(60));
  ASSERT_EQ(server.received.size(), size);
  const double goodput = size * 8 / done.to_seconds();
  // Slow start + AIMD should still reach a healthy share of 8 Mbps.
  EXPECT_GT(goodput, 3e6);
}

TEST_F(TcpFixture, TwoListenersIndependent) {
  link();
  auto s1 = serve(100);
  auto s2 = serve(200);
  auto c1 = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  auto c2 = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 200});
  c1->send(pattern(100));
  c2->send(pattern(200));
  sim_.run_until(Time::sec(2));
  EXPECT_EQ(s1.received.size(), 100u);
  EXPECT_EQ(s2.received.size(), 200u);
}

TEST_F(TcpFixture, SequentialConnectionsToSameListener) {
  link();
  std::vector<std::unique_ptr<net::StreamConnection>> accepted;
  std::vector<std::size_t> sizes;
  net::StreamListener listener(
      net_, b_, 100, [&](std::unique_ptr<net::StreamConnection> c) {
        auto* raw = c.get();
        sizes.push_back(0);
        const std::size_t idx = sizes.size() - 1;
        raw->set_on_data([&sizes, idx](std::span<const std::uint8_t> d) {
          sizes[idx] += d.size();
        });
        accepted.push_back(std::move(c));
      });
  auto c1 = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  auto c2 = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  c1->send(pattern(111));
  c2->send(pattern(222));
  sim_.run_until(Time::sec(2));
  ASSERT_EQ(accepted.size(), 2u);
  EXPECT_EQ(sizes[0] + sizes[1], 333u);
}

// --- MessageChannel ---------------------------------------------------------------

TEST_F(TcpFixture, MessageChannelFramesSurviveSegmentation) {
  link();
  std::unique_ptr<net::StreamConnection> server_conn;
  std::unique_ptr<net::MessageChannel> server_chan;
  std::vector<std::vector<std::uint8_t>> got;
  net::StreamListener listener(
      net_, b_, 100, [&](std::unique_ptr<net::StreamConnection> c) {
        server_conn = std::move(c);
        server_chan = std::make_unique<net::MessageChannel>(*server_conn);
        server_chan->set_on_message(
            [&](std::vector<std::uint8_t> m) { got.push_back(std::move(m)); });
      });
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  net::MessageChannel chan(*client);

  // Mix of tiny and multi-MSS messages back to back.
  std::vector<std::vector<std::uint8_t>> sent;
  for (std::size_t n : {1u, 10u, 1400u, 1401u, 9000u, 3u, 40000u}) {
    sent.push_back(pattern(n));
    chan.send_message(sent.back());
  }
  sim_.run_until(Time::sec(10));
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i], sent[i]) << "message " << i;
  }
}

TEST_F(TcpFixture, MessageChannelUnderLoss) {
  link(0.03);
  std::unique_ptr<net::StreamConnection> server_conn;
  std::unique_ptr<net::MessageChannel> server_chan;
  int got = 0;
  net::StreamListener listener(
      net_, b_, 100, [&](std::unique_ptr<net::StreamConnection> c) {
        server_conn = std::move(c);
        server_chan = std::make_unique<net::MessageChannel>(*server_conn);
        server_chan->set_on_message([&](std::vector<std::uint8_t>) { ++got; });
      });
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  net::MessageChannel chan(*client);
  for (int i = 0; i < 50; ++i) chan.send_message(pattern(2000));
  sim_.run_until(Time::sec(120));
  EXPECT_EQ(got, 50);
}

// --- outage behaviour (fault-injection satellite) --------------------------------

TEST_F(TcpFixture, ConnectTimeoutHasTypedCloseReason) {
  link();
  net::TcpParams params;
  params.max_syn_retries = 2;
  params.initial_rto = Time::msec(100);
  auto client = net::StreamConnection::connect(net_, a_,
                                               net::Endpoint{b_, 4242}, params);
  sim_.run_until(Time::sec(10));
  ASSERT_TRUE(client->closed());
  EXPECT_EQ(client->close_reason(), net::CloseReason::kConnectTimeout);
  EXPECT_STREQ(net::to_string(client->close_reason()), "connect_timeout");
}

TEST_F(TcpFixture, RtoBackoffClampsAtMax) {
  link();
  auto server = serve(100);
  net::TcpParams params;
  params.initial_rto = Time::msec(500);
  params.max_rto = Time::sec(2);
  params.max_retransmits = 20;
  auto client = net::StreamConnection::connect(net_, a_,
                                               net::Endpoint{b_, 100}, params);
  sim_.run_until(Time::sec(1));
  ASSERT_TRUE(client->established());

  // Sever the path and keep sending: every retransmission doubles the RTO,
  // but never past max_rto.
  net_.find_link(a_, b_)->set_up(false);
  net_.find_link(b_, a_)->set_up(false);
  client->send(pattern(5000));
  Time max_seen = Time::zero();
  for (int i = 0; i < 30; ++i) {
    sim_.run_until(sim_.now() + Time::sec(1));
    if (client->closed()) break;
    max_seen = std::max(max_seen, client->current_rto());
  }
  EXPECT_EQ(max_seen, Time::sec(2));
}

TEST_F(TcpFixture, SurvivesOutageShorterThanRetryBudget) {
  link();
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  sim_.run_until(Time::sec(1));
  ASSERT_TRUE(client->established());
  client->send(pattern(50'000));
  sim_.run_until(Time::msec(1050));

  // A flap mid-transfer: retransmission timers keep probing and the transfer
  // completes exactly once the path heals.
  net_.find_link(a_, b_)->set_up(false);
  net_.find_link(b_, a_)->set_up(false);
  sim_.run_until(Time::sec(4));
  EXPECT_FALSE(client->closed());
  net_.find_link(a_, b_)->set_up(true);
  net_.find_link(b_, a_)->set_up(true);
  sim_.run_until(Time::sec(60));
  EXPECT_FALSE(client->closed());
  EXPECT_EQ(server.received.size(), 50'000u);
  EXPECT_EQ(server.received, pattern(50'000));
  EXPECT_GT(client->stats().timeouts, 0);
}

TEST_F(TcpFixture, OutagePastRetryBudgetClosesWithRetransmitTimeout) {
  link();
  auto server = serve(100);
  net::TcpParams params;
  params.initial_rto = Time::msec(200);
  params.max_rto = Time::sec(1);
  params.max_retransmits = 4;
  auto client = net::StreamConnection::connect(net_, a_,
                                               net::Endpoint{b_, 100}, params);
  sim_.run_until(Time::sec(1));
  ASSERT_TRUE(client->established());

  net_.find_link(a_, b_)->set_up(false);
  net_.find_link(b_, a_)->set_up(false);
  client->send(pattern(5000));
  bool closed_cb = false;
  client->set_on_close([&] { closed_cb = true; });
  sim_.run_until(Time::sec(60));
  EXPECT_TRUE(closed_cb);
  ASSERT_TRUE(client->closed());
  EXPECT_EQ(client->close_reason(), net::CloseReason::kRetransmitTimeout);
  EXPECT_STREQ(net::to_string(client->close_reason()), "retransmit_timeout");
}

TEST_F(TcpFixture, GracefulCloseReasonIsTyped) {
  link();
  auto server = serve(100);
  auto client = net::StreamConnection::connect(net_, a_, net::Endpoint{b_, 100});
  sim_.run_until(Time::sec(1));
  client->close();
  sim_.run_until(Time::sec(5));
  ASSERT_TRUE(client->closed());
  EXPECT_EQ(client->close_reason(), net::CloseReason::kGraceful);
  client->abort();  // abort after close does not overwrite the reason
  EXPECT_EQ(client->close_reason(), net::CloseReason::kGraceful);
}

}  // namespace
}  // namespace hyms
