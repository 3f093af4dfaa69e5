#include <gtest/gtest.h>

#include "client/browser.hpp"
#include "hermes/deployment.hpp"
#include "hermes/sample_content.hpp"
#include "sim/simulator.hpp"

namespace hyms {
namespace {

using client::Browser;
using client::ClientState;

/// Multi-server navigation: links across servers suspend/resume sessions
/// (§5, §6.2.3), history supports backward navigation.
class BrowserTest : public ::testing::Test {
 protected:
  BrowserTest() : sim_(555) {
    hermes::Deployment::Config config;
    config.server_count = 2;
    config.server_template.suspend_keepalive = Time::sec(20);
    deployment_ = std::make_unique<hermes::Deployment>(sim_, config);

    // Server 1 hosts a lesson linking to a lesson on server 2.
    EXPECT_TRUE(deployment_->server(0)
                    .documents()
                    .add("unit-1", hermes::sequenced_lesson_markup(
                                       "unit-1", "unit-2", "hermes-2", 8.0))
                    .ok());
    EXPECT_TRUE(deployment_->server(1)
                    .documents()
                    .add("unit-2", hermes::sequenced_lesson_markup(
                                       "unit-2", "unit-1", "hermes-1", 8.0))
                    .ok());

    Browser::Config bc;
    browser_ = std::make_unique<Browser>(deployment_->network(),
                                         deployment_->client_node(0), bc);
    deployment_->fill_directory(*browser_);
  }

  sim::Simulator sim_;
  std::unique_ptr<hermes::Deployment> deployment_;
  std::unique_ptr<Browser> browser_;
};

TEST_F(BrowserTest, DirectoryListsServers) {
  EXPECT_EQ(browser_->known_servers(),
            (std::vector<std::string>{"hermes-1", "hermes-2"}));
}

TEST_F(BrowserTest, LoginAndOpenQueuesUntilBrowsing) {
  browser_->login("hermes-1", "alice", "secret-alice",
                  hermes::student_form("alice", "standard"));
  browser_->open_document("unit-1");  // still connecting: must queue
  sim_.run_until(Time::sec(4));
  ASSERT_NE(browser_->active(), nullptr);
  EXPECT_EQ(browser_->active()->state(), ClientState::kViewing)
      << browser_->active()->last_error();
  EXPECT_EQ(browser_->active()->current_document(), "unit-1");
  ASSERT_EQ(browser_->history().size(), 1u);
  EXPECT_EQ(browser_->history()[0].server, "hermes-1");
}

TEST_F(BrowserTest, CrossServerLinkSuspendsAndConnects) {
  browser_->login("hermes-1", "bob", "secret-bob",
                  hermes::student_form("bob", "standard"));
  browser_->open_document("unit-1");
  sim_.run_until(Time::sec(4));
  ASSERT_EQ(browser_->active()->state(), ClientState::kViewing);

  core::LinkSpec link;
  link.target_document = "unit-2";
  link.target_host = "hermes-2";
  browser_->follow_link(link);
  sim_.run_until(Time::sec(8));

  EXPECT_EQ(browser_->active_server(), "hermes-2");
  EXPECT_EQ(browser_->active()->state(), ClientState::kViewing)
      << browser_->active()->last_error();
  EXPECT_EQ(browser_->active()->current_document(), "unit-2");
  // The hermes-1 session is parked, not dead.
  ASSERT_NE(browser_->session("hermes-1"), nullptr);
  EXPECT_EQ(browser_->session("hermes-1")->state(), ClientState::kSuspended);
  EXPECT_EQ(deployment_->server(0).stats().suspends, 1);
  ASSERT_EQ(browser_->history().size(), 2u);
}

TEST_F(BrowserTest, BackNavigationResumesSuspendedSession) {
  browser_->login("hermes-1", "carol", "secret-carol",
                  hermes::student_form("carol", "standard"));
  browser_->open_document("unit-1");
  sim_.run_until(Time::sec(4));

  core::LinkSpec link;
  link.target_document = "unit-2";
  link.target_host = "hermes-2";
  browser_->follow_link(link);
  sim_.run_until(Time::sec(8));
  ASSERT_EQ(browser_->active_server(), "hermes-2");

  browser_->back();
  sim_.run_until(Time::sec(12));
  EXPECT_EQ(browser_->active_server(), "hermes-1");
  EXPECT_EQ(browser_->active()->state(), ClientState::kViewing)
      << browser_->active()->last_error();
  EXPECT_EQ(browser_->active()->current_document(), "unit-1");
  // Going back resumed the suspended session rather than re-subscribing.
  EXPECT_EQ(deployment_->server(0).stats().sessions_accepted, 1);
  // History keeps both visits; the cursor moved back to unit-1.
  ASSERT_EQ(browser_->history().size(), 2u);
  ASSERT_NE(browser_->current_visit(), nullptr);
  EXPECT_EQ(browser_->current_visit()->document, "unit-1");

  // Forward navigation returns to unit-2 on hermes-2.
  browser_->forward();
  sim_.run_until(Time::sec(16));
  EXPECT_EQ(browser_->active_server(), "hermes-2");
  EXPECT_EQ(browser_->active()->current_document(), "unit-2");
  EXPECT_EQ(browser_->current_visit()->document, "unit-2");
  EXPECT_EQ(browser_->history().size(), 2u);
}

TEST_F(BrowserTest, SameServerLinkNavigatesInPlace) {
  EXPECT_TRUE(deployment_->server(0)
                  .documents()
                  .add("unit-1b", hermes::intro_lesson_markup())
                  .ok());
  browser_->login("hermes-1", "dora", "secret-dora",
                  hermes::student_form("dora", "standard"));
  browser_->open_document("unit-1");
  sim_.run_until(Time::sec(4));

  core::LinkSpec link;
  link.target_document = "unit-1b";  // same host
  browser_->follow_link(link);
  sim_.run_until(Time::sec(8));
  EXPECT_EQ(browser_->active_server(), "hermes-1");
  EXPECT_EQ(browser_->active()->current_document(), "unit-1b");
  EXPECT_EQ(deployment_->server(0).stats().suspends, 0);
}

TEST_F(BrowserTest, TimedLinkDrivesAutoNavigation) {
  browser_->login("hermes-1", "evan", "secret-evan",
                  hermes::student_form("evan", "standard"));
  // Wire the timed-link hook to the browser (the "writer's way" sequencing).
  sim_.run_until(Time::sec(2));
  ASSERT_NE(browser_->active(), nullptr);
  browser_->active()->set_on_timed_link(
      [this](const core::LinkSpec& link) { browser_->follow_link(link); });
  browser_->open_document("unit-1");

  // unit-1's timed link fires 8s into the scenario and points at unit-2 on
  // hermes-2; by t=20 the browser should be viewing it.
  sim_.run_until(Time::sec(20));
  EXPECT_EQ(browser_->active_server(), "hermes-2");
  EXPECT_EQ(browser_->active()->current_document(), "unit-2");
}

TEST_F(BrowserTest, SessionDestroyedAsItsTimedLinkFiresIsNotCalledBack) {
  auto session = std::make_unique<client::BrowserSession>(
      deployment_->network(), deployment_->client_node(0),
      deployment_->server(0).control_endpoint(),
      client::BrowserSession::Config{});
  session->set_subscription_form(hermes::student_form("gus", "standard"));
  bool hook_ran = false;
  session->set_on_timed_link(
      [&hook_ran](const core::LinkSpec&) { hook_ran = true; });
  bool link_fired_first = false;
  session->set_on_viewing([&] {
    // Scheduled after the playout scheduler armed unit-1's timed link, so
    // at the link's instant this runs after the link fires and before the
    // session's deferred hook.
    auto& scheduler = session->presentation()->scheduler();
    const Time link_at = scheduler.presentation_epoch() +
                         *scheduler.scenario().links.at(0).at;
    sim_.schedule_at(link_at, [&] {
      link_fired_first =
          session->event_log().back().find("timed link fired") !=
          std::string::npos;
      session.reset();
    });
  });
  session->connect("gus", "secret-gus");
  session->queue_document("unit-1");

  sim_.run_until(Time::sec(20));  // the run goes on past the destruction
  EXPECT_EQ(session, nullptr);
  EXPECT_TRUE(link_fired_first);
  EXPECT_FALSE(hook_ran);
}

TEST_F(BrowserTest, LinkToUnknownServerIsIgnored) {
  browser_->login("hermes-1", "finn", "secret-finn",
                  hermes::student_form("finn", "standard"));
  browser_->open_document("unit-1");
  sim_.run_until(Time::sec(4));
  core::LinkSpec link;
  link.target_document = "x";
  link.target_host = "hermes-99";
  browser_->follow_link(link);
  sim_.run_until(Time::sec(6));
  EXPECT_EQ(browser_->active_server(), "hermes-1");
  EXPECT_EQ(browser_->active()->state(), ClientState::kViewing);
}

TEST(DirectoryTest, BrowserFetchesServerListFromDirectory) {
  sim::Simulator sim(12);
  hermes::Deployment::Config config;
  config.server_count = 2;
  config.with_directory = true;
  config.server_template.description = "general lessons";
  hermes::Deployment deployment(sim, config);
  ASSERT_NE(deployment.directory(), nullptr);
  EXPECT_EQ(deployment.directory()->size(), 2u);
  deployment.server(0).documents().add("intro",
                                       hermes::intro_lesson_markup());

  // The browser starts with an EMPTY directory and learns it over the wire.
  Browser::Config bc;
  Browser browser(deployment.network(), deployment.client_node(0), bc);
  EXPECT_TRUE(browser.known_servers().empty());
  browser.fetch_directory(deployment.directory()->endpoint());
  sim.run_until(Time::sec(1));
  ASSERT_TRUE(browser.directory_loaded());
  EXPECT_EQ(browser.known_servers(),
            (std::vector<std::string>{"hermes-1", "hermes-2"}));
  EXPECT_EQ(browser.server_description("hermes-1"), "general lessons");
  EXPECT_EQ(deployment.directory()->queries_served(), 1);

  // The fetched endpoints actually work: log in and view a lesson.
  browser.login("hermes-1", "dir-user", "secret-dir-user",
                hermes::student_form("dir-user", "basic"));
  browser.open_document("intro");
  sim.run_until(Time::sec(5));
  ASSERT_NE(browser.active(), nullptr);
  EXPECT_EQ(browser.active()->state(), ClientState::kViewing)
      << browser.active()->last_error();
}

}  // namespace
}  // namespace hyms
