// E2 — Fig. 2: the paper's example scenario plays out at its authored
// instants. Prints the authored schedule vs the measured playout times over a
// clean network, plus an ASCII timeline like the figure's lower half.
//
// `--events` dumps the raw per-event CSV instead (the byte-identical
// regression surface for refactors of the playout path); `--json` mirrors
// the per-stream results into BENCH_scenario_playout.json. `--trace FILE`
// writes a Chrome/Perfetto trace of the whole run (open in ui.perfetto.dev)
// and `--metrics FILE` the final metrics snapshot as CSV.

#include <cstdio>
#include <string>

#include "client/browser_session.hpp"
#include "harness.hpp"
#include "hermes/deployment.hpp"
#include "hermes/sample_content.hpp"
#include "sim/simulator.hpp"

using namespace hyms;

int main(int argc, char** argv) {
  bool json = false;
  bool events_only = false;
  std::string trace_file;
  std::string metrics_file;
  bench::Cli("bench_scenario_playout")
      .toggle("--events", events_only)
      .toggle("--json", json)
      .value("--trace", "FILE", trace_file)
      .value("--metrics", "FILE", metrics_file)
      .parse(argc, argv);
  if (!events_only) {
    std::printf(
        "E2: Fig. 2 scenario playout over a clean 10 Mbps access link\n\n");
  }

  sim::Simulator sim(42);
  bench::RunTelemetry run_telemetry(sim, trace_file, metrics_file, false);
  hermes::Deployment deployment(sim, hermes::Deployment::Config{});
  deployment.server(0).documents().add("fig2", hermes::fig2_lesson_markup());

  client::BrowserSession::Config bc;
  bc.presentation.record_events = true;
  bc.presentation.time_window = Time::msec(500);
  client::BrowserSession session(deployment.network(),
                                 deployment.client_node(0),
                                 deployment.server(0).control_endpoint(), bc);
  session.set_subscription_form(hermes::student_form("fig2", "standard"));
  session.connect("fig2", "secret-fig2");
  sim.run_until(Time::sec(1));
  session.request_document("fig2");
  sim.run_until(Time::sec(20));

  if (session.presentation() == nullptr) {
    std::fprintf(stderr, "run failed: %s\n", session.last_error().c_str());
    return 1;
  }
  auto& runtime = *session.presentation();
  const auto& trace = runtime.trace();
  const Time epoch = runtime.scheduler().presentation_epoch();

  run_telemetry.finish(deployment, session);

  if (events_only) {
    std::fputs(trace.events_csv().c_str(), stdout);
    return 0;
  }

  if (json) {
    std::string out = bench::json_context("bench_scenario_playout");
    bench::jsonf(out,
                 ",\n"
                 "    \"threads\": 1\n"
                 "  },\n"
                 "  \"max_skew_ms\": %.3f,\n"
                 "  \"finished\": %s,\n"
                 "  \"streams\": [\n",
                 trace.max_abs_skew_ms(),
                 runtime.scheduler().finished() ? "true" : "false");
    const auto& specs = runtime.scenario().streams;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& spec = specs[i];
      const auto& stats = trace.stream(spec.id);
      bench::jsonf(
          out,
          "    {\"stream\": \"%s\", \"type\": \"%s\", "
          "\"authored_start_s\": %.3f, \"measured_start_s\": %.3f, "
          "\"measured_end_s\": %.3f, \"fresh_ratio\": %.4f}%s\n",
          spec.id.c_str(), media::to_string(spec.type).c_str(),
          spec.start.to_seconds(),
          (stats.first_play - epoch).to_seconds(),
          (stats.last_play - epoch).to_seconds(), stats.fresh_ratio(),
          i + 1 < specs.size() ? "," : "");
    }
    out += "  ]\n}\n";
    if (!bench::write_file("BENCH_scenario_playout.json", out)) return 1;
  }

  bench::table_header({"stream", "type", "authored start", "authored end",
                       "measured start", "measured end", "fresh%"});
  for (const auto& spec : runtime.scenario().streams) {
    const auto& stats = trace.stream(spec.id);
    const Time end =
        spec.duration ? spec.start + *spec.duration : Time::zero();
    const bool one_shot = spec.type == media::MediaType::kImage ||
                          spec.type == media::MediaType::kText;
    bench::table_row(
        {spec.id, media::to_string(spec.type),
         bench::fmt(spec.start.to_seconds(), 2) + "s",
         spec.duration ? bench::fmt(end.to_seconds(), 2) + "s" : "-",
         bench::fmt((stats.first_play - epoch).to_seconds(), 2) + "s",
         one_shot ? "-"  // one object; it stays on display until its end
                  : bench::fmt((stats.last_play - epoch).to_seconds(), 2) + "s",
         bench::fmt_pct(stats.fresh_ratio())});
  }

  std::printf("\nTimeline (scenario seconds; # = playing):\n");
  const int total_s =
      static_cast<int>(runtime.scenario().total_duration().to_seconds());
  std::printf("%-6s", "");
  for (int s = 0; s <= total_s; ++s) std::printf("%-2d", s % 10);
  std::printf("\n");
  for (const auto& spec : runtime.scenario().streams) {
    const auto& stats = trace.stream(spec.id);
    const double from = (stats.first_play - epoch).to_seconds();
    const double to = (stats.last_play - epoch).to_seconds();
    std::printf("%-6s", spec.id.c_str());
    for (int s = 0; s <= total_s; ++s) {
      const bool on = s + 0.5 >= from && s + 0.5 <= to + 0.5;
      std::printf("%-2s", on ? "#" : ".");
    }
    std::printf("\n");
  }

  std::printf("\nintermedia skew (A1/V sync pair): max %.1f ms\n",
              trace.max_abs_skew_ms());
  std::printf("presentation finished: %s\n",
              runtime.scheduler().finished() ? "yes" : "NO");
  std::printf("\nPaper claim: each media starts at its STARTIME and plays for"
              " its DURATION,\nwith the AU_VI pair in lip sync — measured"
              " starts match authored starts\n(constant initial-delay offset"
              " removed) and skew stays in the tens of ms.\n");
  return 0;
}
