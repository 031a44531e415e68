#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "obs/json.hpp"

namespace csd::obs {

namespace {

Json event_base(const char* name, const char* ph, std::size_t pid) {
  Json event = Json::object();
  event.set("name", name);
  event.set("ph", ph);
  event.set("pid", static_cast<std::uint64_t>(pid));
  event.set("tid", std::uint64_t{0});
  return event;
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceInstance>& instances,
                        const ChromeTraceOptions& options) {
  Json events = Json::array();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const TraceInstance& instance = instances[i];

    Json name_meta = event_base("process_name", "M", i);
    Json name_args = Json::object();
    name_args.set("name", instance.label(i));
    name_meta.set("args", std::move(name_args));
    events.push(std::move(name_meta));

    // Phase spans: maximal runs of rounds sharing a phase name, broken at
    // segment boundaries so repetitions of an amplified run stay distinct.
    const auto is_segment_start = [&](std::uint64_t round) {
      return std::find(instance.segment_starts.begin(),
                       instance.segment_starts.end(),
                       round) != instance.segment_starts.end();
    };
    std::size_t r = 0;
    while (r < instance.rounds.size()) {
      if (!instance.rounds[r].phase) {
        ++r;
        continue;
      }
      const std::string& phase = *instance.rounds[r].phase;
      std::size_t end = r + 1;
      std::uint64_t messages = instance.rounds[r].messages;
      std::uint64_t bits = instance.rounds[r].bits;
      while (end < instance.rounds.size() &&
             instance.rounds[end].phase == phase &&
             !is_segment_start(instance.rounds[end].round)) {
        messages += instance.rounds[end].messages;
        bits += instance.rounds[end].bits;
        ++end;
      }
      Json span = event_base(phase.c_str(), "X", i);
      span.set("ts", instance.rounds[r].round);
      span.set("dur", static_cast<std::uint64_t>(end - r));
      Json args = Json::object();
      args.set("rounds", static_cast<std::uint64_t>(end - r));
      args.set("messages", messages);
      args.set("bits", bits);
      span.set("args", std::move(args));
      events.push(std::move(span));
      r = end;
    }

    if (instance.rounds.size() <= options.counter_round_cap) {
      for (const TraceInstance::Round& round : instance.rounds) {
        Json counter = event_base("traffic", "C", i);
        counter.set("ts", round.round);
        Json args = Json::object();
        args.set("bits", round.bits);
        args.set("messages", round.messages);
        counter.set("args", std::move(args));
        events.push(std::move(counter));
      }
    }
  }

  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  // 1 virtual microsecond == 1 CONGEST round (see header comment).
  doc.set("displayTimeUnit", "ms");
  doc.write(os, -1);
  os << '\n';
}

}  // namespace csd::obs
