#include "support/stats.hpp"

#include <cstdio>
#include <fstream>

namespace pods {

void Summary::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  sum_ += x;
  ++n_;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
      continue;
    }
    out.push_back(ch);
  }
  return out;
}

bool writeStatsJson(const std::string& path, const std::string& engine,
                    int pes, double timeMs, const Counters& counters,
                    double wallSeconds, std::uint64_t events) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"engine\": \"" << jsonEscape(engine) << "\",\n"
    << "  \"pes\": " << pes << ",\n"
    << "  \"time_ms\": " << timeMs << ",\n";
  if (wallSeconds > 0.0) {
    f << "  \"derived\": {\n"
      << "    \"wall_ms\": " << wallSeconds * 1e3;
    if (events > 0) {
      f << ",\n    \"sim.events\": " << events << ",\n"
        << "    \"sim.events.persec\": "
        << static_cast<double>(events) / wallSeconds;
    }
    // The native engine's per-instruction cost: wall time over the
    // instructions every PE executed.
    if (const std::int64_t instrs = counters.get("native.instructions");
        instrs > 0) {
      f << ",\n    \"native.ns_per_instr\": "
        << wallSeconds * 1e9 / static_cast<double>(instrs);
    }
    f << "\n  },\n";
  }
  f << "  \"counters\": {";
  bool first = true;
  for (const auto& [k, v] : counters.all()) {
    f << (first ? "\n" : ",\n") << "    \"" << jsonEscape(k) << "\": " << v;
    first = false;
  }
  f << "\n  }\n}\n";
  return f.good();
}

}  // namespace pods
