#include "bench_main.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mirabel::bench {

BenchResult& BenchResult::Wall(double seconds) {
  wall_s = seconds;
  return *this;
}

BenchResult& BenchResult::Items(double items) {
  if (wall_s > 0.0 && items > 0.0) {
    throughput_items_per_s = items / wall_s;
  }
  metrics.emplace_back("items", items);
  return *this;
}

BenchResult& BenchResult::Metric(const std::string& key, double value) {
  metrics.emplace_back(key, value);
  return *this;
}

BenchReport::BenchReport(std::string bench_name)
    : name_(std::move(bench_name)) {}

void BenchReport::AddConfig(const std::string& key, const std::string& value) {
  config_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

void BenchReport::AddConfig(const std::string& key, double value) {
  config_.emplace_back(key, JsonNumber(value));
}

void BenchReport::AddConfig(const std::string& key, int64_t value) {
  config_.emplace_back(key, std::to_string(value));
}

void BenchReport::AddConfig(const std::string& key, bool value) {
  config_.emplace_back(key, value ? "true" : "false");
}

BenchResult& BenchReport::AddResult(const std::string& name) {
  results_.emplace_back();
  results_.back().name = name;
  return results_.back();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string BenchReport::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"" << JsonEscape(name_) << "\",\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"small_mode\": " << (SmallMode() ? "true" : "false") << ",\n";
  os << "  \"config\": {";
  for (size_t i = 0; i < config_.size(); ++i) {
    os << (i ? ", " : "") << "\"" << JsonEscape(config_[i].first)
       << "\": " << config_[i].second;
  }
  os << "},\n";
  double total_wall = 0.0;
  os << "  \"results\": [\n";
  for (size_t i = 0; i < results_.size(); ++i) {
    const BenchResult& r = results_[i];
    total_wall += r.wall_s;
    os << "    {\"name\": \"" << JsonEscape(r.name) << "\", \"wall_s\": "
       << JsonNumber(r.wall_s);
    if (r.throughput_items_per_s >= 0.0) {
      os << ", \"throughput_items_per_s\": "
         << JsonNumber(r.throughput_items_per_s);
    }
    for (const auto& [key, value] : r.metrics) {
      os << ", \"" << JsonEscape(key) << "\": " << JsonNumber(value);
    }
    os << "}" << (i + 1 < results_.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"total_wall_s\": " << JsonNumber(total_wall) << "\n";
  os << "}\n";
  return os.str();
}

std::string BenchReport::WriteFile() const {
  std::string path = "BENCH_" + name_ + ".json";
  if (const char* dir = std::getenv("MIRABEL_BENCH_OUT_DIR")) {
    path = std::string(dir) + "/" + path;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return "";
  }
  out << ToJson();
  out.close();
  std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
  return path;
}

bool SmallMode() { return std::getenv("MIRABEL_BENCH_SMALL") != nullptr; }

}  // namespace mirabel::bench
